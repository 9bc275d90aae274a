// Tests for the SimEngine kernel and the SimProbe observability layer:
// the golden determinism suite (engine vs seed Npu, byte-identical report
// JSON), RingQueue, probe dispatch ordering, ReplayStream equivalence, and
// regressions found during the refactor (EventHeap single-element pop
// self-move).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/afs.h"
#include "baselines/fcfs.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "reference/npu.h"
#include "sim/engine.h"
#include "sim/event_heap.h"
#include "sim/flight_recorder.h"
#include "sim/probes.h"
#include "sim/report_json.h"
#include "sim/ring_queue.h"
#include "sim/runner.h"
#include "trace/synthetic.h"

namespace laps {
namespace {

// -------------------------------------------------------------- RingQueue ---

TEST(RingQueue, RejectsZeroCapacity) {
  EXPECT_THROW(RingQueue<int>(0), std::invalid_argument);
}

TEST(RingQueue, FifoOrder) {
  RingQueue<int> q(4);
  q.push_back(1);
  q.push_back(2);
  q.push_back(3);
  EXPECT_EQ(q.front(), 1);
  q.pop_front();
  EXPECT_EQ(q.front(), 2);
  q.pop_front();
  EXPECT_EQ(q.front(), 3);
  q.pop_front();
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapsAroundManyTimes) {
  RingQueue<int> q(3);
  int next_in = 0;
  int next_out = 0;
  // Steady-state occupancy 2 over 100 operations: head and tail wrap the
  // 3-slot buffer dozens of times and FIFO order must survive every wrap.
  q.push_back(next_in++);
  q.push_back(next_in++);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.front(), next_out);
    q.pop_front();
    ++next_out;
    q.push_back(next_in++);
    EXPECT_EQ(q.size(), 2u);
  }
}

TEST(RingQueue, FullAndEmptyBoundaries) {
  RingQueue<int> q(2);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.front(), std::logic_error);
  EXPECT_THROW(q.pop_front(), std::logic_error);
  q.push_back(1);
  q.push_back(2);
  EXPECT_TRUE(q.full());
  EXPECT_THROW(q.push_back(3), std::logic_error);
  q.pop_front();
  EXPECT_FALSE(q.full());
  q.push_back(3);
  EXPECT_EQ(q.front(), 2);
}

TEST(RingQueue, CapacityOne) {
  RingQueue<std::string> q(1);
  for (int i = 0; i < 5; ++i) {
    q.push_back("v" + std::to_string(i));
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.front(), "v" + std::to_string(i));
    q.pop_front();
    EXPECT_TRUE(q.empty());
  }
}

TEST(RingQueue, ClearResets) {
  RingQueue<int> q(3);
  q.push_back(1);
  q.push_back(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_back(9);
  EXPECT_EQ(q.front(), 9);
}

// -------------------------------------------- EventHeap self-move (found) ---

// Popping the last element used to self-move-assign heap_.front() from
// heap_.back() (the same object); for payloads with non-trivial move
// assignment (e.g. std::string) that can clear the element being returned.
TEST(EventHeap, SingleElementPopSurvivesNonTrivialPayload) {
  struct Ev {
    TimeNs time;
    std::string payload;
  };
  EventHeap<Ev> heap;
  heap.push({5, std::string(64, 'x')});  // beyond any SSO buffer
  const Ev out = heap.pop();
  EXPECT_EQ(out.time, 5);
  EXPECT_EQ(out.payload, std::string(64, 'x'));
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, DrainToOneRepeatedly) {
  struct Ev {
    TimeNs time;
    std::string payload;
  };
  EventHeap<Ev> heap;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      heap.push({static_cast<TimeNs>(i), "p" + std::to_string(i)});
    }
    for (int i = 0; i < 4; ++i) {
      const Ev e = heap.pop();
      EXPECT_EQ(e.payload, "p" + std::to_string(i));
    }
    EXPECT_TRUE(heap.empty());
  }
}

// ----------------------------------------------- CoreView narrow contract ---

// The seed's CoreView carried a `last_service` field that schedulers were
// trusted not to read (the paper's schedulers cannot see I-cache contents).
// The refactor enforces that structurally: the field must not exist.
template <typename T>
concept ExposesLastService = requires(const T& v) { v.last_service; };
static_assert(!ExposesLastService<CoreView>,
              "CoreView must not expose simulator-private I-cache state");
static_assert(sizeof(CoreView) <= 16,
              "CoreView should stay a small observable tuple; simulator "
              "state belongs in SimEngine::CoreState");

// ----------------------------------------------------------- test helpers ---

class PinnedScheduler final : public Scheduler {
 public:
  explicit PinnedScheduler(CoreId core) : core_(core) {}
  void attach(std::size_t) override {}
  CoreId schedule(const SimPacket&, const NpuView&) override { return core_; }
  std::string name() const override { return "Pinned"; }

 private:
  CoreId core_;
};

ScenarioConfig golden_scenario(const std::string& trace, std::uint64_t seed,
                               double load_mpps, bool restore_order,
                               std::size_t flows = 4096) {
  ScenarioConfig cfg;
  cfg.name = "golden." + trace;
  cfg.num_cores = 4;
  cfg.queue_capacity = 8;
  cfg.seconds = 0.002;
  cfg.seed = seed;
  cfg.restore_order = restore_order;
  SyntheticTraceSpec spec;
  spec.name = trace;
  spec.num_flows = flows;
  spec.seed = seed * 31 + 7;
  if (trace == "churny") {
    spec.churn_per_packet = 0.01;
    spec.zipf_alpha = 1.2;
  }
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{load_mpps, 0.0, 0.0, 10.0, 0.0};
  s.trace = std::make_shared<SyntheticTrace>(spec);
  cfg.services = {s};
  return cfg;
}

std::unique_ptr<Scheduler> make_sched(const std::string& name) {
  if (name == "FCFS") return std::make_unique<FcfsScheduler>();
  if (name == "StaticHash") return std::make_unique<StaticHashScheduler>();
  if (name == "AFS") return std::make_unique<AfsScheduler>();
  LapsConfig cfg;
  cfg.num_services = 1;
  return std::make_unique<LapsScheduler>(cfg);
}

// ------------------------------------------------------------ golden suite ---

// The acceptance bar of the refactor: for every scenario x scheduler x seed
// cell, the engine-backed run_scenario and the retained seed kernel produce
// byte-identical SimReport JSON. Any divergence in event ordering, penalty
// charging, drop accounting, or double arithmetic shows up here.
TEST(GoldenDeterminism, EngineMatchesSeedNpuByteForByte) {
  const std::vector<std::string> traces = {"plain", "churny"};
  const std::vector<std::string> schedulers = {"FCFS", "StaticHash", "AFS",
                                               "LAPS"};
  const std::vector<std::uint64_t> seeds = {1, 42};
  for (const auto& trace : traces) {
    for (const auto& sched_name : schedulers) {
      for (std::uint64_t seed : seeds) {
        // 12 Mpps on 4 IP-forwarding cores (8 Mpps capacity) = sustained
        // overload: drops, deep queues, and load-balancing decisions all
        // exercised.
        const ScenarioConfig cfg =
            golden_scenario(trace, seed, 12.0, /*restore_order=*/false);
        auto s1 = make_sched(sched_name);
        auto s2 = make_sched(sched_name);
        const std::string engine_json =
            report_to_json(run_scenario(cfg, *s1));
        const std::string npu_json =
            report_to_json(run_scenario_reference(cfg, *s2));
        ASSERT_EQ(engine_json, npu_json)
            << "trace=" << trace << " scheduler=" << sched_name
            << " seed=" << seed;
      }
    }
  }
}

TEST(GoldenDeterminism, MatchesWithOrderRestoration) {
  for (std::uint64_t seed : {9ull, 77ull}) {
    const ScenarioConfig cfg =
        golden_scenario("plain", seed, 12.0, /*restore_order=*/true);
    auto s1 = make_sched("AFS");
    auto s2 = make_sched("AFS");
    ASSERT_EQ(report_to_json(run_scenario(cfg, *s1)),
              report_to_json(run_scenario_reference(cfg, *s2)))
        << "seed=" << seed;
  }
}

TEST(GoldenDeterminism, ReplayedTrafficMatchesOnlineGeneration) {
  const ScenarioConfig cfg = golden_scenario("plain", 5, 10.0, false);
  auto s1 = make_sched("AFS");
  const SimReport online = run_scenario(cfg, *s1);

  for (const ServiceTraffic& s : cfg.services) s.trace->reset();
  PacketGenerator gen(cfg.services, cfg.seed, cfg.seconds);
  ReplayStream replay = ReplayStream::record(gen);
  auto s2 = make_sched("AFS");
  SimEngineConfig ecfg;
  ecfg.num_cores = cfg.num_cores;
  ecfg.queue_capacity = cfg.queue_capacity;
  ecfg.delay = cfg.delay;
  ecfg.restore_order = cfg.restore_order;
  ReportProbe probe;
  SimEngine engine(ecfg, *s2, ProbeSet{&probe});
  engine.run(replay, cfg.name);

  EXPECT_EQ(report_to_json(online), report_to_json(probe.take_report()));
}

// -------------------------------------------------------------- probe layer ---

/// Records the hook sequence as a compact string for order assertions.
class SequenceProbe final : public SimProbe {
 public:
  void on_run_begin(const RunInfo&) override { log_ += "B"; }
  void on_arrival(TimeNs, const SimPacket&) override { log_ += "a"; }
  void on_drop(TimeNs, const SimPacket&, CoreId) override { log_ += "x"; }
  void on_dispatch(TimeNs, const SimPacket&, CoreId, bool) override {
    log_ += "d";
  }
  void on_service_start(TimeNs, const SimPacket&, CoreId, TimeNs, bool,
                        bool) override {
    log_ += "s";
  }
  void on_departure(TimeNs, const SimPacket&, CoreId, std::uint32_t) override {
    log_ += "c";
  }
  void on_epoch(TimeNs, std::span<const CoreView>) override { log_ += "e"; }
  void on_run_end(const RunEnd&) override { log_ += "E"; }

  const std::string& log() const { return log_; }

 private:
  std::string log_;
};

TEST(ProbeSet, IgnoresNullAndCapsCapacity) {
  ProbeSet set;
  set.add(nullptr);
  EXPECT_TRUE(set.empty());
  std::vector<SequenceProbe> probes(ProbeSet::kMaxProbes);
  for (auto& p : probes) set.add(&p);
  EXPECT_EQ(set.size(), ProbeSet::kMaxProbes);
  SequenceProbe extra;
  EXPECT_THROW(set.add(&extra), std::length_error);
}

TEST(SimProbe, LifecycleOrderPerPacket) {
  // One pinned core, light load: every packet must log arrival, dispatch,
  // service start, then completion, bracketed by run begin/end.
  const ScenarioConfig cfg = golden_scenario("plain", 3, 0.2, false, 16);
  PinnedScheduler sched(0);
  SequenceProbe seq;
  ProbeSet extra;
  extra.add(&seq);
  run_scenario(cfg, sched, extra);

  const std::string& log = seq.log();
  ASSERT_GE(log.size(), 2u);
  EXPECT_EQ(log.front(), 'B');
  EXPECT_EQ(log.back(), 'E');
  // Hooks fire in lifecycle order: no service start before a dispatch, no
  // completion before a service start.
  std::size_t dispatched = 0, started = 0, completed = 0;
  for (char c : log) {
    if (c == 'd') ++dispatched;
    if (c == 's') {
      ++started;
      ASSERT_LE(started, dispatched);
    }
    if (c == 'c') {
      ++completed;
      ASSERT_LE(completed, started);
    }
  }
  EXPECT_GT(dispatched, 0u);
  EXPECT_EQ(completed, started);
}

TEST(SimProbe, DropsAreObserved) {
  // Everything pinned to one slow core at high load: drops guaranteed.
  const ScenarioConfig cfg = golden_scenario("plain", 4, 10.0, false, 64);
  PinnedScheduler sched(0);
  SequenceProbe seq;
  ProbeSet extra;
  extra.add(&seq);
  const SimReport report = run_scenario(cfg, sched, extra);
  ASSERT_GT(report.dropped, 0u);
  const auto drops = static_cast<std::uint64_t>(
      std::count(seq.log().begin(), seq.log().end(), 'x'));
  EXPECT_EQ(drops, report.dropped);
}

TEST(SimProbe, EpochsFireAtFixedBoundaries) {
  const ScenarioConfig cfg = golden_scenario("plain", 6, 2.0, false, 64);
  PinnedScheduler sched(0);

  class EpochProbe final : public SimProbe {
   public:
    std::vector<TimeNs> times;
    void on_epoch(TimeNs now, std::span<const CoreView>) override {
      times.push_back(now);
    }
  } epochs;

  ProbeSet extra;
  extra.add(&epochs);
  const TimeNs window = from_us(100.0);
  run_scenario(cfg, sched, extra, window);
  // 2 ms horizon / 100 us window: epochs at 100us, 200us, ... strictly
  // increasing multiples of the window.
  ASSERT_GE(epochs.times.size(), 10u);
  for (std::size_t i = 0; i < epochs.times.size(); ++i) {
    EXPECT_EQ(epochs.times[i], static_cast<TimeNs>(i + 1) * window);
  }
}

TEST(SimProbe, EpochsDoNotAlterPhysics) {
  const ScenarioConfig cfg = golden_scenario("plain", 8, 12.0, false);
  auto s1 = make_sched("AFS");
  auto s2 = make_sched("AFS");
  SequenceProbe seq;  // any probe, to force the epoch-enabled path
  ProbeSet extra;
  extra.add(&seq);
  const SimReport with_epochs =
      run_scenario(cfg, *s1, extra, from_us(50.0));
  const SimReport without = run_scenario(cfg, *s2);
  EXPECT_EQ(report_to_json(with_epochs), report_to_json(without));
}

TEST(FlightRecorderProbe, WholeRunTraceEmitsServiceSpans) {
  const ScenarioConfig cfg = golden_scenario("plain", 12, 2.0, false, 64);
  auto sched = make_sched("LAPS");
  FlightRecorderProbe trace(FlightRecorderConfig::whole_run());
  ProbeSet extra;
  extra.add(&trace);
  run_scenario(cfg, *sched, extra);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // service spans
}

// ------------------------------------------------------------- sched events ---

TEST(SchedEvents, LapsEmitsThroughSinkOnlyWhenObserved) {
  // Single service, 2 cores, sustained overload: LAPS migrates aggressive
  // flows, which must surface as on_sched_event callbacks.
  ScenarioConfig cfg = golden_scenario("plain", 13, 12.0, false, 256);

  class SchedEventProbe final : public SimProbe {
   public:
    std::vector<SchedEvent> events;
    void on_sched_event(TimeNs, const SchedEvent& e) override {
      events.push_back(e);
    }
  } probe;

  auto sched = make_sched("LAPS");
  ProbeSet extra;
  extra.add(&probe);
  const SimReport report = run_scenario(cfg, *sched, extra);
  const double migrations = report.extra.count("aggressive_migrations")
                                ? report.extra.at("aggressive_migrations")
                                : 0.0;
  const auto emitted = static_cast<double>(std::count_if(
      probe.events.begin(), probe.events.end(), [](const SchedEvent& e) {
        return e.kind == SchedEvent::Kind::kAggressiveMigration;
      }));
  EXPECT_EQ(emitted, migrations);
  // Attaching the sink must not have changed the simulated physics.
  auto sched2 = make_sched("LAPS");
  EXPECT_EQ(report_to_json(run_scenario(cfg, *sched2)),
            report_to_json(report));
}

TEST(SchedEvents, KindNamesAreStable) {
  EXPECT_STREQ(SchedEvent::kind_name(SchedEvent::Kind::kCoreGrant),
               "core_grant");
  EXPECT_STREQ(SchedEvent::kind_name(SchedEvent::Kind::kAfdPromotion),
               "afd_promotion");
  EXPECT_STREQ(SchedEvent::kind_name(SchedEvent::Kind::kPark), "park");
}

// ---------------------------------------------------------------- FlowBlock ---

TEST(FlowBlock, GrowPreservesStateAndDefaults) {
  FlowBlock flows;
  flows.ensure(0);
  flows.ingress_seq(0) = 41;
  flows.last_assigned_plus1(0) = 3;
  // Force several geometric growth steps.
  flows.ensure(100'000);
  EXPECT_EQ(flows.ingress_seq(0), 41u);
  EXPECT_EQ(flows.last_assigned_plus1(0), 3u);
  EXPECT_EQ(flows.ingress_seq(100'000), 0u);
  EXPECT_EQ(flows.egress_hi(100'000), 0u);
  EXPECT_EQ(flows.last_assigned_plus1(100'000), 0u);  // 0 = no previous core
  EXPECT_EQ(flows.last_proc_plus1(100'000), 0u);

  // Across several doublings, every lane of every record written before a
  // growth survives it, and every record a growth adds reads zero.
  FlowBlock grown;
  std::uint32_t written = 0;
  for (const std::uint32_t top : {0u, 63u, 64u, 200u, 1'000u, 4'097u,
                                  70'000u, 300'001u}) {
    grown.ensure(top);
    ASSERT_EQ(grown.size(), static_cast<std::size_t>(top) + 1);
    std::size_t bad_old = 0, bad_new = 0;
    for (std::uint32_t f = 0; f <= top; ++f) {
      const FlowBlock::Record& r = grown.at(f);
      if (f < written) {
        bad_old += r.ingress_seq != 4 * f + 1 || r.egress_hi != 4 * f + 2 ||
                   r.last_assigned_plus1 != 4 * f + 3 ||
                   r.last_proc_plus1 != 4 * f + 4;
      } else {
        bad_new += r.ingress_seq != 0 || r.egress_hi != 0 ||
                   r.last_assigned_plus1 != 0 || r.last_proc_plus1 != 0;
        grown.ingress_seq(f) = 4 * f + 1;
        grown.egress_hi(f) = 4 * f + 2;
        grown.last_assigned_plus1(f) = 4 * f + 3;
        grown.last_proc_plus1(f) = 4 * f + 4;
      }
    }
    EXPECT_EQ(bad_old, 0u) << "records lost a lane growing to " << top;
    EXPECT_EQ(bad_new, 0u) << "new records not zero growing to " << top;
    written = top + 1;
  }
}

}  // namespace
}  // namespace laps
