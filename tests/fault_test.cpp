// Tests for the fault-injection subsystem (sim/fault.h): the --faults
// grammar, randomized plan generation, adversarial traffic synthesis, the
// engine's execution of core faults (flush, dead-route backstop, stall,
// slowdown, recovery), scheduler degradation (FCFS skip, StaticHash rehash,
// LAPS drain/remap with emergency grants), and the FaultProbe recovery
// metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/afs.h"
#include "baselines/fcfs.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "reference/npu.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/probes.h"
#include "sim/report_json.h"
#include "sim/runner.h"
#include "trace/synthetic.h"

namespace laps {
namespace {

// ---------------------------------------------------------------- parsing ---

TEST(FaultPlanParse, RoundTripsCanonicalSpec) {
  const std::string spec =
      "burst@1ms+200us:rate=1.5,flows=8;stall:1@2ms+500us;"
      "crowd@4ms+1ms:rate=0.5,flows=100;slow:2x4@5ms;down:3@10ms;up:3@30ms";
  const FaultPlan plan = parse_fault_plan(spec);
  ASSERT_EQ(plan.events.size(), 6u);
  EXPECT_EQ(plan.to_spec(), spec);
  // parse(to_spec()) is exact.
  EXPECT_EQ(parse_fault_plan(plan.to_spec()).to_spec(), spec);
  // Bare numbers are nanoseconds, as in every other duration.
  EXPECT_EQ(parse_fault_plan("down:1@2500").to_spec(), "down:1@2500ns");
}

TEST(FaultPlanParse, SortsOutOfOrderComponents) {
  const FaultPlan plan = parse_fault_plan("up:0@2ms;down:0@1ms");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kCoreDown);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kCoreUp);
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_plan("gibberish"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("down:@1ms"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("down:1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("down:1@5xs"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("slow:1@1ms"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("stall:1@1ms"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("burst@1ms+1us:rate=1.0"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("burst@1ms+1us:flows=4"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crowd@1ms:rate=1.0,flows=4"),
               std::invalid_argument);
  // Times go through util::parse_duration: no NaN, infinity or overflow.
  EXPECT_THROW(parse_fault_plan("down:1@nanms"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("up:1@infs"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("stall:1@1ms+1e30s"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("down:1@-5ms"), std::invalid_argument);
}

TEST(FaultPlanParse, ValidateChecksCoreRange) {
  const FaultPlan plan = parse_fault_plan("down:9@1ms");
  EXPECT_NO_THROW(plan.validate());  // core count unknown
  EXPECT_NO_THROW(plan.validate(16));
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
}

TEST(RandomFaultPlan, DeterministicValidAndNonEmpty) {
  RandomFaultParams params;
  params.num_cores = 8;
  const FaultPlan a = random_fault_plan(21, params);
  const FaultPlan b = random_fault_plan(21, params);
  EXPECT_EQ(a.to_spec(), b.to_spec());
  EXPECT_FALSE(a.empty());
  EXPECT_NO_THROW(a.validate(params.num_cores));
  // A different seed explores a different schedule.
  EXPECT_NE(a.to_spec(), random_fault_plan(22, params).to_spec());
}

// ----------------------------------------------------- FaultTrafficStream ---

class VecStream final : public ArrivalStream {
 public:
  VecStream(std::vector<GeneratedPacket> pkts, std::size_t flows)
      : pkts_(std::move(pkts)), flows_(flows) {}
  std::optional<GeneratedPacket> next() override {
    if (pos_ >= pkts_.size()) return std::nullopt;
    return pkts_[pos_++];
  }
  std::size_t total_flows() const override { return flows_; }

 private:
  std::vector<GeneratedPacket> pkts_;
  std::size_t flows_;
  std::size_t pos_ = 0;
};

GeneratedPacket base_packet(TimeNs t, std::uint32_t gflow) {
  GeneratedPacket pkt;
  pkt.time = t;
  pkt.gflow = gflow;
  pkt.record.flow_id = gflow;
  pkt.record.tuple.src_ip = 0x0A000000u + gflow;
  pkt.record.tuple.dst_ip = 0x0B000000u + gflow;
  pkt.record.tuple.src_port = 1000;
  pkt.record.tuple.dst_port = 80;
  pkt.record.tuple.protocol = 17;
  return pkt;
}

TEST(FaultTraffic, CollisionBurstSharesOneCrc16Bucket) {
  FaultPlan plan = parse_fault_plan("burst@10us+10us:rate=2.0,flows=5");
  plan.seed = 99;
  VecStream base({}, 0);
  FaultTrafficStream stream(base, plan);
  EXPECT_EQ(stream.injected_flows(), 5u);
  std::optional<std::uint16_t> crc;
  std::set<std::uint64_t> keys;
  TimeNs last = 0;
  std::size_t count = 0;
  while (auto pkt = stream.next()) {
    ++count;
    EXPECT_GE(pkt->time, from_us(10.0));
    EXPECT_LE(pkt->time, from_us(21.0));
    EXPECT_GE(pkt->time, last);
    last = pkt->time;
    EXPECT_EQ(pkt->gflow % 2, 1u) << "injected flows take odd gflow ids";
    if (!crc) crc = pkt->record.tuple.crc16();
    EXPECT_EQ(pkt->record.tuple.crc16(), *crc);
    keys.insert(pkt->record.tuple.key64());
  }
  EXPECT_EQ(count, stream.injected_packets());
  EXPECT_EQ(keys.size(), 5u) << "distinct tuples, one CRC16 bucket";
}

TEST(FaultTraffic, MergesByTimeAndSplitsIdSpaceByParity) {
  FaultPlan plan = parse_fault_plan("crowd@5us+5us:rate=1.0,flows=3");
  plan.seed = 7;
  VecStream base({base_packet(0, 0), base_packet(from_us(20.0), 1)}, 2);
  FaultTrafficStream stream(base, plan);
  TimeNs last = 0;
  std::vector<std::uint32_t> base_gflows;
  while (auto pkt = stream.next()) {
    EXPECT_GE(pkt->time, last);
    last = pkt->time;
    if (pkt->gflow % 2 == 0) base_gflows.push_back(pkt->gflow);
  }
  EXPECT_EQ(base_gflows, (std::vector<std::uint32_t>{0, 2}))
      << "base flows remap to even ids in arrival order";
}

TEST(FaultTraffic, CoreOnlyPlanPassesBaseThroughUntouched) {
  const FaultPlan plan = parse_fault_plan("down:1@5us;up:1@9us");
  VecStream base({base_packet(0, 4), base_packet(10, 5)}, 6);
  FaultTrafficStream stream(base, plan);
  EXPECT_EQ(stream.injected_packets(), 0u);
  EXPECT_EQ(stream.total_flows(), 6u);
  EXPECT_EQ(stream.next()->gflow, 4u) << "no parity remap without injection";
  EXPECT_EQ(stream.next()->gflow, 5u);
  EXPECT_FALSE(stream.next().has_value());
}

// --------------------------------------------------------- engine faults ---

class PinnedScheduler final : public Scheduler {
 public:
  explicit PinnedScheduler(CoreId core) : core_(core) {}
  void attach(std::size_t) override {}
  CoreId schedule(const SimPacket&, const NpuView&) override { return core_; }
  std::string name() const override { return "Pinned"; }

 private:
  CoreId core_;
};

/// Records when the last packet actually departed — SimReport::sim_time is
/// the generator horizon, which post-horizon drain (and stalls) exceed.
class DepartureClock final : public SimProbe {
 public:
  void on_departure(TimeNs now, const SimPacket&, CoreId,
                    std::uint32_t) override {
    last = now;
  }
  TimeNs last = 0;
};

struct PinnedRun {
  SimReport report;
  TimeNs last_departure = 0;
};

/// Runs `pkts` through a 2-core engine with `spec` as the fault plan.
PinnedRun run_pinned(const std::vector<GeneratedPacket>& pkts,
                     const std::string& spec, CoreId core = 0) {
  const FaultPlan plan =
      spec.empty() ? FaultPlan{} : parse_fault_plan(spec);
  VecStream stream(pkts, 64);
  PinnedScheduler sched(core);
  SimEngineConfig cfg;
  cfg.num_cores = 2;
  cfg.queue_capacity = 32;
  if (!plan.empty()) cfg.faults = &plan;
  ReportProbe probe;
  DepartureClock clock;
  SimEngine engine(cfg, sched, ProbeSet{&probe, &clock});
  engine.run(stream, "fault_test");
  return {probe.take_report(), clock.last};
}

TEST(EngineFault, CoreDownFlushesQueueAndBackstopsDeadRouting) {
  std::vector<GeneratedPacket> pkts;
  for (std::uint32_t i = 0; i < 64; ++i) {
    pkts.push_back(base_packet(i * 10, i % 8));  // burst: queue builds
  }
  for (std::uint32_t i = 0; i < 10; ++i) {  // arrives while core 0 is dead
    pkts.push_back(base_packet(from_us(50.0) + i * 10, i % 8));
  }
  const SimReport report = run_pinned(pkts, "down:0@5us").report;
  EXPECT_EQ(report.offered, 74u);
  EXPECT_EQ(report.offered, report.delivered + report.dropped)
      << "conservation must survive a flush";
  EXPECT_EQ(report.in_flight_at_end, 0u);
  ASSERT_TRUE(report.extra.count("fault_flush_drops"));
  EXPECT_GT(report.extra.at("fault_flush_drops"), 0.0);
  EXPECT_EQ(report.extra.at("fault_dead_route_drops"), 10.0)
      << "a pinned scheduler keeps routing to the dead core; the engine "
         "must drop, not enqueue";
  EXPECT_EQ(report.extra.at("fault_cores_down_at_end"), 1.0);
}

TEST(EngineFault, CoreDownIsIdempotentAndUpRestoresService) {
  std::vector<GeneratedPacket> pkts;
  for (std::uint32_t i = 0; i < 20; ++i) {
    pkts.push_back(base_packet(from_us(100.0) + i * 10, i % 4));
  }
  const SimReport report =
      run_pinned(pkts, "down:0@5us;down:0@6us;up:0@50us").report;
  EXPECT_EQ(report.delivered, 20u)
      << "everything arriving after recovery is served";
  EXPECT_EQ(report.extra.at("fault_cores_down_at_end"), 0.0);
  EXPECT_EQ(report.extra.at("fault_events"), 3.0);
}

TEST(EngineFault, StallDefersServiceWithoutDroppingPackets) {
  const std::vector<GeneratedPacket> pkts = {base_packet(0, 0)};
  const PinnedRun stalled = run_pinned(pkts, "stall:0@0ns+50us");
  const PinnedRun plain = run_pinned(pkts, "");
  EXPECT_EQ(stalled.report.delivered, 1u);
  EXPECT_GE(stalled.last_departure, from_us(50.0))
      << "service cannot start before the stall expires";
  EXPECT_LT(plain.last_departure, from_us(50.0));
}

TEST(EngineFault, SlowdownStretchesServiceTime) {
  const std::vector<GeneratedPacket> pkts = {base_packet(0, 0),
                                             base_packet(1, 1)};
  const PinnedRun slowed = run_pinned(pkts, "slow:0x4@0ns");
  const PinnedRun plain = run_pinned(pkts, "");
  EXPECT_EQ(slowed.report.delivered, 2u);
  EXPECT_GT(slowed.last_departure, plain.last_departure * 2)
      << "a 4x slowdown must dominate the run length";
}

TEST(EngineFault, FaultProbeRecordsOutageAndReintegration) {
  std::vector<GeneratedPacket> pkts;
  for (std::uint32_t i = 0; i < 8; ++i) {
    pkts.push_back(base_packet(i * 10, i));  // before the outage
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    pkts.push_back(base_packet(from_us(100.0) + i * 10, i));  // after up
  }
  const FaultPlan plan = parse_fault_plan("down:0@10us;up:0@60us");
  VecStream stream(pkts, 8);
  PinnedScheduler sched(0);
  SimEngineConfig cfg;
  cfg.num_cores = 2;
  cfg.queue_capacity = 32;
  cfg.faults = &plan;
  ReportProbe report;
  FaultProbe fault_probe;
  ProbeSet probes;
  probes.add(&report);
  probes.add(&fault_probe);
  SimEngine engine(cfg, sched, probes);
  engine.run(stream, "fault_test");

  ASSERT_EQ(fault_probe.timeline().size(), 2u);
  EXPECT_EQ(fault_probe.timeline()[0].event.kind, FaultKind::kCoreDown);
  ASSERT_EQ(fault_probe.recoveries().size(), 1u);
  const auto& rec = fault_probe.recoveries()[0];
  EXPECT_EQ(rec.core, 0);
  EXPECT_EQ(rec.outage_ns(), from_us(50.0));
  EXPECT_EQ(rec.reintegrate_ns(), from_us(40.0))
      << "first dispatch lands with the 100us arrival wave";
  const std::string json = fault_probe.to_json();
  EXPECT_NE(json.find("fault_probe"), std::string::npos);
}

// ------------------------------------------------- scheduler degradation ---

class FakeView final : public NpuView {
 public:
  explicit FakeView(std::size_t n) : cores_(n) {
    for (auto& c : cores_) c.idle_since = 0;
  }
  TimeNs now() const override { return now_; }
  std::span<const CoreView> cores() const override {
    return {cores_.data(), cores_.size()};
  }
  std::uint32_t queue_capacity() const override { return 32; }

  TimeNs now_ = 0;
  std::vector<CoreView> cores_;
};

SimPacket make_packet(std::uint32_t flow, ServicePath service) {
  SimPacket pkt;
  pkt.tuple.src_ip = 0x0A000000u + flow;
  pkt.tuple.dst_ip = static_cast<std::uint32_t>(mix64(flow) >> 32) | 1u;
  pkt.tuple.src_port = static_cast<std::uint16_t>(1024 + flow % 60000);
  pkt.tuple.dst_port = 80;
  pkt.tuple.protocol = 6;
  pkt.gflow = flow;
  pkt.service = service;
  return pkt;
}

TEST(FcfsFault, SkipsDeadCoresAndRecovers) {
  FcfsScheduler fcfs;
  fcfs.attach(4);
  FakeView view(4);
  fcfs.notify_core_down(2, view);
  for (std::uint32_t f = 0; f < 64; ++f) {
    EXPECT_NE(fcfs.schedule(make_packet(f, ServicePath::kIpForward), view),
              2u);
  }
  fcfs.notify_core_up(2, view);
  // Make core 2 the unique least-loaded target.
  for (CoreId c = 0; c < 4; ++c) view.cores_[c].queue_len = c == 2 ? 0 : 9;
  EXPECT_EQ(fcfs.schedule(make_packet(1, ServicePath::kIpForward), view), 2u);
}

TEST(StaticHashFault, RehashesAroundDeadCoreAndRestoresExactly) {
  StaticHashScheduler hash;
  hash.attach(4);
  FakeView view(4);
  std::vector<CoreId> before;
  for (std::uint32_t f = 0; f < 256; ++f) {
    before.push_back(
        hash.schedule(make_packet(f, ServicePath::kIpForward), view));
  }
  hash.notify_core_down(1, view);
  for (std::uint32_t f = 0; f < 256; ++f) {
    EXPECT_NE(hash.schedule(make_packet(f, ServicePath::kIpForward), view),
              1u);
  }
  hash.notify_core_up(1, view);
  for (std::uint32_t f = 0; f < 256; ++f) {
    EXPECT_EQ(hash.schedule(make_packet(f, ServicePath::kIpForward), view),
              before[f])
        << "recovery restores the exact fault-free mapping";
  }
}

TEST(AfsFault, NeverShiftsBundlesOntoDeadCore) {
  AfsScheduler afs;
  afs.attach(4);
  FakeView view(4);
  afs.notify_core_down(3, view);
  // Overload every live core so the shift heuristic fires constantly; the
  // dead core's empty view must never attract a bundle.
  for (CoreId c = 0; c < 4; ++c) view.cores_[c].queue_len = 30;
  view.cores_[3].queue_len = 0;
  for (std::uint32_t f = 0; f < 512; ++f) {
    EXPECT_NE(afs.schedule(make_packet(f, ServicePath::kIpForward), view),
              3u);
  }
}

LapsConfig laps_config(std::size_t services) {
  LapsConfig cfg;
  cfg.num_services = services;
  cfg.high_thresh = 24;
  cfg.idle_th = from_us(100);
  cfg.afd.afc_entries = 4;
  cfg.afd.annex_entries = 32;
  cfg.afd.promote_threshold = 2;
  return cfg;
}

TEST(LapsFault, DrainsAndRemapsBucketsOffDeadCore) {
  LapsScheduler laps(laps_config(2));
  laps.attach(8);  // service 0: cores 0-3, service 1: cores 4-7
  FakeView view(8);
  // Touch service 0 so its tables exist, then kill one of its cores.
  for (std::uint32_t f = 0; f < 64; ++f) {
    laps.schedule(make_packet(f, ServicePath::kVpnOut), view);
  }
  laps.notify_core_down(1, view);
  EXPECT_FALSE(laps.map_table(0).contains(1))
      << "every bucket must drain off the dead core";
  for (std::uint32_t f = 0; f < 256; ++f) {
    const CoreId c = laps.schedule(make_packet(f, ServicePath::kVpnOut), view);
    EXPECT_NE(c, 1u);
    EXPECT_LT(c, 4u) << "replacement stays within the owning service while "
                        "it still has online cores";
  }
  const auto stats = laps.extra_stats();
  ASSERT_TRUE(stats.count("laps_cores_down_events"));
  EXPECT_EQ(stats.at("laps_cores_down_events"), 1.0);
  EXPECT_EQ(laps.dead_target_reroutes(), 0u);
}

TEST(LapsFault, RecoveryReaddsCoreAndFaultFreeStatsStayClean) {
  LapsScheduler laps(laps_config(2));
  laps.attach(8);
  EXPECT_FALSE(laps.extra_stats().count("laps_cores_down_events"))
      << "fault keys must not appear in fault-free runs";
  FakeView view(8);
  laps.schedule(make_packet(3, ServicePath::kVpnOut), view);
  laps.notify_core_down(0, view);
  laps.notify_core_up(0, view);
  EXPECT_TRUE(laps.map_table(0).contains(0))
      << "recovered core rejoins its service's map table";
  const auto stats = laps.extra_stats();
  EXPECT_EQ(stats.at("laps_cores_up_events"), 1.0);
  EXPECT_EQ(laps.dead_target_reroutes(), 0u);
}

TEST(LapsFault, EmergencyGrantKeepsServiceAliveWhenAllItsCoresDie) {
  LapsScheduler laps(laps_config(2));
  laps.attach(8);
  FakeView view(8);
  laps.schedule(make_packet(9, ServicePath::kVpnOut), view);  // service 0
  std::set<CoreId> dead;
  for (CoreId c = 0; c < 4; ++c) {
    laps.notify_core_down(c, view);
    dead.insert(c);
    for (std::uint32_t f = 0; f < 64; ++f) {
      const CoreId target =
          laps.schedule(make_packet(f, ServicePath::kVpnOut), view);
      EXPECT_FALSE(dead.count(target))
          << "after down(" << c << ") no packet may route to a dead core";
    }
  }
  // All four original cores are dead: service 0 must now own at least one
  // core taken from service 1 via the emergency grant path.
  EXPECT_GE(laps.allocator().online_of(0), 1u);
  EXPECT_GE(laps.allocator().cores_of(0).size(), 5u);
  EXPECT_EQ(laps.dead_target_reroutes(), 0u);
}

TEST(LapsFault, PinsToDeadCoreAreScrubbedOnFailure) {
  LapsScheduler laps(laps_config(1));
  laps.attach(4);
  FakeView view(4);
  const SimPacket pkt = make_packet(1, ServicePath::kIpForward);
  const CoreId home = laps.schedule(pkt, view);
  for (int i = 0; i < 10; ++i) laps.schedule(pkt, view);  // goes aggressive
  view.cores_[home].queue_len = 30;
  const CoreId pin = laps.schedule(pkt, view);  // migrates: pinned to `pin`
  ASSERT_NE(pin, home);
  view.cores_[home].queue_len = 0;
  ASSERT_EQ(laps.schedule(pkt, view), pin);
  laps.notify_core_down(pin, view);
  EXPECT_FALSE(laps.migration_table(0).lookup(pkt.flow_key()).has_value())
      << "core failure must scrub every pin to the dead core";
  const CoreId after = laps.schedule(pkt, view);
  EXPECT_NE(after, pin) << "a pin to a dead core must not be followed";
  EXPECT_EQ(laps.dead_target_reroutes(), 0u);
}

// ----------------------------------------------- end-to-end via scenarios ---

ScenarioConfig fault_scenario(std::uint64_t seed, const std::string& spec) {
  ScenarioConfig cfg;
  cfg.name = "fault_scenario";
  cfg.num_cores = 4;
  cfg.queue_capacity = 16;
  cfg.seconds = 0.002;
  cfg.seed = seed;
  SyntheticTraceSpec trace;
  trace.name = "fault_e2e";
  trace.num_flows = 2048;
  trace.seed = seed * 17 + 3;
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{8.0, 0.0, 0.0, 10.0, 0.0};
  s.trace = std::make_shared<SyntheticTrace>(trace);
  cfg.services = {s};
  if (!spec.empty()) {
    cfg.faults = std::make_shared<const FaultPlan>(parse_fault_plan(spec));
  }
  return cfg;
}

TEST(FaultScenario, LapsSurvivesOutageWithConservationAndNoDeadRouting) {
  const ScenarioConfig cfg =
      fault_scenario(11, "down:1@400us;up:1@1200us;slow:0x2@800us");
  LapsScheduler laps(laps_config(1));
  const SimReport report = run_scenario(cfg, laps);
  EXPECT_EQ(report.offered, report.delivered + report.dropped);
  EXPECT_EQ(report.in_flight_at_end, 0u);
  EXPECT_EQ(report.extra.at("fault_dead_route_drops"), 0.0)
      << "LAPS drain/remap must keep every packet off the dead core";
  EXPECT_EQ(report.extra.at("laps_cores_down_events"), 1.0);
  EXPECT_EQ(report.extra.at("laps_cores_up_events"), 1.0);
  EXPECT_EQ(report.extra.at("fault_cores_down_at_end"), 0.0);
}

TEST(FaultScenario, IdenticalSeedsReplayBitExactly) {
  const std::string spec =
      "down:2@300us;up:2@900us;burst@500us+100us:rate=1.0,flows=6";
  auto s1 = std::make_unique<FcfsScheduler>();
  auto s2 = std::make_unique<FcfsScheduler>();
  const std::string a =
      report_to_json(run_scenario(fault_scenario(5, spec), *s1));
  const std::string b =
      report_to_json(run_scenario(fault_scenario(5, spec), *s2));
  EXPECT_EQ(a, b);
}

TEST(FaultScenario, ReferenceKernelRejectsFaultPlans) {
  const ScenarioConfig cfg = fault_scenario(5, "down:0@100us");
  FcfsScheduler fcfs;
  EXPECT_THROW(run_scenario_reference(cfg, fcfs), std::invalid_argument);
}

// ------------------------------------------------------------- chaos slice ---

// A 20-schedule slice of the chaos_soak invariant grid: randomized-but-
// seeded fault plans (down/up/slow/stall plus traffic bursts) across
// rotating schedulers, with the soak harness's core invariants asserted per
// schedule. The full grid lives in bench/chaos_soak (CI runs it sanitized);
// this slice keeps the completion queue's fault interaction — lazily
// cancelled completions, stall wake-ups — inside plain ctest.
TEST(FaultScenario, SurvivesRandomChaosScheduleSlice) {
  constexpr int kSchedules = 20;
  for (int i = 0; i < kSchedules; ++i) {
    const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(i);
    ScenarioConfig cfg = fault_scenario(seed, "");
    cfg.name = "chaos_slice" + std::to_string(i);

    RandomFaultParams params;
    params.horizon = from_us(cfg.seconds * 1e6);
    params.num_cores = cfg.num_cores;
    cfg.faults =
        std::make_shared<const FaultPlan>(random_fault_plan(seed, params));

    std::unique_ptr<Scheduler> scheduler;
    const LapsScheduler* laps = nullptr;
    switch (i % 3) {
      case 0: scheduler = std::make_unique<FcfsScheduler>(); break;
      case 1: scheduler = std::make_unique<StaticHashScheduler>(); break;
      default: {
        auto owned = std::make_unique<LapsScheduler>(laps_config(1));
        laps = owned.get();
        scheduler = std::move(owned);
      }
    }
    const SimReport report = run_scenario(cfg, *scheduler);
    const std::string ctx =
        cfg.name + " spec=" + cfg.faults->to_spec();

    // Conservation: core failures flush and dead-route as *drops*, never
    // as lost accounting, and the drain leaves nothing in flight.
    EXPECT_EQ(report.offered, report.delivered + report.dropped) << ctx;
    EXPECT_EQ(report.in_flight_at_end, 0u) << ctx;
    // Graceful degradation: every scheduler reroutes around dead cores, so
    // the engine's dead-core backstop never fires.
    EXPECT_EQ(report.extra.at("fault_dead_route_drops"), 0.0) << ctx;
    // The schedule actually ran (the slice must not silently no-op).
    EXPECT_GT(report.extra.at("fault_events"), 0.0) << ctx;
    EXPECT_GT(report.offered, 0u) << ctx;
    // LAPS's last-step reroute of a dead target is defense in depth: the
    // drain/remap protocol must leave it unreachable.
    if (laps != nullptr) {
      EXPECT_EQ(laps->dead_target_reroutes(), 0u) << ctx;
    }
  }
}

}  // namespace
}  // namespace laps
