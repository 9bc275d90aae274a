// Tests for src/sim: the event heap, the NPU discrete-event model (drops,
// penalties, reordering, conservation), and the report arithmetic.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "reference/npu.h"
#include "sim/event_heap.h"
#include "sim/reorder_buffer.h"
#include "sim/runner.h"
#include "sim/scheduler.h"
#include "trace/synthetic.h"
#include "traffic/generator.h"
#include "util/rng.h"

namespace laps {
namespace {

// -------------------------------------------------------------- EventHeap ---

struct Ev {
  TimeNs time;
  int tag;
};

TEST(EventHeap, PopsInTimeOrder) {
  EventHeap<Ev> heap;
  heap.push({30, 1});
  heap.push({10, 2});
  heap.push({20, 3});
  EXPECT_EQ(heap.pop().tag, 2);
  EXPECT_EQ(heap.pop().tag, 3);
  EXPECT_EQ(heap.pop().tag, 1);
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, TiesPopInInsertionOrder) {
  EventHeap<Ev> heap;
  for (int i = 0; i < 20; ++i) heap.push({100, i});
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(heap.pop().tag, i) << "stable FIFO for equal timestamps";
  }
}

TEST(EventHeap, TopDoesNotRemove) {
  EventHeap<Ev> heap;
  heap.push({5, 7});
  EXPECT_EQ(heap.top().tag, 7);
  EXPECT_EQ(heap.top_time(), 5);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(EventHeap, EmptyOperationsThrow) {
  EventHeap<Ev> heap;
  EXPECT_THROW(heap.pop(), std::logic_error);
  EXPECT_THROW(heap.top(), std::logic_error);
  EXPECT_THROW(heap.top_time(), std::logic_error);
}

TEST(EventHeap, RandomizedOrderProperty) {
  EventHeap<Ev> heap;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    heap.push({static_cast<TimeNs>(rng.below(10'000)), i});
  }
  TimeNs prev = -1;
  while (!heap.empty()) {
    const Ev e = heap.pop();
    ASSERT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(EventHeap, ClearEmpties) {
  EventHeap<Ev> heap;
  heap.push({1, 1});
  heap.clear();
  EXPECT_TRUE(heap.empty());
}

using PopLog = std::vector<std::pair<TimeNs, int>>;

PopLog drain(EventHeap<Ev>& heap) {
  PopLog log;
  while (!heap.empty()) {
    const Ev e = heap.pop();
    log.emplace_back(e.time, e.tag);
  }
  return log;
}

TEST(EventHeap, FifoAmongSameTickEvents) {
  EventHeap<Ev> heap;
  // Enough colliding timestamps to force sift_up/sift_down tie handling,
  // interleaved across two ticks so parent/child comparisons see equal
  // times: a naive (time-only) heap would reorder these.
  for (int i = 0; i < 32; ++i) heap.push(Ev{i % 2 == 0 ? 10 : 20, i});
  const PopLog log = drain(heap);
  ASSERT_EQ(log.size(), 32u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)],
              (std::pair<TimeNs, int>{10, 2 * i}))
        << "tick 10, position " << i;
    EXPECT_EQ(log[static_cast<std::size_t>(i) + 16],
              (std::pair<TimeNs, int>{20, 2 * i + 1}))
        << "tick 20, position " << i;
  }
}

// clear() must reset the insertion sequence as well as the storage: a
// cleared queue replays a schedule bit-identically to a fresh one.
PopLog replay_schedule(EventHeap<Ev>& heap) {
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    heap.push(Ev{static_cast<TimeNs>(rng.below(32)), i});  // dense tie field
  }
  return drain(heap);
}

TEST(EventHeap, ClearResetsToFreshState) {
  EventHeap<Ev> heap;
  const PopLog fresh = replay_schedule(heap);
  heap.push(Ev{999, -1});
  heap.clear();
  EXPECT_TRUE(heap.empty());
  const PopLog replay = replay_schedule(heap);
  EXPECT_EQ(fresh, replay);
}

// ------------------------------------------------------------------- NPU ---

/// Sends every packet to a fixed core — lets tests aim traffic precisely.
class PinnedScheduler final : public Scheduler {
 public:
  explicit PinnedScheduler(CoreId core) : core_(core) {}
  void attach(std::size_t) override {}
  CoreId schedule(const SimPacket&, const NpuView&) override { return core_; }
  std::string name() const override { return "Pinned"; }

 private:
  CoreId core_;
};

/// Alternates between two cores per packet — guarantees flow migrations.
class PingPongScheduler final : public Scheduler {
 public:
  void attach(std::size_t) override {}
  CoreId schedule(const SimPacket&, const NpuView&) override {
    return (flip_ = !flip_) ? 0 : 1;
  }
  std::string name() const override { return "PingPong"; }

 private:
  bool flip_ = false;
};

ScenarioConfig tiny_scenario(double mpps, double seconds,
                             std::size_t cores = 2,
                             ServicePath path = ServicePath::kIpForward,
                             std::size_t flows = 50) {
  ScenarioConfig cfg;
  cfg.name = "tiny";
  cfg.num_cores = cores;
  cfg.seconds = seconds;
  cfg.seed = 1234;
  ServiceTraffic s;
  s.path = path;
  s.rate = HoltWintersParams{mpps, 0.0, 0.0, 10.0, 0.0};
  SyntheticTraceSpec spec;
  spec.num_flows = flows;
  spec.seed = 77;
  spec.size_bytes = {64};
  spec.size_weights = {1.0};
  s.trace = std::make_shared<SyntheticTrace>(spec);
  cfg.services = {s};
  return cfg;
}

TEST(Npu, RejectsBadConfig) {
  PinnedScheduler sched(0);
  NpuConfig cfg;
  cfg.num_cores = 0;
  EXPECT_THROW(Npu(cfg, sched), std::invalid_argument);
  cfg.num_cores = 2;
  cfg.queue_capacity = 0;
  EXPECT_THROW(Npu(cfg, sched), std::invalid_argument);
}

TEST(Npu, ConservationOfferedEqualsDeliveredPlusDropped) {
  PinnedScheduler sched(0);
  // 3 Mpps onto ONE core that can do 2 Mpps -> heavy drops, all accounted.
  const auto report = run_scenario(tiny_scenario(3.0, 0.01), sched);
  EXPECT_GT(report.offered, 0u);
  EXPECT_GT(report.dropped, 0u);
  EXPECT_EQ(report.offered, report.delivered + report.dropped);
}

TEST(Npu, NoDropsUnderLightLoad) {
  PinnedScheduler sched(0);
  // 0.5 Mpps onto one core with 2 Mpps capacity.
  const auto report = run_scenario(tiny_scenario(0.5, 0.01), sched);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.offered, report.delivered);
}

TEST(Npu, SingleCoreFifoNeverReorders) {
  PinnedScheduler sched(0);
  const auto report = run_scenario(tiny_scenario(1.5, 0.01), sched);
  EXPECT_EQ(report.out_of_order, 0u) << "a single FIFO core preserves order";
  EXPECT_EQ(report.flow_migrations, 0u);
  EXPECT_EQ(report.fm_penalties, 0u);
}

TEST(Npu, SameServiceNeverColdCache) {
  PinnedScheduler sched(0);
  const auto report = run_scenario(tiny_scenario(1.0, 0.01), sched);
  EXPECT_EQ(report.cold_cache_events, 0u);
}

TEST(Npu, PingPongChargesMigrationPenalties) {
  PingPongScheduler sched;
  // Single heavy flow: every consecutive pair lands on different cores.
  auto cfg = tiny_scenario(1.0, 0.005, /*cores=*/2, ServicePath::kIpForward,
                           /*flows=*/1);
  const auto report = run_scenario(cfg, sched);
  EXPECT_GT(report.flow_migrations, report.offered / 2);
  EXPECT_GT(report.fm_penalties, 0u);
  // With both cores lightly loaded and equal service times the pattern
  // stays in order... but queueing jitter can reorder; just assert the
  // penalty accounting, which is deterministic.
  EXPECT_EQ(report.cold_cache_events, 0u);
}

TEST(Npu, PingPongOnOverloadReorders) {
  PingPongScheduler sched;
  auto cfg = tiny_scenario(3.5, 0.01, 2, ServicePath::kIpForward, 1);
  const auto report = run_scenario(cfg, sched);
  // One queue drains ahead of the other under pressure: reordering is
  // unavoidable for an interleaved single flow.
  EXPECT_GT(report.out_of_order, 0u);
}

TEST(Npu, ColdCachePenaltyChargedOnServiceSwitch) {
  // Two services pinned to the same core: every switch costs 10 us.
  ScenarioConfig cfg = tiny_scenario(0.2, 0.01, 1);
  ServiceTraffic other = cfg.services[0];
  other.path = ServicePath::kMalwareScan;
  SyntheticTraceSpec spec;
  spec.num_flows = 50;
  spec.seed = 99;
  other.trace = std::make_shared<SyntheticTrace>(spec);
  cfg.services.push_back(other);

  PinnedScheduler sched(0);
  const auto report = run_scenario(cfg, sched);
  EXPECT_GT(report.cold_cache_events, 0u);
  EXPECT_GT(report.cold_cache_ratio(), 0.2)
      << "alternating services should switch often";
}

TEST(Npu, LatencyIncludesQueueing) {
  PinnedScheduler sched(0);
  // Light load: latency ~= service time (0.5 us for 64 B IP forwarding).
  const auto light = run_scenario(tiny_scenario(0.1, 0.01), sched);
  EXPECT_GE(light.latency_ns.quantile(0.5), from_us(0.5) - 32);
  // Overload: p99 latency far above service time (queue of 32 * 0.5 us).
  const auto heavy = run_scenario(tiny_scenario(4.0, 0.01), sched);
  EXPECT_GT(heavy.latency_ns.quantile(0.99), from_us(8.0));
}

TEST(Npu, UtilizationBoundedAndSaturates) {
  PinnedScheduler pinned(0);
  const auto idle = run_scenario(tiny_scenario(0.1, 0.01), pinned);
  EXPECT_GT(idle.mean_core_utilization, 0.0);
  EXPECT_LT(idle.mean_core_utilization, 0.2);

  const auto busy = run_scenario(tiny_scenario(5.0, 0.01), pinned);
  // One of two cores saturated -> mean ~0.5.
  EXPECT_GT(busy.mean_core_utilization, 0.4);
  EXPECT_LE(busy.mean_core_utilization, 1.0);
}

TEST(Npu, ThroughputMatchesDeliveredOverTime) {
  PinnedScheduler sched(0);
  const auto report = run_scenario(tiny_scenario(1.0, 0.02), sched);
  EXPECT_NEAR(report.throughput_mpps(), 1.0, 0.1);
}

TEST(Npu, DropsAttributedToService) {
  PinnedScheduler sched(0);
  const auto report = run_scenario(tiny_scenario(4.0, 0.01), sched);
  EXPECT_EQ(report.dropped_by_service[static_cast<std::size_t>(
                ServicePath::kIpForward)],
            report.dropped);
}

TEST(Npu, InvalidCoreIdFromSchedulerThrows) {
  class BadScheduler final : public Scheduler {
   public:
    void attach(std::size_t) override {}
    CoreId schedule(const SimPacket&, const NpuView&) override { return 99; }
    std::string name() const override { return "Bad"; }
  };
  BadScheduler sched;
  EXPECT_THROW(run_scenario(tiny_scenario(1.0, 0.001), sched),
               std::logic_error);
}

TEST(Npu, DeterministicAcrossRuns) {
  PinnedScheduler a(0), b(0);
  const auto cfg = tiny_scenario(2.0, 0.01);
  const auto ra = run_scenario(cfg, a);
  const auto rb = run_scenario(cfg, b);
  EXPECT_EQ(ra.offered, rb.offered);
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_EQ(ra.dropped, rb.dropped);
  EXPECT_EQ(ra.out_of_order, rb.out_of_order);
  EXPECT_EQ(ra.latency_ns.sum(), rb.latency_ns.sum());
}

TEST(Npu, ViewExposesIdleSince) {
  // Scheduler-side probe: cores start idle at t=0 and become busy.
  class ProbeScheduler final : public Scheduler {
   public:
    void attach(std::size_t) override {}
    CoreId schedule(const SimPacket&, const NpuView& view) override {
      if (first_) {
        EXPECT_EQ(view.cores()[0].idle_since, 0);
        first_ = false;
      } else {
        saw_busy_ |= view.cores()[0].busy;
      }
      return 0;
    }
    std::string name() const override { return "Probe"; }
    bool saw_busy_ = false;

   private:
    bool first_ = true;
  };
  ProbeScheduler sched;
  run_scenario(tiny_scenario(2.0, 0.005), sched);
  EXPECT_TRUE(sched.saw_busy_);
}

// ---------------------------------------------------------- ReorderBuffer ---

TEST(ReorderBuffer, InOrderStreamPassesThroughUnbuffered) {
  ReorderBuffer rob;
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    const auto out = rob.on_complete(7, seq, 100 * seq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].seq, seq);
    EXPECT_EQ(out[0].held_ns, 0);
  }
  EXPECT_EQ(rob.occupancy(), 0u);
  EXPECT_EQ(rob.buffered_total(), 0u);
  EXPECT_EQ(rob.released_total(), 5u);
  EXPECT_EQ(rob.disordered_flows(), 0u);
}

TEST(ReorderBuffer, GapHoldsSuccessorsThenReleasesInFlowOrder) {
  ReorderBuffer rob;
  // seq 1 and 2 complete while 0 is still in flight: both held.
  EXPECT_TRUE(rob.on_complete(3, 1, 100).empty());
  EXPECT_TRUE(rob.on_complete(3, 2, 200).empty());
  EXPECT_EQ(rob.occupancy(), 2u);
  EXPECT_EQ(rob.max_occupancy(), 2u);
  // seq 0 completes: all three leave, in order, with hold times.
  const auto out = rob.on_complete(3, 0, 500);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[0].held_ns, 0);
  EXPECT_EQ(out[1].seq, 1u);
  EXPECT_EQ(out[1].held_ns, 400);
  EXPECT_EQ(out[2].seq, 2u);
  EXPECT_EQ(out[2].held_ns, 300);
  EXPECT_EQ(rob.occupancy(), 0u);
  EXPECT_EQ(rob.buffered_total(), 2u);
  EXPECT_EQ(rob.released_total(), 3u);
  EXPECT_EQ(rob.total_held_ns(), 700);
  EXPECT_EQ(rob.disordered_flows(), 0u) << "flow state reclaimed";
}

TEST(ReorderBuffer, DropOfGapHeadReleasesHeldSuccessors) {
  // The mid-window drop case: a full ingress queue drops the packet the
  // window head is waiting for. Held successors must flow out immediately;
  // the buffer must never wait for a packet that will not arrive.
  ReorderBuffer rob;
  EXPECT_TRUE(rob.on_complete(9, 1, 10).empty());
  EXPECT_TRUE(rob.on_complete(9, 2, 20).empty());
  EXPECT_EQ(rob.occupancy(), 2u);
  const auto out = rob.on_drop(9, 0, 50);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 2u);
  EXPECT_EQ(rob.occupancy(), 0u);
  EXPECT_EQ(rob.released_total(), 2u);
}

TEST(ReorderBuffer, DropRecordedAheadIsSkippedWhenReached) {
  ReorderBuffer rob;
  // seq 1 is dropped before 0 even completes (queue-full on arrival order
  // is not release order). Nothing releasable yet.
  EXPECT_TRUE(rob.on_drop(4, 1, 5).empty());
  // seq 0 completes: releases 0, then skips the dropped 1.
  const auto out = rob.on_complete(4, 0, 30);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 0u);
  // seq 2 is now the expected head and passes straight through.
  const auto out2 = rob.on_complete(4, 2, 40);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0].seq, 2u);
  EXPECT_EQ(rob.disordered_flows(), 0u);
}

TEST(ReorderBuffer, InterleavedFlowsAreIndependent) {
  ReorderBuffer rob;
  EXPECT_TRUE(rob.on_complete(0, 1, 10).empty());  // flow 0 has a gap
  const auto f1 = rob.on_complete(1, 0, 20);       // flow 1 is in order
  ASSERT_EQ(f1.size(), 1u);
  EXPECT_EQ(f1[0].gflow, 1u);
  const auto f0 = rob.on_complete(0, 0, 30);
  ASSERT_EQ(f0.size(), 2u);
  EXPECT_EQ(f0[0].gflow, 0u);
  EXPECT_EQ(rob.occupancy(), 0u);
}

TEST(Npu, RestoreOrderZeroesOooUnderPingPongOverload) {
  // The order-restoration counterpart of PingPongOnOverloadReorders: same
  // adversarial scheduler and overload, but completions route through the
  // egress ReorderBuffer — the wire must see zero reordering, and the ROB
  // stats must account for every delivered packet.
  PingPongScheduler sched;
  auto cfg = tiny_scenario(3.5, 0.01, 2, ServicePath::kIpForward, 1);
  cfg.restore_order = true;
  const auto report = run_scenario(cfg, sched);
  EXPECT_GT(report.dropped, 0u) << "overload must drop (exercises on_drop)";
  EXPECT_EQ(report.out_of_order, 0u);
  EXPECT_GT(report.extra.at("rob_max_occupancy"), 0.0)
      << "an interleaved flow must actually be buffered";
  EXPECT_GT(report.extra.at("rob_buffered_packets"), 0.0);
  // The run drains all in-flight work past the horizon, so nothing can be
  // stranded: everything delivered left through the buffer.
  EXPECT_EQ(report.extra.at("rob_stranded_packets"), 0.0);
  EXPECT_EQ(static_cast<std::uint64_t>(
                report.extra.at("rob_released_packets")),
            report.delivered);
}

TEST(Npu, RestoreOrderIsFreeForSingleFifoCore) {
  // A pinned single core never reorders, so the ROB should pass everything
  // straight through: no buffering, no holds.
  PinnedScheduler sched(0);
  auto cfg = tiny_scenario(1.5, 0.01);
  cfg.restore_order = true;
  const auto report = run_scenario(cfg, sched);
  EXPECT_EQ(report.out_of_order, 0u);
  EXPECT_EQ(report.extra.at("rob_buffered_packets"), 0.0);
  EXPECT_EQ(report.extra.at("rob_max_occupancy"), 0.0);
  EXPECT_EQ(report.extra.at("rob_mean_held_us"), 0.0);
  EXPECT_EQ(static_cast<std::uint64_t>(
                report.extra.at("rob_released_packets")),
            report.delivered);
}

TEST(SimReport, RatioGuardsAgainstEmpty) {
  SimReport r;
  EXPECT_EQ(r.drop_ratio(), 0.0);
  EXPECT_EQ(r.ooo_ratio(), 0.0);
  EXPECT_EQ(r.cold_cache_ratio(), 0.0);
  EXPECT_EQ(r.throughput_mpps(), 0.0);
}

TEST(SimReport, SummaryContainsSchedulerName) {
  SimReport r;
  r.scheduler = "LAPS";
  r.scenario = "T1";
  EXPECT_NE(r.summary().find("LAPS"), std::string::npos);
  EXPECT_NE(r.summary().find("T1"), std::string::npos);
}

TEST(RunScenario, RejectsEmptyServices) {
  PinnedScheduler sched(0);
  ScenarioConfig cfg;
  EXPECT_THROW(run_scenario(cfg, sched), std::invalid_argument);
}

}  // namespace
}  // namespace laps
