// Property-based suites: invariants that must hold for every scheduler,
// every seed, and randomized operation sequences — the sweeps that catch
// what example-based tests miss.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/adaptive_hash.h"
#include "baselines/afs.h"
#include "baselines/batch.h"
#include "baselines/fcfs.h"
#include "baselines/oracle_topk.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "core/map_table.h"
#include "sim/scenarios.h"
#include "trace/synthetic.h"

namespace laps {
namespace {

// ------------------------------------------------ universal sim invariants ---

enum class SchedulerKind {
  kFcfs,
  kStaticHash,
  kAfs,
  kOracle,
  kAdaptive,
  kCombined,
  kLaps,
  kLapsGated,
};

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kStaticHash:
      return std::make_unique<StaticHashScheduler>();
    case SchedulerKind::kAfs: return std::make_unique<AfsScheduler>();
    case SchedulerKind::kOracle:
      return std::make_unique<OracleTopKScheduler>(16);
    case SchedulerKind::kAdaptive:
      return std::make_unique<AdaptiveHashScheduler>();
    case SchedulerKind::kCombined:
      return std::make_unique<CombinedAdaptiveScheduler>();
    case SchedulerKind::kLaps: {
      LapsConfig cfg;
      cfg.num_services = kNumServices;
      return std::make_unique<LapsScheduler>(cfg);
    }
    case SchedulerKind::kLapsGated: {
      LapsConfig cfg;
      cfg.num_services = kNumServices;
      cfg.power_gating = true;
      return std::make_unique<LapsScheduler>(cfg);
    }
  }
  return nullptr;
}

std::string kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return "Fcfs";
    case SchedulerKind::kStaticHash: return "StaticHash";
    case SchedulerKind::kAfs: return "Afs";
    case SchedulerKind::kOracle: return "Oracle";
    case SchedulerKind::kAdaptive: return "Adaptive";
    case SchedulerKind::kCombined: return "Combined";
    case SchedulerKind::kLaps: return "Laps";
    case SchedulerKind::kLapsGated: return "LapsGated";
  }
  return "?";
}

class EverySchedulerInvariants
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, int>> {};

TEST_P(EverySchedulerInvariants, ConservationOrderAndDeterminism) {
  const auto [kind, seed] = GetParam();
  ScenarioOptions options;
  options.seconds = 0.01;
  options.seed = static_cast<std::uint64_t>(seed);
  // Overload scenario stresses every code path (drops, migration,
  // reallocation).
  const auto cfg = make_paper_scenario("T5", options);

  auto sched_a = make_scheduler(kind);
  const auto a = run_scenario(cfg, *sched_a);

  // Conservation: every offered packet is delivered or dropped.
  EXPECT_EQ(a.offered, a.delivered + a.dropped);
  // Per-service accounting adds up.
  std::uint64_t offered_sum = 0, dropped_sum = 0;
  for (std::size_t s = 0; s < kNumServices; ++s) {
    offered_sum += a.offered_by_service[s];
    dropped_sum += a.dropped_by_service[s];
  }
  EXPECT_EQ(offered_sum, a.offered);
  EXPECT_EQ(dropped_sum, a.dropped);
  // Latency recorded for every delivered packet.
  EXPECT_EQ(a.latency_ns.count(), a.delivered);
  // Out-of-order cannot exceed deliveries; utilization is a fraction.
  EXPECT_LE(a.out_of_order, a.delivered);
  EXPECT_GE(a.mean_core_utilization, 0.0);
  EXPECT_LE(a.mean_core_utilization, 1.0);

  // Determinism: a fresh scheduler on the same config reproduces exactly.
  auto sched_b = make_scheduler(kind);
  const auto b = run_scenario(cfg, *sched_b);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.out_of_order, b.out_of_order);
  EXPECT_EQ(a.flow_migrations, b.flow_migrations);
  EXPECT_EQ(a.cold_cache_events, b.cold_cache_events);
  EXPECT_EQ(a.latency_ns.sum(), b.latency_ns.sum());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, EverySchedulerInvariants,
    ::testing::Combine(::testing::Values(SchedulerKind::kFcfs,
                                         SchedulerKind::kStaticHash,
                                         SchedulerKind::kAfs,
                                         SchedulerKind::kOracle,
                                         SchedulerKind::kAdaptive,
                                         SchedulerKind::kCombined,
                                         SchedulerKind::kLaps,
                                         SchedulerKind::kLapsGated),
                       ::testing::Values(1, 7)),
    [](const auto& info) {
      return kind_name(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Flow-affinity property: for every hash-based scheduler, two consecutive
// packets of the same flow with no intervening load change go to the same
// core.
class HashAffinity : public ::testing::TestWithParam<SchedulerKind> {};

class QuietView final : public NpuView {
 public:
  explicit QuietView(std::size_t n) : cores_(n) {
    for (auto& c : cores_) c.idle_since = -1;
  }
  TimeNs now() const override { return 0; }
  std::span<const CoreView> cores() const override {
    return {cores_.data(), cores_.size()};
  }
  std::uint32_t queue_capacity() const override { return 32; }

 private:
  std::vector<CoreView> cores_;
};

TEST_P(HashAffinity, SameFlowSameCoreWhenQuiet) {
  auto sched = make_scheduler(GetParam());
  sched->attach(8);
  QuietView view(8);
  SyntheticTraceSpec spec;
  spec.num_flows = 500;
  spec.seed = 17;
  SyntheticTrace trace(spec);
  std::map<std::uint32_t, CoreId> homes;
  for (int i = 0; i < 5'000; ++i) {
    const auto rec = trace.next();
    SimPacket pkt;
    pkt.tuple = rec->tuple;
    pkt.gflow = rec->flow_id;
    pkt.service = ServicePath::kIpForward;
    const CoreId core = sched->schedule(pkt, view);
    const auto [it, inserted] = homes.emplace(rec->flow_id, core);
    if (!inserted) {
      ASSERT_EQ(it->second, core) << "flow " << rec->flow_id << " moved "
                                  << "under zero load (" << sched->name()
                                  << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HashBased, HashAffinity,
                         ::testing::Values(SchedulerKind::kStaticHash,
                                           SchedulerKind::kAfs,
                                           SchedulerKind::kOracle,
                                           SchedulerKind::kAdaptive,
                                           SchedulerKind::kCombined,
                                           SchedulerKind::kLaps),
                         [](const auto& info) { return kind_name(info.param); });

// --------------------------------------------------- MapTable model check ---

TEST(MapTableProperty, RandomGrowShrinkAgainstInvariant) {
  // Under any interleaving of add/remove, every hash maps to a bucket in
  // range, b stays within [m, 2m), and grow disturbs only the split bucket.
  Rng rng(99);
  for (int round = 0; round < 30; ++round) {
    std::vector<CoreId> initial;
    const std::size_t n = 1 + rng.below(6);
    for (CoreId c = 0; c < n; ++c) initial.push_back(c);
    MapTable table(initial);
    CoreId next_core = static_cast<CoreId>(n);

    for (int step = 0; step < 60; ++step) {
      ASSERT_GE(table.size(), table.base());
      ASSERT_LT(table.size(), 2 * table.base());

      std::vector<std::size_t> before(4096);
      for (std::uint32_t h = 0; h < 4096; ++h) {
        const std::size_t idx = table.bucket_index(static_cast<std::uint16_t>(h));
        ASSERT_LT(idx, table.size());
        before[h] = idx;
      }

      if (rng.chance(0.5)) {
        const std::size_t split = table.size() - table.base();
        const std::size_t old_base = table.base();  // displacement uses the
        table.add_core(next_core++);                // pre-grow modulus
        for (std::uint32_t h = 0; h < 4096; ++h) {
          const std::size_t idx =
              table.bucket_index(static_cast<std::uint16_t>(h));
          if (before[h] == split) {
            ASSERT_TRUE(idx == before[h] || idx == before[h] + old_base);
          } else {
            ASSERT_EQ(idx, before[h]) << "non-split bucket moved";
          }
        }
      } else if (table.size() > 1) {
        const auto& buckets = table.buckets();
        const CoreId victim = buckets[rng.below(buckets.size())];
        table.remove_core(victim);
      }
    }
  }
}

// ----------------------------------------------- AFD vs reference model ---

TEST(AfdProperty, MatchesBruteForceTwoLevelModel) {
  // Replay a random stream through the AFD and through a direct
  // reimplementation of the paper's rules using plain containers.
  AfdConfig cfg;
  cfg.afc_entries = 4;
  cfg.annex_entries = 8;
  cfg.promote_threshold = 3;
  cfg.aging_period = 0;

  struct RefCache {
    // key -> (count, last_touch) with LFU+LRU eviction.
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> entries;
    std::size_t capacity;

    explicit RefCache(std::size_t cap) : capacity(cap) {}

    std::uint64_t* find(std::uint64_t key, std::uint64_t tick) {
      auto it = entries.find(key);
      if (it == entries.end()) return nullptr;
      it->second.second = tick;
      return &it->second.first;
    }
    /// Evicts the LFU entry (LRU among ties); returns {key, count}.
    std::pair<std::uint64_t, std::uint64_t> evict() {
      auto victim = entries.begin();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->second.first < victim->second.first ||
            (it->second.first == victim->second.first &&
             it->second.second < victim->second.second)) {
          victim = it;
        }
      }
      const auto out = std::make_pair(victim->first, victim->second.first);
      entries.erase(victim);
      return out;
    }
    void insert(std::uint64_t key, std::uint64_t count, std::uint64_t tick) {
      entries[key] = {count, tick};
    }
  };

  for (std::uint64_t seed : {3u, 14u, 159u}) {
    Afd afd(cfg);
    RefCache afc(4), annex(8);
    Rng rng(seed);
    std::uint64_t tick = 0;

    for (int i = 0; i < 20'000; ++i) {
      const std::uint64_t key = rng.below(40);  // small space forces churn
      ++tick;
      afd.access(key);
      // Reference model of Sec. III-F.
      if (auto* count = afc.find(key, tick)) {
        *count += 1;
      } else if (auto* annex_count = annex.find(key, tick)) {
        *annex_count += 1;
        if (*annex_count > cfg.promote_threshold) {
          const std::uint64_t promoted_count = *annex_count;
          annex.entries.erase(key);
          if (afc.entries.size() == 4) {
            // The AFC victim parks in the annex with its counter (victim-
            // cache behaviour), evicting the annex LFU if needed. The
            // promotion just freed an annex slot, so no eviction occurs
            // here in practice, but model it faithfully anyway.
            const auto [victim_key, victim_count] = afc.evict();
            if (annex.entries.size() == 8) annex.evict();
            annex.insert(victim_key, victim_count, tick);
          }
          afc.insert(key, promoted_count, tick);
        }
      } else {
        if (annex.entries.size() == 8) annex.evict();
        annex.insert(key, 1, tick);
      }
      // Membership must agree (counters are checked via behaviour).
      ASSERT_EQ(afd.is_aggressive(key), afc.entries.count(key) == 1)
          << "seed " << seed << " step " << i;
    }
  }
}

// ------------------------------------- randomized configs, ROB invariants ---

// Conservation and order-restoration invariants under *randomized* scenario
// shapes (cores, queue depth, horizon, load, service count), not just the
// paper's fixed tables. With the egress ReorderBuffer on, three things must
// hold for every scheduler and every configuration:
//   1. offered == delivered + dropped          (packet conservation)
//   2. out_of_order == 0                       (the ROB restores order)
//   3. rob_released + rob_stranded == delivered (every delivered packet
//      leaves through the buffer or is still held at the horizon)
TEST(RandomizedConfigProperty, ConservationAndRestoredOrderEverywhere) {
  const std::vector<std::pair<std::string,
                              std::function<std::unique_ptr<Scheduler>()>>>
      schedulers = {
          {"FCFS", [] { return std::make_unique<FcfsScheduler>(); }},
          {"AFS", [] { return std::make_unique<AfsScheduler>(); }},
          {"StaticHash", [] { return std::make_unique<StaticHashScheduler>(); }},
          {"Batch", [] { return std::make_unique<BatchScheduler>(); }},
      };

  Rng rng(20130806);
  const auto trace_names = trace_registry_names();
  for (int round = 0; round < 8; ++round) {
    ScenarioConfig cfg;
    cfg.name = "random" + std::to_string(round);
    const std::size_t num_services = 1 + rng.below(kNumServices);
    cfg.num_cores = num_services + 1 + rng.below(12);
    cfg.queue_capacity = static_cast<std::uint32_t>(4 + rng.below(61));
    cfg.seconds = 0.002 + 0.002 * rng.uniform();
    cfg.seed = rng.next();
    cfg.restore_order = true;
    // Aggregate offered load 50%-160% of a rough forwarding capacity, so
    // roughly half the rounds overload (drops exercise ReorderBuffer gaps).
    const double total_mpps =
        static_cast<double>(cfg.num_cores) * 2.0 * (0.5 + 1.1 * rng.uniform());
    for (std::size_t s = 0; s < num_services; ++s) {
      ServiceTraffic t;
      t.path = static_cast<ServicePath>(s);
      t.rate = HoltWintersParams{total_mpps / num_services, 0.0, 0.0, 60.0,
                                 0.0};
      t.trace = make_trace(trace_names[rng.below(trace_names.size())]);
      cfg.services.push_back(std::move(t));
    }

    for (const auto& [name, make] : schedulers) {
      auto scheduler = make();
      const SimReport r = run_scenario(cfg, *scheduler);
      const std::string ctx = cfg.name + "/" + name + " cores=" +
                              std::to_string(cfg.num_cores) + " q=" +
                              std::to_string(cfg.queue_capacity);
      ASSERT_EQ(r.offered, r.delivered + r.dropped) << ctx;
      ASSERT_EQ(r.out_of_order, 0u) << ctx;
      ASSERT_EQ(r.latency_ns.count(), r.delivered) << ctx;
      const double released = r.extra.at("rob_released_packets");
      const double stranded = r.extra.at("rob_stranded_packets");
      ASSERT_EQ(static_cast<std::uint64_t>(released + stranded), r.delivered)
          << ctx << " released=" << released << " stranded=" << stranded;
    }

    // LAPS partitions cores among services, so its num_services must match
    // the scenario's service count (paths 0..n-1 by construction above).
    LapsConfig laps_cfg;
    laps_cfg.num_services = num_services;
    LapsScheduler laps(laps_cfg);
    const SimReport r = run_scenario(cfg, laps);
    ASSERT_EQ(r.offered, r.delivered + r.dropped) << cfg.name << "/LAPS";
    ASSERT_EQ(r.out_of_order, 0u) << cfg.name << "/LAPS";
    ASSERT_EQ(static_cast<std::uint64_t>(r.extra.at("rob_released_packets") +
                                         r.extra.at("rob_stranded_packets")),
              r.delivered)
        << cfg.name << "/LAPS";
  }
}

// -------------------------------------------- Incremental hashing at scale ---

class DisruptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(DisruptionSweep, GrowMovesAtMostOneSplitBucketOfTraffic) {
  const int b = GetParam();
  std::vector<CoreId> cores;
  for (CoreId c = 0; c < static_cast<CoreId>(b); ++c) cores.push_back(c);
  MapTable table(cores);
  std::vector<std::size_t> before(65536);
  for (std::uint32_t h = 0; h < 65536; ++h) {
    before[h] = table.bucket_index(static_cast<std::uint16_t>(h));
  }
  table.add_core(static_cast<CoreId>(b));
  int moved = 0;
  for (std::uint32_t h = 0; h < 65536; ++h) {
    moved += before[h] != table.bucket_index(static_cast<std::uint16_t>(h));
  }
  // At most half of one split bucket's share of the hash space moves
  // (plus rounding): 65536 / (2 * base), where base is the pre-grow m.
  const double expected = 65536.0 / (2.0 * std::bit_floor(static_cast<unsigned>(b)));
  EXPECT_LE(moved, expected * 1.25 + 64) << "b=" << b;
  EXPECT_GT(moved, 0) << "b=" << b;
}

INSTANTIATE_TEST_SUITE_P(AllB, DisruptionSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16,
                                           24, 31, 32));

}  // namespace
}  // namespace laps
