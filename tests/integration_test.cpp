// End-to-end integration tests: full simulations on the paper's scenarios,
// asserting the *shapes* the evaluation section reports (who wins, and
// roughly by how much). These are the same harnesses the bench binaries
// run, at shorter horizons.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/afs.h"
#include "baselines/fcfs.h"
#include "baselines/oracle_topk.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "exp/scheduler_registry.h"
#include "sim/report_json.h"
#include "sim/scenarios.h"

namespace laps {
namespace {

ScenarioOptions quick_options() {
  ScenarioOptions opt;
  opt.seconds = 0.05;
  opt.seed = 2013;
  return opt;
}

LapsConfig laps_multi_config() {
  LapsConfig cfg;
  cfg.num_services = 4;
  return cfg;
}

LapsConfig laps_single_config(std::size_t afc_entries = 16) {
  LapsConfig cfg;
  cfg.num_services = 1;
  cfg.afd.afc_entries = afc_entries;
  return cfg;
}

// ------------------------------------------------ Scenario construction ---

TEST(Scenarios, AllEightIdsBuild) {
  for (const std::string& id : paper_scenario_ids()) {
    const auto cfg = make_paper_scenario(id, quick_options());
    EXPECT_EQ(cfg.name, id);
    EXPECT_EQ(cfg.services.size(), kNumServices);
    EXPECT_EQ(cfg.num_cores, 16u);
  }
  EXPECT_THROW(make_paper_scenario("T9", quick_options()),
               std::invalid_argument);
  EXPECT_THROW(make_paper_scenario("bogus", quick_options()),
               std::invalid_argument);
}

TEST(Scenarios, Set1IsUnderloadSet2IsOverload) {
  const auto opt = quick_options();
  const auto t1 = make_paper_scenario("T1", opt);
  const auto t5 = make_paper_scenario("T5", opt);
  const double l1 =
      mean_offered_load(t1.services, t1.delay, t1.num_cores, opt.seconds);
  const double l5 =
      mean_offered_load(t5.services, t5.delay, t5.num_cores, opt.seconds);
  EXPECT_NEAR(l1, opt.load_set1, 0.01);
  EXPECT_NEAR(l5, opt.load_set2, 0.01);
}

TEST(Scenarios, Table5GroupsMatchPaper) {
  EXPECT_EQ(table5_group(1),
            (std::vector<std::string>{"caida1", "caida2", "caida3", "caida4"}));
  EXPECT_EQ(table5_group(2),
            (std::vector<std::string>{"caida5", "caida6", "caida2", "caida3"}));
  EXPECT_THROW(table5_group(5), std::invalid_argument);
}

// ------------------------------------------------------ Fig. 7 behaviour ---

struct Fig7Runs {
  SimReport fcfs;
  SimReport afs;
  SimReport laps;
};

Fig7Runs run_fig7(const std::string& id) {
  const auto cfg = make_paper_scenario(id, quick_options());
  Fig7Runs out;
  {
    FcfsScheduler sched;
    out.fcfs = run_scenario(cfg, sched);
  }
  {
    AfsScheduler sched;
    out.afs = run_scenario(cfg, sched);
  }
  {
    LapsScheduler sched(laps_multi_config());
    out.laps = run_scenario(cfg, sched);
  }
  return out;
}

TEST(Fig7Shape, UnderloadLapsPreservesICacheLocality) {
  const auto runs = run_fig7("T1");
  // Paper Fig. 7b: FCFS/AFS send mixed services everywhere (~60% cold),
  // LAPS partitions cores per service (near zero cold under-load).
  EXPECT_GT(runs.fcfs.cold_cache_ratio(), 0.35);
  EXPECT_GT(runs.afs.cold_cache_ratio(), 0.35);
  EXPECT_LT(runs.laps.cold_cache_ratio(), 0.05);
}

TEST(Fig7Shape, UnderloadLapsDropsFewerPackets) {
  const auto runs = run_fig7("T1");
  // Paper Fig. 7a: FCFS/AFS "drop packets even in under-load conditions"
  // because of cold-cache penalties; LAPS should drop (almost) none. At
  // this short 50 ms horizon LAPS still shows its start-up transient (the
  // equal initial core split takes ~10-20 ms of grants to match the skewed
  // service demands), so the bound is loose here; the Fig. 7 bench at
  // longer horizons shows the ratio collapsing toward zero.
  EXPECT_LT(runs.laps.drop_ratio(), 0.08);
  EXPECT_LT(runs.laps.drop_ratio(), runs.fcfs.drop_ratio() + 1e-12);
  EXPECT_LT(runs.laps.drop_ratio(), runs.afs.drop_ratio() + 1e-12);
}

TEST(Fig7Shape, LapsMinimizesOutOfOrder) {
  const auto runs = run_fig7("T5");  // overload: reordering pressure is real
  // Paper Fig. 7c: FCFS is far worse than either hash-based scheme (it
  // sprays flows across cores), and LAPS reordering stays tiny. The
  // LAPS-vs-AFS gap needs the steady state — at this 50 ms horizon LAPS is
  // still paying its core-allocation ramp — so the full ordering is
  // asserted by the Fig. 7 bench at longer horizons, not here.
  EXPECT_GT(runs.fcfs.ooo_ratio(), 50 * runs.laps.ooo_ratio());
  EXPECT_GT(runs.fcfs.ooo_ratio(), 50 * runs.afs.ooo_ratio());
  EXPECT_LT(runs.laps.ooo_ratio(), 0.005);
}

TEST(Fig7Shape, OverloadEveryoneDropsButLapsLeast) {
  const auto runs = run_fig7("T5");
  EXPECT_GT(runs.laps.dropped, 0u) << "Set 2 exceeds 16-core capacity";
  EXPECT_LE(runs.laps.drop_ratio(), runs.fcfs.drop_ratio());
  EXPECT_LE(runs.laps.drop_ratio(), runs.afs.drop_ratio());
}

TEST(Fig7Shape, AucklandScenarioSameOrdering) {
  const auto runs = run_fig7("T3");  // Set 1 x Auckland traces
  EXPECT_LT(runs.laps.cold_cache_ratio(), runs.afs.cold_cache_ratio());
  EXPECT_LE(runs.laps.drop_ratio(), runs.afs.drop_ratio() + 1e-12);
}

TEST(Fig7Shape, ConservationHoldsForAllSchedulers) {
  const auto runs = run_fig7("T6");
  for (const SimReport* r : {&runs.fcfs, &runs.afs, &runs.laps}) {
    EXPECT_EQ(r->offered, r->delivered + r->dropped) << r->scheduler;
  }
}

TEST(Fig7Shape, IdenticalTrafficAcrossSchedulers) {
  // The comparison is only fair if all three schedulers saw the same
  // packet stream (same seed, traces reset between runs).
  const auto runs = run_fig7("T2");
  EXPECT_EQ(runs.fcfs.offered, runs.afs.offered);
  EXPECT_EQ(runs.afs.offered, runs.laps.offered);
  EXPECT_EQ(runs.fcfs.offered_by_service, runs.laps.offered_by_service);
}

TEST(Fig7Shape, LapsDeterministicAcrossRuns) {
  const auto cfg = make_paper_scenario("T1", quick_options());
  LapsScheduler a(laps_multi_config()), b(laps_multi_config());
  const auto ra = run_scenario(cfg, a);
  const auto rb = run_scenario(cfg, b);
  EXPECT_EQ(ra.offered, rb.offered);
  EXPECT_EQ(ra.dropped, rb.dropped);
  EXPECT_EQ(ra.out_of_order, rb.out_of_order);
  EXPECT_EQ(ra.flow_migrations, rb.flow_migrations);
  EXPECT_EQ(ra.extra.at("core_transfers"), rb.extra.at("core_transfers"));
}

// ------------------------------------------------------ Fig. 9 behaviour ---

struct Fig9Runs {
  SimReport no_migration;
  SimReport afs;
  SimReport laps16;
};

Fig9Runs run_fig9(const std::string& trace) {
  ScenarioOptions opt;
  opt.seconds = 0.02;
  opt.seed = 99;
  const auto cfg = make_single_service_scenario(trace, opt, 1.05);
  Fig9Runs out;
  {
    StaticHashScheduler sched;
    out.no_migration = run_scenario(cfg, sched);
  }
  {
    AfsScheduler sched;
    out.afs = run_scenario(cfg, sched);
  }
  {
    LapsScheduler sched(laps_single_config(16));
    out.laps16 = run_scenario(cfg, sched);
  }
  return out;
}

TEST(Fig9Shape, NoMigrationDropsMost) {
  const auto runs = run_fig9("caida1");
  // Paper Fig. 9a: "a lot more packets are lost if we do not migrate any
  // flows".
  EXPECT_GT(runs.no_migration.drop_ratio(), runs.afs.drop_ratio());
  EXPECT_GT(runs.no_migration.drop_ratio(), runs.laps16.drop_ratio());
}

TEST(Fig9Shape, LapsCutsMigrationsVersusAfs) {
  const auto runs = run_fig9("caida1");
  // Paper Fig. 9c: ~80% fewer flow migrations when only top flows move.
  EXPECT_LT(static_cast<double>(runs.laps16.flow_migrations),
            0.5 * static_cast<double>(runs.afs.flow_migrations));
}

TEST(Fig9Shape, LapsCutsOutOfOrderVersusAfs) {
  const auto runs = run_fig9("caida1");
  // Paper Fig. 9b: ~85% fewer out-of-order packets.
  EXPECT_LT(static_cast<double>(runs.laps16.out_of_order),
            0.5 * static_cast<double>(runs.afs.out_of_order));
}

TEST(Fig9Shape, LapsThroughputCompetitiveWithAfs) {
  const auto runs = run_fig9("auck1");
  // Paper Fig. 9a: similar or better drops than AFS when the top flows are
  // migrated. Allow a modest tolerance band.
  EXPECT_LT(runs.laps16.drop_ratio(), runs.afs.drop_ratio() + 0.03);
}

TEST(Fig9Shape, MoreAfcEntriesMigrateMoreFlows) {
  ScenarioOptions opt;
  opt.seconds = 0.02;
  opt.seed = 7;
  const auto cfg = make_single_service_scenario("caida2", opt, 1.05);
  double migs_small = 0, migs_big = 0;
  {
    LapsScheduler sched(laps_single_config(4));
    migs_small = static_cast<double>(run_scenario(cfg, sched).flow_migrations);
  }
  {
    LapsScheduler sched(laps_single_config(16));
    migs_big = static_cast<double>(run_scenario(cfg, sched).flow_migrations);
  }
  EXPECT_LE(migs_small, migs_big * 1.5 + 100)
      << "a smaller AFC cannot migrate more flows by much";
}

// hash-migrate is StaticHash plus the AFD-pinned migration LAPS runs with
// one service, whose incremental hashing then degenerates to a static
// partition. Without faults the two make the same decisions, so their
// reports agree on every field but the scheduler's name and its own extra
// counters. (Core faults part them: see EXPERIMENTS.md, "Composed
// hybrids".)
TEST(Fig9Shape, HashMigrateEqualsSingleServiceLapsWithoutFaults) {
  ScenarioOptions opt;
  opt.seconds = 0.02;
  opt.seed = 99;
  for (const char* trace : {"caida1", "auck1"}) {
    SCOPED_TRACE(trace);
    const auto cfg = make_single_service_scenario(trace, opt, 1.05);
    SimReport hash_migrate = run_scenario(cfg, *make_scheduler("hash-migrate"));
    SimReport laps = run_scenario(cfg, *make_scheduler("laps:services=1"));
    EXPECT_GT(laps.flow_migrations, 0u);
    EXPECT_GT(laps.dropped, 0u);
    for (SimReport* r : {&hash_migrate, &laps}) {
      r->scheduler.clear();
      r->extra.clear();
    }
    EXPECT_EQ(report_to_json(hash_migrate), report_to_json(laps));
  }
}

TEST(Fig9Shape, OracleBehavesLikeLaps) {
  ScenarioOptions opt;
  opt.seconds = 0.02;
  opt.seed = 31;
  const auto cfg = make_single_service_scenario("auck2", opt, 1.05);
  SimReport oracle_report, afs_report;
  {
    OracleTopKScheduler sched(16);
    oracle_report = run_scenario(cfg, sched);
  }
  {
    AfsScheduler sched;
    afs_report = run_scenario(cfg, sched);
  }
  // The oracle (exact per-flow stats) migrates far fewer flows than AFS —
  // the premise LAPS approximates.
  EXPECT_LT(static_cast<double>(oracle_report.flow_migrations),
            0.5 * static_cast<double>(afs_report.flow_migrations));
}

// ------------------------------------------------- LAPS internals in vivo ---

TEST(LapsInVivo, CoreReallocationsHappenUnderShiftingLoad) {
  // Overload scenario: services outgrow their initial 4-core split, so the
  // allocator must transfer cores.
  const auto cfg = make_paper_scenario("T5", quick_options());
  LapsScheduler sched(laps_multi_config());
  const auto report = run_scenario(cfg, sched);
  EXPECT_GT(report.extra.at("core_requests"), 0.0);
  EXPECT_GT(report.extra.at("core_transfers"), 0.0);
}

TEST(LapsInVivo, AfdPromotesUnderRealTraffic) {
  const auto cfg = make_paper_scenario("T1", quick_options());
  LapsScheduler sched(laps_multi_config());
  const auto report = run_scenario(cfg, sched);
  EXPECT_GT(report.extra.at("afd_promotions"), 0.0);
  EXPECT_GT(report.extra.at("afd_afc_hits"), 0.0);
}

}  // namespace
}  // namespace laps
