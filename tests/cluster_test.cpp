// Tests for the sharded multi-NP cluster fabric (src/cluster): the
// shards=1 pass-through identity against the single-engine path, the
// parallel-rows differential grid, fault isolation between shards, and the
// cross-NP accounting invariants.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatchers.h"
#include "exp/dispatcher_registry.h"
#include "exp/scheduler_registry.h"
#include "sim/fault.h"
#include "sim/report_json.h"
#include "sim/runner.h"
#include "trace/synthetic.h"
#include "traffic/generator.h"
#include "util/parallel.h"

namespace laps {
namespace {

// Small overloaded scenario (12 Mpps offered vs 4 x 2 Mpps IP-forward
// capacity): drops, deep queues, reordering, and load-balancing decisions
// all exercised in ~2 ms of simulated time.
ScenarioConfig small_scenario(std::uint64_t seed, bool restore_order,
                              double load_mpps = 12.0) {
  ScenarioConfig cfg;
  cfg.name = "cluster-test";
  cfg.num_cores = 4;
  cfg.queue_capacity = 8;
  cfg.seconds = 0.002;
  cfg.seed = seed;
  cfg.restore_order = restore_order;
  SyntheticTraceSpec spec;
  spec.name = "plain";
  spec.num_flows = 512;
  spec.seed = seed * 31 + 7;
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{load_mpps, 0.0, 0.0, 10.0, 0.0};
  s.trace = std::make_shared<SyntheticTrace>(spec);
  cfg.services = {s};
  return cfg;
}

ReplayStream record_traffic(const ScenarioConfig& cfg) {
  for (const ServiceTraffic& s : cfg.services) s.trace->reset();
  PacketGenerator gen(cfg.services, cfg.seed, cfg.seconds);
  return ReplayStream::record(gen);
}

ClusterConfig cluster_config(const ScenarioConfig& cfg, std::size_t shards) {
  ClusterConfig cluster;
  cluster.name = cfg.name;
  cluster.num_shards = shards;
  cluster.cores_per_shard = cfg.num_cores;
  cluster.queue_capacity = cfg.queue_capacity;
  cluster.delay = cfg.delay;
  cluster.restore_order = cfg.restore_order;
  cluster.make_scheduler = [] { return make_scheduler("afs"); };
  return cluster;
}

// Core-only fault slice: shard loses a core for most of the run.
std::shared_ptr<const FaultPlan> core_fault_plan() {
  return std::make_shared<const FaultPlan>(
      parse_fault_plan("down:1@300us;up:1@1500us"));
}

// ------------------------------------------------- shards=1 identity ---

// The acceptance bar of the cluster layer: one shard behind the pass
// dispatcher IS the single-engine path — byte-identical SimReport JSON,
// with and without order restoration and a fault plan (whose trailing-event
// and frozen-clock rules the stepping API must reproduce exactly).
TEST(ClusterIdentity, SingleShardPassMatchesEngineByteForByte) {
  for (const bool restore : {false, true}) {
    for (const bool faulted : {false, true}) {
      ScenarioConfig cfg = small_scenario(42, restore);
      if (faulted) cfg.faults = core_fault_plan();

      auto engine_sched = make_scheduler("afs");
      const std::string engine_json =
          report_to_json(run_scenario(cfg, *engine_sched));

      // run_scenario realizes traffic-side fault events by wrapping the
      // generator; mirror that exactly (core-only plans pass traffic
      // through unchanged, but the identity must not depend on that).
      for (const ServiceTraffic& s : cfg.services) s.trace->reset();
      PacketGenerator gen(cfg.services, cfg.seed, cfg.seconds);
      ClusterConfig cluster = cluster_config(cfg, 1);
      if (faulted) cluster.shard_faults = {cfg.faults};
      PassDispatcher pass;
      ClusterReport report;
      if (faulted) {
        FaultTrafficStream stream(gen, *cfg.faults);
        report = run_cluster(cluster, stream, pass);
      } else {
        report = run_cluster(cluster, gen, pass);
      }
      ASSERT_EQ(report.shards.size(), 1u);
      ASSERT_EQ(report_to_json(report.shards[0]), engine_json)
          << "restore=" << restore << " faulted=" << faulted;
      // The merged detector over one shard is the shard's own detector.
      EXPECT_EQ(report.cluster_out_of_order, report.shards[0].out_of_order);
      EXPECT_EQ(report.cross_np_out_of_order, 0u);
      EXPECT_EQ(report.cross_np_migrations, 0u);
    }
  }
}

TEST(ClusterIdentity, PassTargetsTheConfiguredShard) {
  const ScenarioConfig cfg = small_scenario(7, false);
  ReplayStream replay = record_traffic(cfg);
  ClusterConfig cluster = cluster_config(cfg, 2);
  PassDispatcher pass(1);
  ReplayStream run = replay.fork();
  const ClusterReport report = run_cluster(cluster, run, pass);
  EXPECT_EQ(report.shards[0].offered, 0u);
  EXPECT_EQ(report.shards[1].offered, report.offered);
  EXPECT_GT(report.offered, 0u);
}

// ------------------------------------------------- parallel rows grid ---

// Differential determinism: concurrent run_cluster calls (as
// fig_cluster_dispatch --jobs=N runs its rows) share one recording and one
// fault plan, and each dispatcher x shard-count x fault cell must report
// byte-identically to the same cells run one after another.
TEST(ClusterDifferential, ParallelRowsMatchSerialRowsByteForByte) {
  struct Cell {
    std::string dispatcher;
    std::size_t shards;
    bool faulted;
  };
  std::vector<Cell> cells;
  for (const bool faulted : {false, true}) {
    for (const char* spec :
         {"rss", "rr", "fdir:slots=64", "affinity:th=8", "load:th=8"}) {
      for (const std::size_t shards : {2u, 3u}) {
        cells.push_back({spec, shards, faulted});
      }
    }
  }
  const ScenarioConfig clean_cfg = small_scenario(2013, false);
  const ScenarioConfig faulted_cfg = small_scenario(1301, false);
  const ReplayStream clean = record_traffic(clean_cfg);
  const ReplayStream faulted = record_traffic(faulted_cfg);
  const std::shared_ptr<const FaultPlan> plan = core_fault_plan();
  const auto run_cell = [&](std::size_t i) {
    const Cell& cell = cells[i];
    ClusterConfig cluster =
        cluster_config(cell.faulted ? faulted_cfg : clean_cfg, cell.shards);
    if (cell.faulted) {
      cluster.shard_faults.assign(cell.shards, nullptr);
      cluster.shard_faults[0] = plan;
    }
    auto dispatcher = make_dispatcher(cell.dispatcher);
    ReplayStream run = (cell.faulted ? faulted : clean).fork();
    return cluster_report_to_json(run_cluster(cluster, run, *dispatcher));
  };
  const std::vector<std::string> serial =
      parallel_index_map(1, cells.size(), run_cell);
  const std::vector<std::string> parallel =
      parallel_index_map(4, cells.size(), run_cell);
  ASSERT_EQ(serial.size(), 20u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i])
        << "dispatch=" << cells[i].dispatcher << " shards=" << cells[i].shards
        << " faulted=" << cells[i].faulted;
  }
}

TEST(ClusterDifferential, RepeatRunsAreByteIdentical) {
  const ScenarioConfig cfg = small_scenario(99, false);
  ReplayStream replay = record_traffic(cfg);
  std::string first;
  for (int rep = 0; rep < 2; ++rep) {
    ClusterConfig cluster = cluster_config(cfg, 3);
    auto dispatcher = make_dispatcher("affinity:th=8");
    ReplayStream run = replay.fork();
    const std::string json =
        cluster_report_to_json(run_cluster(cluster, run, *dispatcher));
    if (rep == 0) {
      first = json;
    } else {
      ASSERT_EQ(json, first);
    }
  }
}

// ------------------------------------------------------ fault isolation ---

// Shards are independent NPs: a fault plan inside shard 0 must not perturb
// the sibling shards' reports at all. Valid for rss because its dispatch
// decisions ignore the load gauges — feedback dispatchers (load, affinity)
// legitimately re-route around a degraded shard.
TEST(ClusterChaos, ShardFaultsDoNotPerturbSiblingsUnderRss) {
  const ScenarioConfig cfg = small_scenario(555, false);
  ReplayStream replay = record_traffic(cfg);
  std::vector<std::string> healthy;
  for (const bool faulted : {false, true}) {
    ClusterConfig cluster = cluster_config(cfg, 3);
    if (faulted) {
      cluster.shard_faults.assign(3, nullptr);
      cluster.shard_faults[0] = core_fault_plan();
    }
    RssDispatcher rss;
    ReplayStream run = replay.fork();
    const ClusterReport report = run_cluster(cluster, run, rss);
    ASSERT_EQ(report.shards.size(), 3u);
    if (!faulted) {
      for (const SimReport& shard : report.shards) {
        healthy.push_back(report_to_json(shard));
      }
    } else {
      EXPECT_NE(report_to_json(report.shards[0]), healthy[0])
          << "fault plan had no effect on the faulted shard";
      EXPECT_EQ(report_to_json(report.shards[1]), healthy[1]);
      EXPECT_EQ(report_to_json(report.shards[2]), healthy[2]);
    }
  }
}

// ------------------------------------------------- accounting invariants ---

TEST(ClusterInvariants, ConservationAndOrderBounds) {
  const ScenarioConfig cfg = small_scenario(2718, false);
  ReplayStream replay = record_traffic(cfg);
  for (const std::string& spec :
       {std::string("rss"), std::string("rr"), std::string("fdir:slots=64"),
        std::string("affinity:th=8"), std::string("load:th=8")}) {
    ClusterConfig cluster = cluster_config(cfg, 3);
    auto dispatcher = make_dispatcher(spec);
    ReplayStream run = replay.fork();
    const ClusterReport report = run_cluster(cluster, run, *dispatcher);

    std::uint64_t shard_offered = 0;
    std::uint64_t shard_ooo = 0;
    for (const SimReport& shard : report.shards) {
      shard_offered += shard.offered;
      shard_ooo += shard.out_of_order;
      // Fully drained: every dispatched packet either departed or dropped.
      EXPECT_EQ(shard.offered, shard.delivered + shard.dropped) << spec;
      EXPECT_EQ(shard.in_flight_at_end, 0u) << spec;
    }
    EXPECT_EQ(report.offered, shard_offered) << spec;
    EXPECT_EQ(report.delivered + report.dropped, report.offered) << spec;
    EXPECT_EQ(report.intra_np_out_of_order, shard_ooo) << spec;
    // The merged egress is a supersequence of every shard's: the cluster
    // detector sees at least each shard's own inversions.
    EXPECT_GE(report.cluster_out_of_order, report.intra_np_out_of_order)
        << spec;
    EXPECT_EQ(report.cross_np_out_of_order,
              report.cluster_out_of_order - report.intra_np_out_of_order)
        << spec;
  }
}

TEST(ClusterInvariants, RssPinsFlowsToShards) {
  const ScenarioConfig cfg = small_scenario(31415, false);
  ReplayStream replay = record_traffic(cfg);
  ClusterConfig cluster = cluster_config(cfg, 4);
  RssDispatcher rss;
  ReplayStream run = replay.fork();
  const ClusterReport report = run_cluster(cluster, run, rss);
  // Hash dispatch never moves a flow between NPs, so all reordering is
  // intra-NP — the cluster-level detector must agree exactly.
  EXPECT_EQ(report.cross_np_migrations, 0u);
  EXPECT_EQ(report.cross_np_out_of_order, 0u);
  EXPECT_EQ(report.cluster_out_of_order, report.intra_np_out_of_order);
}

TEST(ClusterInvariants, RoundRobinSpraysFlowsAcrossShards) {
  const ScenarioConfig cfg = small_scenario(161803, false);
  ReplayStream replay = record_traffic(cfg);
  ClusterConfig cluster = cluster_config(cfg, 3);
  RoundRobinDispatcher rr;
  ReplayStream run = replay.fork();
  const ClusterReport report = run_cluster(cluster, run, rr);
  // Packet-level round robin scatters every multi-packet flow across NPs:
  // the reorder-maximizing baseline the NIC-side dispatchers exist to beat.
  EXPECT_GT(report.cross_np_migrations, 0u);
  EXPECT_GT(report.cross_np_out_of_order, 0u);
}

TEST(ClusterInvariants, DrainBlocksAffinityMigrations) {
  const ScenarioConfig cfg = small_scenario(27182, false);
  ReplayStream replay = record_traffic(cfg);
  ClusterConfig cluster = cluster_config(cfg, 3);
  AffinityDispatcher drain(/*migrate_threshold=*/0, /*drain=*/true);
  AffinityDispatcher nodrain(/*migrate_threshold=*/0, /*drain=*/false);
  ReplayStream run1 = replay.fork();
  const ClusterReport with_drain = run_cluster(cluster, run1, drain);
  ReplayStream run2 = replay.fork();
  const ClusterReport without = run_cluster(cluster, run2, nodrain);
  // In-flight-aware redirection is order-SAFE, not just order-friendly: a
  // drain-gated migration happens only when every prior packet of the flow
  // completed by the last barrier, so its old-shard departures all precede
  // the new packet's arrival — the A-TFN claim, exact: zero cross-NP
  // inversions no matter how many migrations fire. Dropping the gate
  // reintroduces them.
  EXPECT_GT(with_drain.extra.at("affinity_migrations"), 0.0);
  EXPECT_GT(with_drain.extra.at("affinity_blocked_migrations"), 0.0);
  EXPECT_EQ(with_drain.cross_np_out_of_order, 0u);
  EXPECT_GT(without.cross_np_out_of_order, 0u);
  EXPECT_LE(with_drain.cross_np_ooo_ratio(), without.cross_np_ooo_ratio());
}

// ------------------------------------------------------------ validation ---

TEST(ClusterValidation, BadConfigsThrow) {
  const ScenarioConfig cfg = small_scenario(1, false);
  ReplayStream replay = record_traffic(cfg);
  RssDispatcher rss;
  {
    ClusterConfig cluster = cluster_config(cfg, 2);
    cluster.num_shards = 0;
    ReplayStream run = replay.fork();
    EXPECT_THROW(run_cluster(cluster, run, rss), std::invalid_argument);
  }
  {
    ClusterConfig cluster = cluster_config(cfg, 2);
    cluster.sync_ns = 0;
    ReplayStream run = replay.fork();
    EXPECT_THROW(run_cluster(cluster, run, rss), std::invalid_argument);
  }
  {
    ClusterConfig cluster = cluster_config(cfg, 2);
    cluster.make_scheduler = nullptr;
    ReplayStream run = replay.fork();
    EXPECT_THROW(run_cluster(cluster, run, rss), std::invalid_argument);
  }
  {
    ClusterConfig cluster = cluster_config(cfg, 2);
    cluster.shard_faults.assign(1, nullptr);  // wrong arity
    ReplayStream run = replay.fork();
    EXPECT_THROW(run_cluster(cluster, run, rss), std::invalid_argument);
  }
  {
    // A pass target beyond the shard count is a config error at attach.
    ClusterConfig cluster = cluster_config(cfg, 2);
    PassDispatcher bad(5);
    ReplayStream run = replay.fork();
    EXPECT_THROW(run_cluster(cluster, run, bad), std::invalid_argument);
  }
}

TEST(ClusterValidation, ReportJsonShapeIsStable) {
  const ScenarioConfig cfg = small_scenario(3, false);
  ReplayStream replay = record_traffic(cfg);
  ClusterConfig cluster = cluster_config(cfg, 2);
  auto dispatcher = make_dispatcher("fdir:slots=64");
  ReplayStream run = replay.fork();
  const std::string json =
      cluster_report_to_json(run_cluster(cluster, run, *dispatcher));
  EXPECT_NE(json.find("\"schema\": \"laps-cluster-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"num_shards\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"fdir_inserts\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\": ["), std::string::npos);
}

}  // namespace
}  // namespace laps
