// fig_cluster_dispatch: the NIC-side dispatcher comparison on the sharded
// multi-NP fabric (src/cluster). One trace is recorded once and replayed
// through every dispatcher row, so the rows differ ONLY in how the front
// end spreads flows across NPs:
//
//   pass      everything to shard 0 — the degenerate single-NP baseline
//   rr        packet-level round robin: best instantaneous balance, and
//             the reorder-maximizing wire (every multi-packet flow is
//             sprayed across NPs)
//   rss       Toeplitz receive-side scaling: flows never move, zero
//             cross-NP reordering by construction, but whatever imbalance
//             the hash deals is permanent
//   fdir      Flow Director-style signature table: collisions evict to the
//             least-loaded shard, trading a bounded amount of migration
//             (and thus cross-NP reordering) for balance
//   affinity  A-TFN-style in-flight-aware redirection: migrate an
//             overloaded flow only when nothing of it is in flight, so
//             migrations cannot reorder
//   load      least-loaded with immediate migration: the balance-greedy
//             upper bound on cross-NP reordering
//
// The table contrasts the paper's two metrics at cluster scope: load
// (drop%) against packet order (intra- vs cross-NP out-of-order), which is
// exactly the Fig. 7/9 trade-off lifted one level up the hierarchy.
//
// Usage: fig_cluster_dispatch [--shards=4] [--cores=4] [--seconds=0.02]
//                             [--seed=17] [--load=1.05] [--trace=caida1]
//                             [--cluster-sync=100us] [--jobs=1]
//                             [--dispatch=pass;rr;rss;fdir;affinity;load]
//                             [--scheduler=afs] [--json=PATH]
//
// --cores is per shard; --load is relative to the ideal capacity of ALL
// shards * cores, so shard counts compare at equal offered work.
// --dispatch takes semicolon-separated dispatcher registry specs
// (exp/dispatcher_registry.h, same fail-fast errors as --scheduler), one
// row each; --cluster-sync is the sync-window width (util::parse_duration:
// "100us", "1ms"). --jobs=N runs up to N dispatcher rows at once, each a
// lockstep run over its own fork of the recording (0 = hardware
// concurrency); the table and artifact keep the --dispatch order, and
// their bytes equal --jobs=1's. The binary parses its flags itself: the other
// binaries' shared observability, journal and fault flags have no cluster
// implementation, so they exit 1 as unknown flags instead of being ignored.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "exp/dispatcher_registry.h"
#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/scenarios.h"
#include "util/duration.h"
#include "util/fileio.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  const std::size_t shards = flags.get_uint("shards", 4);
  const std::size_t cores = flags.get_uint("cores", 4);
  const double seconds = flags.get_double("seconds", 0.02);
  const std::uint64_t seed = flags.get_uint("seed", 17);
  const double load = flags.get_double("load", 1.05);
  const std::string trace = flags.get_string("trace", "caida1");
  const std::string dispatch =
      flags.get_string("dispatch", "pass;rr;rss;fdir;affinity;load");
  const std::string sync = flags.get_string("cluster-sync", "");
  const std::size_t jobs = laps::resolve_jobs(flags.get_uint("jobs", 1));
  const std::string json_path = flags.get_string("json", "");
  const std::string scheduler_list = flags.get_string("scheduler", "");
  flags.finish();
  if (shards < 1) throw std::invalid_argument("--shards must be >= 1");
  if (cores < 1) throw std::invalid_argument("--cores must be >= 1");
  if (!json_path.empty()) laps::util::require_writable_dir("--json", json_path);

  // One scheduler spec for every shard of every row (fresh instance per
  // shard — shards are independent NPs). An empty list means the default,
  // as on the other binaries.
  const auto scheduler_specs = laps::parse_scheduler_list(
      scheduler_list.empty() ? "afs" : scheduler_list);
  if (scheduler_specs.size() != 1) {
    throw std::invalid_argument(
        "fig_cluster_dispatch wants exactly one --scheduler spec");
  }
  const laps::SchedulerSpec& scheduler = scheduler_specs[0];

  const std::vector<laps::DispatcherSpec> dispatchers =
      laps::parse_dispatcher_list(dispatch);

  // Load is calibrated against the whole cluster's ideal capacity, then the
  // stream is recorded once; every row forks the same recording.
  laps::ScenarioOptions options;
  options.seconds = seconds;
  options.seed = seed;
  options.num_cores = shards * cores;
  auto store = std::make_shared<laps::TraceStore>();
  options.trace_factory = store->factory();
  const laps::ScenarioConfig scenario =
      laps::make_single_service_scenario(trace, options, load);
  for (const laps::ServiceTraffic& s : scenario.services) s.trace->reset();
  laps::PacketGenerator generator(scenario.services, scenario.seed,
                                  scenario.seconds);
  laps::ReplayStream replay = laps::ReplayStream::record(generator);

  laps::ClusterConfig cluster;
  cluster.name = scenario.name;
  cluster.num_shards = shards;
  cluster.cores_per_shard = cores;
  cluster.queue_capacity = scenario.queue_capacity;
  cluster.delay = scenario.delay;
  cluster.make_scheduler = scheduler.make;
  if (!sync.empty()) {
    cluster.sync_ns = laps::util::parse_duration("--cluster-sync", sync);
    if (cluster.sync_ns <= 0) {
      throw std::invalid_argument("--cluster-sync must be > 0");
    }
  }

  std::printf("=== Cluster dispatch: %zu shards x %zu cores, %s @ %.2f load, "
              "%llu packets, scheduler %s ===\n\n",
              shards, cores, trace.c_str(), load,
              static_cast<unsigned long long>(replay.size()),
              scheduler.name.c_str());

  const std::vector<laps::ClusterReport> reports = laps::parallel_index_map(
      jobs, dispatchers.size(), [&](std::size_t i) {
        auto dispatcher = dispatchers[i].make();
        laps::ReplayStream stream = replay.fork();
        return laps::run_cluster(cluster, stream, *dispatcher);
      });
  laps::Table out({"dispatcher", "drop %", "intra-NP ooo %", "cross-NP ooo %",
                   "cross-NP migr", "Mpps"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const laps::ClusterReport& report = reports[i];
    out.add_row({dispatchers[i].display, laps::Table::pct(report.drop_ratio()),
                 laps::Table::pct(static_cast<double>(
                                      report.intra_np_out_of_order) /
                                  std::max<std::uint64_t>(report.delivered, 1)),
                 laps::Table::pct(report.cross_np_ooo_ratio()),
                 std::to_string(report.cross_np_migrations),
                 laps::Table::num(report.throughput_mpps(), 2)});
  }
  std::printf("%s\n", out.to_string().c_str());

  if (!json_path.empty()) {
    laps::JsonWriter w;
    w.begin_object();
    w.field("schema", "laps-cluster-grid-v1");
    w.field("tool", "fig_cluster_dispatch");
    w.key("reports");
    w.begin_array();
    for (const laps::ClusterReport& r : reports) {
      laps::write_cluster_report_json(w, r);
    }
    w.end_array();
    w.end_object();
    const std::string doc = w.str() + "\n";
    laps::util::write_file_atomic(json_path, doc, "cluster artifact");
    std::fprintf(stderr, "wrote JSON artifact: %s (%zu bytes)\n",
                 json_path.c_str(), doc.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return laps::guarded_main(argc, argv, run); }
