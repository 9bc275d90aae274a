// perf_kernel: packets-per-second of the simulation kernel itself.
//
// Traffic is generated ONCE into a ReplayStream, then replayed through
// every kernel below, so the (dominant) cost of online packet generation is
// out of the timed loop and the numbers compare pure kernel throughput;
// every ratio is against the bare engine row:
//
//   engine         the SimEngine with NO probes attached — the bare
//                  discrete-event loop on its EventHeap completion queue,
//                  nothing measured
//   engine+report  the SimEngine with a ReportProbe, i.e. exactly what
//                  run_scenario does for every bench and test
//   engine+audit   the SimEngine with a FlowAuditProbe — exact per-flow
//                  attribution (--flow-audit); the hooks append to the
//                  probe's event log, and the timed run ends before that
//                  log is folded into per-flow rows, so this row prices
//                  the append alone (gated at <= 15% by
//                  scripts/compare_bench.py), not the fold
//   engine+flight  the SimEngine with a FlightRecorderProbe — the
//                  always-on postmortem ring (--flight-recorder)
//   engine+laps    the bare SimEngine driven by a real single-service
//                  LapsScheduler instead of the modulo spreader — the
//                  full policy cost (AFD access, surplus scan, map-table
//                  hash, migration-table lookup) on the kernel's fast
//                  path; gated at 2% by scripts/compare_bench.py so the
//                  policy/mechanism split cannot tax the scheduler
//   engine+telemetry  the SimEngine with a TelemetryProbe on 100 us
//                  epochs — the price of --telemetry (cached-cell counter
//                  bumps per packet plus gauge/snapshot work at epoch
//                  boundaries); gated at <= 5% by scripts/compare_bench.py
//   cluster+pass   run_cluster with ONE shard behind the pass dispatcher —
//                  the whole cluster fabric (stepping API, sync windows,
//                  egress merge, cross-NP detector) wrapped around the
//                  same engine+report work; its overhead over
//                  engine+report is the price of the coordination layer,
//                  and the row is gated at 2% by scripts/compare_bench.py
//   cluster+rss    run_cluster with four shards of cores/4 each behind
//                  Toeplitz RSS — the sharded fabric doing real front-end
//                  work (lockstep executor, so the number is mechanism
//                  cost, not parallel speedup)
//
// A deliberately trivial scheduler (gflow mod cores) keeps scheduling cost
// out of the measurement, so the comparison isolates what each probe or
// layer adds to the bare event loop.
//
// The workload is IP forwarding over a million-flow Zipf trace: large
// enough that per-flow state outgrows the cache, and representative of the
// paper's backbone traces. Repetitions interleave the kernels so
// machine noise hits all of them alike.
//
// Usage: perf_kernel [--seconds=0.02] [--reps=7] [--seed=3] [--cores=16]
//                    [--flows=1000000] [--rate-mpps=28]
//                    [--json=BENCH_kernel.json]
//
// The JSON artifact intentionally contains wall-clock measurements — it is
// a performance trajectory (BENCH_kernel.json), not a simulation result.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatchers.h"
#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "sim/engine.h"
#include "sim/flight_recorder.h"
#include "sim/flow_audit.h"
#include "sim/probes.h"
#include "sim/report_json.h"
#include "sim/runner.h"
#include "sim/telemetry.h"
#include "trace/synthetic.h"
#include "util/fileio.h"
#include "util/json_writer.h"
#include "util/tableio.h"

namespace {

using namespace laps;

/// gflow mod cores: the cheapest deterministic spreader possible, so the
/// measured time is the kernel, not the scheduler under test.
class ModuloScheduler final : public Scheduler {
 public:
  void attach(std::size_t num_cores) override { num_cores_ = num_cores; }
  CoreId schedule(const SimPacket& pkt, const NpuView&) override {
    return static_cast<CoreId>(pkt.gflow % num_cores_);
  }
  std::string name() const override { return "Modulo"; }

 private:
  std::size_t num_cores_ = 1;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Measurement {
  std::string variant;
  std::uint64_t packets = 0;  ///< packets per replayed run
  double best_seconds = 0.0;  ///< fastest repetition
  double mpps() const {
    return best_seconds > 0 ? static_cast<double>(packets) / best_seconds / 1e6
                            : 0.0;
  }
};

int run(Flags& flags) {
  const double seconds = flags.get_double("seconds", 0.02);
  const std::uint64_t seed = flags.get_uint("seed", 3);
  const std::size_t cores = flags.get_uint("cores", 16);
  const std::size_t flows = flags.get_uint("flows", 1'000'000);
  const double rate = flags.get_double("rate-mpps", 28.0);
  const std::size_t reps = flags.get_uint("reps", 7);
  const std::string json_path = parse_json_flag(flags);
  flags.finish();
  if (reps < 1) throw std::invalid_argument("--reps must be >= 1");

  // Constant-rate IP forwarding: high load keeps every core busy
  // (completions dominate the heap) without heavy drops. No churn, so the
  // generator's flow-id fast path applies while recording.
  SyntheticTraceSpec spec;
  spec.name = "perf";
  spec.num_flows = flows;
  spec.zipf_alpha = 1.02;
  spec.seed = 101;
  ServiceTraffic traffic;
  traffic.path = ServicePath::kIpForward;
  traffic.rate = HoltWintersParams{rate, 0.0, 0.0, 60.0, 0.0};
  traffic.trace = std::make_shared<SyntheticTrace>(spec);

  // Record the arrival stream once; every kernel replays identical traffic.
  PacketGenerator generator({traffic}, seed, seconds);
  ReplayStream replay = ReplayStream::record(generator);

  SimEngineConfig eng_cfg;
  eng_cfg.num_cores = cores;
  // The telemetry row needs epoch boundaries for its gauge/snapshot work —
  // that cost is part of what --telemetry charges, so it belongs in the row.
  SimEngineConfig telem_cfg = eng_cfg;
  telem_cfg.epoch_ns = 100 * kMicrosecond;

  Measurement engine{"engine"}, engine_report{"engine+report"},
      engine_audit{"engine+audit"}, engine_flight{"engine+flight"},
      engine_laps{"engine+laps"}, engine_telem{"engine+telemetry"},
      cluster_pass{"cluster+pass"}, cluster_rss{"cluster+rss"};
  engine.packets = engine_report.packets = engine_audit.packets =
      engine_flight.packets = engine_laps.packets = engine_telem.packets =
          cluster_pass.packets = cluster_rss.packets = replay.size();
  SimReport check_engine, check_cluster;

  /// Times one engine pass with `probe` attached (nullptr = bare engine).
  const auto time_engine_cfg = [&](const SimEngineConfig& cfg,
                                   SimProbe* probe) {
    ModuloScheduler sched;
    replay.rewind();
    ProbeSet probes;
    probes.add(probe);
    SimEngine kernel(cfg, sched, probes);
    const auto t0 = std::chrono::steady_clock::now();
    kernel.run(replay, "perf_kernel");
    return seconds_since(t0);
  };
  const auto time_engine_probe = [&](SimProbe* probe) {
    return time_engine_cfg(eng_cfg, probe);
  };
  const auto time_engine = [&]() { return time_engine_probe(nullptr); };
  const auto time_report = [&]() {
    ReportProbe probe;
    const double s = time_engine_probe(&probe);
    check_engine = probe.take_report();
    return s;
  };
  // Reused across reps so the event log keeps its steady-state pages — the
  // measured cost is the probe's per-event price, not the allocator warming
  // 32 MiB of fresh pages every rep. The fold into per-flow rows is
  // deferred to artifact time by design and runs after the timer stops
  // (the next rep's on_run_begin discards the unread log), so it is
  // outside the kernel row (see FlowAuditProbe docs).
  FlowAuditProbe audit_probe;
  const auto time_audit = [&]() { return time_engine_probe(&audit_probe); };
  const auto time_flight = [&]() {
    FlightRecorderProbe probe;  // default ring; dump is never written here
    return time_engine_probe(&probe);
  };
  // The full scheduling policy on the bare engine: replayed traffic is one
  // IP-forwarding service, so LAPS runs single-service (the Fig. 9 shape).
  const auto time_laps = [&]() {
    // Built via the registry (construction is outside the timed region);
    // the kernel.run path is identical either way.
    auto sched_ptr = make_scheduler("laps:services=1");
    Scheduler& sched = *sched_ptr;
    replay.rewind();
    SimEngine kernel(eng_cfg, sched);
    const auto t0 = std::chrono::steady_clock::now();
    kernel.run(replay, "perf_kernel");
    return seconds_since(t0);
  };
  // A fresh probe per rep (construction stays outside the timed region);
  // epochs come from telem_cfg, snapshots from the probe's default 100 us
  // interval.
  const auto time_telemetry = [&]() {
    TelemetryProbe probe;
    return time_engine_cfg(telem_cfg, &probe);
  };
  // The cluster fabric on replayed traffic. Engine construction happens
  // inside run_cluster and is therefore timed; at bench packet counts it is
  // noise, and including it keeps the row honest about what --shards costs
  // end to end. Streams fork the shared recording (no re-record, no copy).
  const auto time_cluster = [&](std::size_t shards, Dispatcher& dispatcher,
                                SimReport* check) {
    ClusterConfig cfg;
    cfg.name = "perf_kernel";
    cfg.num_shards = shards;
    cfg.cores_per_shard = cores / shards;
    cfg.make_scheduler = [] { return std::make_unique<ModuloScheduler>(); };
    ReplayStream stream = replay.fork();
    const auto t0 = std::chrono::steady_clock::now();
    ClusterReport rep = run_cluster(cfg, stream, dispatcher);
    const double s = seconds_since(t0);
    if (check != nullptr) *check = std::move(rep.shards[0]);
    return s;
  };
  const auto time_cluster_pass = [&]() {
    PassDispatcher pass;
    return time_cluster(1, pass, &check_cluster);
  };
  const auto time_cluster_rss = [&]() {
    RssDispatcher rss;
    return time_cluster(cores >= 4 ? 4 : 1, rss, nullptr);
  };

  // One warm-up pass, then `reps` interleaved passes (noise hits all the
  // kernels alike); best-of wins. The telemetry row runs right after the
  // report row, not after engine+laps: the laps pass is ~3.5x longer and
  // leaves enough cache/allocator wake to inflate whichever row follows
  // it by several points, and telemetry is the row with the tightest
  // budget (5%) riding on that comparison.
  time_engine();
  time_report();
  time_telemetry();
  time_audit();
  time_flight();
  time_laps();
  time_cluster_pass();
  time_cluster_rss();
  const auto keep_best = [](Measurement& m, double s, std::size_t r) {
    if (r == 0 || s < m.best_seconds) m.best_seconds = s;
  };
  for (std::size_t r = 0; r < reps; ++r) {
    keep_best(engine, time_engine(), r);
    keep_best(engine_report, time_report(), r);
    keep_best(engine_telem, time_telemetry(), r);
    keep_best(engine_audit, time_audit(), r);
    keep_best(engine_flight, time_flight(), r);
    keep_best(engine_laps, time_laps(), r);
    keep_best(cluster_pass, time_cluster_pass(), r);
    keep_best(cluster_rss, time_cluster_rss(), r);
  }

  // The one-shard pass-through cluster must BE the engine+report run — the
  // shards=1 identity contract, re-proven on every bench invocation.
  if (report_to_json(check_cluster) != report_to_json(check_engine)) {
    throw std::logic_error(
        "perf_kernel: cluster+pass shard report diverged from engine+report");
  }

  const auto overhead_vs_engine = [&](const Measurement& m) {
    return m.best_seconds / engine.best_seconds - 1.0;
  };
  const double probe_overhead = overhead_vs_engine(engine_report);
  const double audit_overhead = overhead_vs_engine(engine_audit);
  const double flight_overhead = overhead_vs_engine(engine_flight);
  const double telemetry_overhead = overhead_vs_engine(engine_telem);
  // Coordination cost of the cluster fabric over the identical simulation
  // work (engine+report is what one shard runs inside).
  const double cluster_pass_overhead =
      cluster_pass.best_seconds / engine_report.best_seconds - 1.0;

  const std::vector<const Measurement*> rows = {
      &engine,      &engine_report, &engine_audit, &engine_flight,
      &engine_laps, &engine_telem,  &cluster_pass, &cluster_rss};

  std::printf("=== Kernel throughput: %llu replayed packets/run, %zu cores, "
              "best of %zu ===\n\n",
              static_cast<unsigned long long>(engine.packets), cores, reps);
  Table out({"kernel", "wall ms", "Mpps", "vs engine"});
  for (const Measurement* m : rows) {
    out.add_row({m->variant, Table::num(m->best_seconds * 1e3, 2),
                 Table::num(m->mpps(), 2),
                 Table::num(engine.best_seconds / m->best_seconds, 2) + "x"});
  }
  std::printf("%s\n", out.to_string().c_str());
  std::printf("ReportProbe overhead over null probes: %.1f%%\n",
              probe_overhead * 100.0);
  std::printf("FlowAuditProbe overhead over null probes: %.1f%%\n",
              audit_overhead * 100.0);
  std::printf("FlightRecorderProbe overhead over null probes: %.1f%%\n",
              flight_overhead * 100.0);
  std::printf("TelemetryProbe overhead over null probes: %.1f%%\n",
              telemetry_overhead * 100.0);
  std::printf("Cluster fabric overhead over engine+report (1 shard, pass): "
              "%.1f%%\n",
              cluster_pass_overhead * 100.0);

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.field("schema", "laps-perf-v1");
    w.field("tool", "perf_kernel");
    w.field("packets_per_run", static_cast<std::int64_t>(engine.packets));
    w.field("reps", static_cast<std::int64_t>(reps));
    w.key("kernels");
    w.begin_array();
    for (const Measurement* m : rows) {
      w.begin_object();
      w.field("name", m->variant);
      w.field("best_seconds", m->best_seconds);
      w.field("mpps", m->mpps());
      w.end_object();
    }
    w.end_array();
    w.field("report_probe_overhead", probe_overhead);
    w.field("audit_probe_overhead", audit_overhead);
    w.field("flight_probe_overhead", flight_overhead);
    w.field("telemetry_probe_overhead", telemetry_overhead);
    w.field("cluster_pass_overhead", cluster_pass_overhead);
    w.end_object();
    const std::string doc = w.str() + "\n";
    laps::util::write_file_atomic(json_path, doc, "perf artifact");
    std::fprintf(stderr, "wrote perf artifact: %s\n",
                 json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return laps::guarded_main(argc, argv, run); }
