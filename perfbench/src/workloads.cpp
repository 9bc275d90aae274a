#include "workloads.h"

#include <algorithm>
#include <functional>
#include <map>
#include <stdexcept>
#include <utility>

#include "cluster/cluster.h"
#include "exp/dispatcher_registry.h"
#include "exp/experiment.h"
#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/probes.h"
#include "sim/report_json.h"
#include "sim/scenarios.h"

namespace perfbench {
namespace {

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<double>(elapsed_ns(t0, t1)) * 1e-9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One scheduler column of a grid: registry spec, the display name the
/// shipped command gives it ("" = the scheduler's own name), and the ledger
/// boundary its decisions are charged to.
struct SchedulerRow {
  std::string spec;
  std::string display;
  std::string boundary;
};

laps::SchedulerSpec make_spec(const SchedulerRow& row, Ledger* ledger,
                              const std::string& parent) {
  laps::SchedulerSpec spec = laps::make_scheduler_spec(row.spec, row.display);
  if (ledger == nullptr) return spec;
  Boundary& schedule = ledger->at(row.boundary, parent);
  auto make = spec.make;
  spec.make = [make, &schedule]() -> std::unique_ptr<laps::Scheduler> {
    return std::make_unique<TimedScheduler>(make(), schedule);
  };
  return spec;
}

/// Scenario options with the trace factory routed through the shared store
/// (and through a TimedTrace when traced), as the shipped commands do.
laps::ScenarioOptions make_options(
    double horizon_s, std::uint64_t seed, std::size_t cores,
    const std::shared_ptr<laps::TraceStore>& store, Ledger* ledger) {
  laps::ScenarioOptions o;
  o.seconds = horizon_s;
  o.seed = seed;
  o.num_cores = cores;
  o.trace_factory = store->factory();
  if (ledger != nullptr) {
    Boundary& next = ledger->at("trace.next", "traffic.gen");
    auto open = o.trace_factory;
    o.trace_factory = [open, &next](const std::string& name) {
      return std::shared_ptr<laps::TraceSource>(
          std::make_shared<TimedTrace>(open(name), next));
    };
  }
  return o;
}

laps::PacketGenerator make_generator(const laps::ScenarioConfig& cfg) {
  for (const laps::ServiceTraffic& s : cfg.services) s.trace->reset();
  return laps::PacketGenerator(cfg.services, cfg.seed, cfg.seconds);
}

/// Records the scenario's whole arrival stream (the generation cost the
/// replay workloads pay during setup).
laps::ReplayStream record(const laps::ScenarioConfig& cfg, Ledger* ledger) {
  laps::PacketGenerator generator = make_generator(cfg);
  if (ledger == nullptr) return laps::ReplayStream::record(generator);
  TimedStream timed(generator, ledger->at("traffic.gen", "traffic.record"));
  Span span(ledger->at("traffic.record", ""));
  return laps::ReplayStream::record(timed);
}

/// The steps run_scenario performs (SimEngine + ReportProbe over a stream)
/// with the stream supplied by the caller, so it can be a replay fork or a
/// generator the traced run wraps.
laps::SimReport run_engine(const laps::ScenarioConfig& cfg,
                           laps::Scheduler& scheduler,
                           laps::ArrivalStream& arrivals, Ledger* ledger,
                           const std::string& stream_boundary) {
  if (cfg.faults != nullptr) {
    throw std::invalid_argument("perfbench: fault plans are not supported");
  }
  laps::SimEngineConfig ec;
  ec.num_cores = cfg.num_cores;
  ec.queue_capacity = cfg.queue_capacity;
  ec.delay = cfg.delay;
  ec.restore_order = cfg.restore_order;
  ec.event_queue = cfg.event_queue;
  laps::ReportProbe report;
  laps::SimEngine engine(ec, scheduler, laps::ProbeSet{&report});
  if (ledger == nullptr) {
    engine.run(arrivals, cfg.name);
  } else {
    TimedStream timed(arrivals, ledger->at(stream_boundary, "sim.run"));
    Span span(ledger->at("sim.run", "exp.job"));
    engine.run(timed, cfg.name);
  }
  return report.take_report();
}

/// Charges each job body to exp.job, so the runner's own cost is
/// exp.run minus its jobs.
laps::ExperimentPlan::JobRunner traced_job(
    Ledger& ledger, laps::ExperimentPlan::JobRunner body) {
  Boundary& job = ledger.at("exp.job", "exp.run");
  return [&job, body](const laps::ScenarioConfig& cfg,
                      laps::Scheduler& scheduler) {
    Span span(job);
    return body(cfg, scheduler);
  };
}

/// Runs a plan on one inline worker and times run() alone.
PassResult run_plan(const laps::ExperimentPlan& plan, const std::string& tool,
                    Ledger* ledger) {
  laps::ParallelRunner runner(1);
  std::vector<laps::JobResult> results;
  const auto t0 = Clock::now();
  if (ledger == nullptr) {
    results = runner.run(plan);
  } else {
    Span span(ledger->at("exp.run", ""));
    results = runner.run(plan);
  }
  const auto t1 = Clock::now();
  PassResult out;
  out.host_seconds = seconds_between(t0, t1);
  out.cells = results.size();
  for (const laps::JobResult& r : results) {
    if (r.ok()) {
      out.offered += r.report.offered;
    } else {
      ++out.threw;
    }
  }
  out.artifact = laps::artifact_json(tool, results);
  return out;
}

void write_list(laps::JsonWriter& w, const std::string& key,
                const std::vector<std::string>& items) {
  w.key(key);
  w.begin_array();
  for (const std::string& item : items) w.value(item);
  w.end_array();
}

std::vector<std::string> specs_of(const std::vector<SchedulerRow>& rows) {
  std::vector<std::string> out;
  for (const SchedulerRow& row : rows) out.push_back(row.spec);
  return out;
}

constexpr std::size_t kCores = 16;
constexpr std::size_t kShards = 4;

/// fig_cluster_dispatch's front ends, in its row order.
std::vector<std::string> dispatcher_specs() {
  return {"pass", "rr", "rss", "fdir", "affinity", "load"};
}

/// fig_cluster_dispatch's cluster for `cfg`: its cores split over
/// `shards` NPs, lockstep executor, the --cluster-sync default.
laps::ClusterConfig cluster_config(const laps::ScenarioConfig& cfg,
                                   std::size_t shards) {
  laps::ClusterConfig cluster;
  cluster.name = cfg.name;
  cluster.num_shards = shards;
  cluster.cores_per_shard = cfg.num_cores / shards;
  cluster.queue_capacity = cfg.queue_capacity;
  cluster.delay = cfg.delay;
  cluster.event_queue = cfg.event_queue;
  cluster.threads = 1;
  cluster.sync_ns = 100 * laps::kMicrosecond;
  return cluster;
}

/// One cluster row: `dispatcher` in front of `cfg`'s shards, fed a fork of
/// `replay`.
laps::ClusterReport run_cluster_row(const laps::ClusterConfig& cfg,
                                    const laps::ReplayStream& replay,
                                    const std::string& dispatcher,
                                    Ledger* ledger) {
  auto front = laps::make_dispatcher(dispatcher);
  laps::ReplayStream stream = replay.fork();
  if (ledger == nullptr) return laps::run_cluster(cfg, stream, *front);
  TimedDispatcher timed(std::move(front),
                        ledger->at("cluster.pick." + dispatcher, "cluster.run"),
                        ledger->at("cluster.sync", "cluster.run"));
  TimedStream arrivals(stream, ledger->at("traffic.replay", "cluster.run"));
  Span span(ledger->at("cluster.run", ""));
  return laps::run_cluster(cfg, arrivals, timed);
}

// --- paper_online ----------------------------------------------------------

/// fig7_scheduler_comparison --scenarios=T1,T5 --jobs=1: Table VI T1
/// (Set 1, under-load) and T5 (Set 2, overload) on trace group G1, crossed
/// with FCFS/AFS/LAPS. Every cell generates its own traffic online from one
/// shared TraceStore.
class PaperOnline final : public Workload {
 public:
  explicit PaperOnline(std::uint64_t seed) : seed_(seed) {}

  void setup(Ledger* ledger) override {
    configs_.clear();
    auto store = std::make_shared<laps::TraceStore>();
    const laps::ScenarioOptions o =
        make_options(kHorizon, seed_, kCores, store, ledger);
    for (const std::string& id : scenarios()) {
      configs_.emplace(id, laps::make_paper_scenario(id, o));
    }
  }

  PassResult run_pass(Ledger* ledger) override {
    std::vector<laps::SchedulerSpec> specs;
    for (const SchedulerRow& row : rows()) {
      specs.push_back(make_spec(row, ledger, "sim.run"));
    }
    // Untraced cells take the plain run_scenario path of the shipped grid;
    // traced cells repeat its steps so the generator can be wrapped.
    laps::ExperimentPlan::JobRunner runner;
    if (ledger != nullptr) {
      runner = traced_job(*ledger, [ledger](const laps::ScenarioConfig& cfg,
                                            laps::Scheduler& scheduler) {
        laps::PacketGenerator generator = make_generator(cfg);
        return run_engine(cfg, scheduler, generator, ledger, "traffic.gen");
      });
    }
    const auto* configs = &configs_;
    laps::ExperimentPlan plan(seed_);
    plan.add_grid(
        scenarios(), specs, {seed_},
        [configs](const std::string& id, std::uint64_t) {
          return configs->at(id);
        },
        runner);
    return run_plan(plan, "fig7_scheduler_comparison", ledger);
  }

  std::vector<Recording> recordings(Ledger& ledger) override {
    std::vector<Recording> out;
    for (const std::string& id : scenarios()) {
      const laps::ScenarioConfig& cfg = configs_.at(id);
      out.push_back({cfg, record(cfg, &ledger)});
    }
    return out;
  }

  void describe(laps::JsonWriter& w) const override {
    w.field("mirrors", "fig7_scheduler_comparison --scenarios=T1,T5 --jobs=1");
    w.field("seed", seed_);
    w.field("horizon_s", kHorizon);
    w.field("cores", static_cast<std::uint64_t>(kCores));
    write_list(w, "scenarios", scenarios());
    write_list(w, "schedulers", specs_of(rows()));
    write_list(w, "dispatchers", {});
  }

 private:
  static constexpr double kHorizon = 0.25;  // the command's default
  static std::vector<std::string> scenarios() { return {"T1", "T5"}; }
  static std::vector<SchedulerRow> rows() {
    return {{"fcfs", "", "baselines.fcfs"},
            {"afs", "", "baselines.afs"},
            {"laps", "", "core.laps"}};
  }

  std::uint64_t seed_;
  std::map<std::string, laps::ScenarioConfig> configs_;
};

// --- laps_replay -----------------------------------------------------------

/// fig9_topk_migration --traces=auck1,auck2: one IP-forwarding service at
/// 1.05x ideal capacity. Each trace's arrivals are recorded once in setup
/// and every cell replays a fork of the recording.
class LapsReplay final : public Workload {
 public:
  explicit LapsReplay(std::uint64_t seed) : seed_(seed) {}

  void setup(Ledger* ledger) override {
    configs_.clear();
    replays_.clear();
    auto store = std::make_shared<laps::TraceStore>();
    const laps::ScenarioOptions o =
        make_options(kHorizon, seed_, kCores, store, ledger);
    for (const std::string& trace : traces()) {
      laps::ScenarioConfig cfg =
          laps::make_single_service_scenario(trace, o, kLoad);
      replays_.emplace(trace, record(cfg, ledger));
      configs_.emplace(trace, std::move(cfg));
    }
  }

  PassResult run_pass(Ledger* ledger) override {
    std::vector<laps::SchedulerSpec> specs;
    for (const SchedulerRow& row : rows()) {
      specs.push_back(make_spec(row, ledger, "sim.run"));
    }
    const auto* replays = &replays_;
    laps::ExperimentPlan::JobRunner runner =
        [replays, ledger](const laps::ScenarioConfig& cfg,
                          laps::Scheduler& scheduler) {
          laps::ReplayStream stream = replays->at(cfg.name).fork();
          return run_engine(cfg, scheduler, stream, ledger, "traffic.replay");
        };
    if (ledger != nullptr) runner = traced_job(*ledger, runner);
    const auto* configs = &configs_;
    laps::ExperimentPlan plan(seed_);
    plan.add_grid(
        traces(), specs, {seed_},
        [configs](const std::string& trace, std::uint64_t) {
          return configs->at(trace);
        },
        runner);
    return run_plan(plan, "fig9_topk_migration", ledger);
  }

  std::vector<Recording> recordings(Ledger&) override {
    std::vector<Recording> out;
    for (const std::string& trace : traces()) {
      out.push_back({configs_.at(trace), replays_.at(trace)});
    }
    return out;
  }

  void describe(laps::JsonWriter& w) const override {
    w.field("mirrors", "fig9_topk_migration --traces=auck1,auck2");
    w.field("seed", seed_);
    w.field("horizon_s", kHorizon);
    w.field("cores", static_cast<std::uint64_t>(kCores));
    w.field("load", kLoad);
    write_list(w, "scenarios", traces());
    write_list(w, "schedulers", specs_of(rows()));
    write_list(w, "dispatchers", {});
  }

 private:
  static constexpr double kHorizon = 0.05;  // the command's default
  static constexpr double kLoad = 1.05;
  static std::vector<std::string> traces() { return {"auck1", "auck2"}; }
  static std::vector<SchedulerRow> rows() {
    std::vector<SchedulerRow> out = {{"afs", "", "baselines.afs"},
                                     {"hash", "", "baselines.hash"}};
    for (int k : {4, 8, 10, 16}) {
      out.push_back({"laps:services=1,afc=" + std::to_string(k),
                     "LAPS top-" + std::to_string(k), "core.laps"});
    }
    out.push_back({"oracle", "", "baselines.oracle"});
    return out;
  }

  std::uint64_t seed_;
  std::map<std::string, laps::ScenarioConfig> configs_;
  std::map<std::string, laps::ReplayStream> replays_;
};

// --- cluster_dispatch ------------------------------------------------------

/// fig_cluster_dispatch --scheduler=hash: 4 shard NPs x 4 cores behind each
/// front-end dispatcher, caida1 at 1.05x cluster capacity, recorded once and
/// replayed to every row, lockstep executor.
class ClusterDispatch final : public Workload {
 public:
  explicit ClusterDispatch(std::uint64_t seed) : seed_(seed) {}

  void setup(Ledger* ledger) override {
    replay_ = laps::ReplayStream{};
    auto store = std::make_shared<laps::TraceStore>();
    const laps::ScenarioOptions o =
        make_options(kHorizon, seed_, kCores, store, ledger);
    config_ = laps::make_single_service_scenario(kTrace, o, kLoad);
    replay_ = record(config_, ledger);
  }

  PassResult run_pass(Ledger* ledger) override {
    laps::ClusterConfig cfg = cluster_config(config_, kShards);
    cfg.make_scheduler =
        make_spec({"hash", "", "baselines.hash"}, ledger, "cluster.run").make;
    std::vector<laps::ClusterReport> reports;
    std::vector<std::pair<std::string, std::string>> errors;
    PassResult out;
    const auto t0 = Clock::now();
    for (const std::string& spec : dispatcher_specs()) {
      ++out.cells;
      try {
        reports.push_back(run_cluster_row(cfg, replay_, spec, ledger));
        out.offered += reports.back().offered;
      } catch (const std::exception& e) {
        ++out.threw;
        errors.emplace_back(spec, e.what());
      }
    }
    out.host_seconds = seconds_between(t0, Clock::now());

    // fig_cluster_dispatch's --json document; a row that threw is listed
    // with its error after the reports.
    laps::JsonWriter w;
    w.begin_object();
    w.field("schema", "laps-cluster-grid-v1");
    w.field("tool", "fig_cluster_dispatch");
    w.key("reports");
    w.begin_array();
    for (const laps::ClusterReport& r : reports) {
      laps::write_cluster_report_json(w, r);
    }
    for (const auto& [spec, message] : errors) {
      w.begin_object();
      w.field("dispatcher", spec);
      w.field("error", message);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out.artifact = w.str() + "\n";
    return out;
  }

  std::vector<Recording> recordings(Ledger&) override {
    return {{config_, replay_}};
  }

  void describe(laps::JsonWriter& w) const override {
    w.field("mirrors", "fig_cluster_dispatch --scheduler=hash");
    w.field("seed", seed_);
    w.field("horizon_s", kHorizon);
    w.field("shards", static_cast<std::uint64_t>(kShards));
    w.field("cores_per_shard", static_cast<std::uint64_t>(kCores / kShards));
    w.field("load", kLoad);
    w.field("sync_ns", static_cast<std::int64_t>(
                           cluster_config(config_, kShards).sync_ns));
    write_list(w, "scenarios", {kTrace});
    write_list(w, "schedulers", {"hash"});
    write_list(w, "dispatchers", dispatcher_specs());
  }

 private:
  static constexpr double kHorizon = 0.02;  // the command's defaults
  static constexpr double kLoad = 1.05;
  static constexpr const char* kTrace = "caida1";

  std::uint64_t seed_;
  laps::ScenarioConfig config_;
  laps::ReplayStream replay_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_online") return std::make_unique<PaperOnline>(seed);
  if (name == "laps_replay") return std::make_unique<LapsReplay>(seed);
  if (name == "cluster_dispatch") {
    return std::make_unique<ClusterDispatch>(seed);
  }
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (paper_online, laps_replay, cluster_dispatch)");
}

std::uint64_t default_seed(const std::string& name) {
  if (name == "paper_online") return 2013;
  if (name == "laps_replay") return 99;
  if (name == "cluster_dispatch") return 17;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void engine_sweep(const std::vector<Recording>& recordings,
                  const Ledger& measured, Ledger& ledger) {
  std::map<std::string, const Recording*> by_name;
  std::vector<std::string> names;
  for (const Recording& r : recordings) {
    by_name.emplace(r.config.name, &r);
    names.push_back(r.config.name);
  }
  const std::string laps_spec =
      "laps:services=" +
      std::to_string(recordings.front().config.services.size());
  std::vector<laps::SchedulerSpec> specs;
  for (const SchedulerRow& row :
       std::vector<SchedulerRow>{{"fcfs", "", "baselines.fcfs"},
                                 {"afs", "", "baselines.afs"},
                                 {"hash", "", "baselines.hash"},
                                 {"oracle", "", "baselines.oracle"},
                                 {laps_spec, "", "core.laps"}}) {
    if (!measured.called(row.boundary)) {
      specs.push_back(make_spec(row, &ledger, "sim.run"));
    }
  }
  if (specs.empty()) return;
  Ledger* sweep = &ledger;
  laps::ExperimentPlan plan(recordings.front().config.seed);
  plan.add_grid(
      names, specs, {recordings.front().config.seed},
      [&by_name](const std::string& name, std::uint64_t) {
        return by_name.at(name)->config;
      },
      traced_job(ledger, [&by_name, sweep](const laps::ScenarioConfig& cfg,
                                           laps::Scheduler& scheduler) {
        laps::ReplayStream stream = by_name.at(cfg.name)->stream.fork();
        return run_engine(cfg, scheduler, stream, sweep, "traffic.replay");
      }));
  const PassResult pass = run_plan(plan, "engine_sweep", &ledger);
  if (pass.threw != 0) {
    throw std::runtime_error("perfbench: a layer-sweep cell threw");
  }
}

void cluster_sweep(const std::vector<Recording>& recordings, Ledger& ledger) {
  for (const Recording& r : recordings) {
    laps::ClusterConfig cfg = cluster_config(r.config, kShards);
    cfg.make_scheduler =
        make_spec({"hash", "", "baselines.hash"}, &ledger, "cluster.run").make;
    for (const std::string& spec : dispatcher_specs()) {
      run_cluster_row(cfg, r.stream, spec, &ledger);
    }
  }
}

FabricCost fabric_cost(const Recording& recording) {
  // perf_kernel's cluster+pass row on a workload stream: one shard holding
  // every core, behind the pass dispatcher, against the bare engine with a
  // ReportProbe. Interleaved reps; medians.
  constexpr int kReps = 5;
  const laps::ScenarioConfig& sc = recording.config;
  std::vector<double> engine_s, cluster_s;
  laps::SimReport engine_report;
  laps::SimReport shard_report;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      auto scheduler = laps::make_scheduler("hash");
      laps::ReplayStream stream = recording.stream.fork();
      const auto t0 = Clock::now();
      engine_report = run_engine(sc, *scheduler, stream, nullptr, "");
      engine_s.push_back(seconds_between(t0, Clock::now()));
    }
    {
      laps::ClusterConfig cfg = cluster_config(sc, 1);
      cfg.make_scheduler = [] { return laps::make_scheduler("hash"); };
      const auto t0 = Clock::now();
      laps::ClusterReport report =
          run_cluster_row(cfg, recording.stream, "pass", nullptr);
      cluster_s.push_back(seconds_between(t0, Clock::now()));
      shard_report = std::move(report.shards.at(0));
    }
  }
  // The difference is a fabric cost only if both ran the same simulation.
  if (laps::report_to_json(engine_report) !=
      laps::report_to_json(shard_report)) {
    throw std::runtime_error(
        "perfbench: one-shard pass cluster diverged from SimEngine::run");
  }
  return FabricCost{median(engine_s), median(cluster_s),
                    recording.stream.size()};
}

}  // namespace perfbench
