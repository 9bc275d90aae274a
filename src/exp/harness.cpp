#include "exp/harness.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/scheduler_registry.h"
#include "sim/afd_accuracy.h"
#include "sim/fault.h"
#include "sim/flight_recorder.h"
#include "sim/flow_audit.h"
#include "sim/report_json.h"
#include "telemetry/export.h"
#include "telemetry/probe.h"
#include "util/crc.h"
#include "util/duration.h"
#include "util/fileio.h"
#include "util/parallel.h"

namespace laps {

HarnessOptions parse_harness_flags(Flags& flags) {
  HarnessOptions opts;
  opts.jobs = resolve_jobs(flags.get_uint("jobs", 1));
  opts.json_path = flags.get_string("json", "");
  opts.trace_path = flags.get_string("trace-out", "");

  opts.flow_audit_path = flags.get_string("flow-audit", "");
  opts.flow_audit_top = flags.get_uint("flow-audit-top", 16);
  if (opts.flow_audit_top < 1) {
    throw std::invalid_argument("--flow-audit-top must be >= 1");
  }
  opts.flow_audit_rows = flags.get_uint("flow-audit-rows", 256);

  opts.afd_accuracy_path = flags.get_string("afd-accuracy", "");
  opts.afd_accuracy_k = flags.get_uint("afd-accuracy-k", 16);
  if (opts.afd_accuracy_k < 1) {
    throw std::invalid_argument("--afd-accuracy-k must be >= 1");
  }
  opts.afd_accuracy_window_us =
      flags.get_double("afd-accuracy-window-us", opts.afd_accuracy_window_us);
  if (opts.afd_accuracy_window_us <= 0) {
    throw std::invalid_argument("--afd-accuracy-window-us must be > 0");
  }

  opts.flight_path = flags.get_string("flight-recorder", "");
  opts.flight_capacity = flags.get_uint("flight-capacity", 4096);
  if (opts.flight_capacity < 1) {
    throw std::invalid_argument("--flight-capacity must be >= 1");
  }
  opts.flight_drop_storm = flags.get_uint("flight-drop-storm", 64);
  opts.flight_ooo_spike = flags.get_uint("flight-ooo-spike", 256);
  opts.flight_window_us =
      flags.get_double("flight-window-us", opts.flight_window_us);
  if (opts.flight_window_us <= 0) {
    throw std::invalid_argument("--flight-window-us must be > 0");
  }
  opts.flight_dump = flags.get_bool("flight-dump", false);
  if (opts.flight_dump && opts.flight_path.empty()) {
    throw std::invalid_argument(
        "--flight-dump requires --flight-recorder=PATH");
  }

  // Bare --telemetry keeps the default interval; --telemetry=250us etc. go
  // through the shared duration grammar (util::parse_duration), so the
  // registry's "idle_th=5us" literals work here unchanged. Either output
  // flag implies --telemetry.
  if (flags.has("telemetry")) {
    opts.telemetry = true;
    const std::string interval = flags.get_string("telemetry", "");
    if (!interval.empty()) {
      opts.telemetry_interval = util::parse_duration("--telemetry", interval);
      if (opts.telemetry_interval <= 0) {
        throw std::invalid_argument("--telemetry interval must be > 0");
      }
    }
  }
  opts.telemetry_out = flags.get_string("telemetry-out", "");
  opts.telemetry_prom = flags.get_string("telemetry-prom", "");
  if (!opts.telemetry_out.empty() || !opts.telemetry_prom.empty()) {
    opts.telemetry = true;
  }
  // Both probes sample on the engine's single epoch cadence; refuse a pair
  // of values that one cadence cannot honour instead of picking one.
  if (opts.telemetry && !opts.afd_accuracy_path.empty() &&
      from_us(opts.afd_accuracy_window_us) != opts.telemetry_interval) {
    throw std::invalid_argument(
        "--afd-accuracy-window-us (" +
        std::to_string(from_us(opts.afd_accuracy_window_us)) +
        " ns) and the --telemetry interval (" +
        std::to_string(opts.telemetry_interval) +
        " ns) must be equal: both set the engine's one epoch cadence");
  }

  opts.faults_spec = flags.get_string("faults", "");
  if (!opts.faults_spec.empty()) {
    opts.faults =
        std::make_shared<const FaultPlan>(parse_fault_plan(opts.faults_spec));
  }
  opts.fault_timeline_path = flags.get_string("fault-timeline", "");
  if (!opts.fault_timeline_path.empty() && opts.faults == nullptr) {
    throw std::invalid_argument("--fault-timeline requires --faults=SPEC");
  }
  opts.scheduler_list = flags.get_string("scheduler", "");
  if (!opts.scheduler_list.empty()) {
    // Parsed here so a typo fails before any grid starts running; the
    // registry's errors name the offending token and list valid choices.
    opts.schedulers = parse_scheduler_list(opts.scheduler_list);
  }

  opts.journal_path = flags.get_string("journal", "");
  opts.resume = flags.get_bool("resume", false);
  if (opts.resume && opts.journal_path.empty()) {
    throw std::invalid_argument("--resume requires --journal=PATH");
  }

  // Per-run files land beside their stem, so a directory that cannot take
  // them fails here, before any cell runs.
  const std::pair<const char*, const std::string*> paths[] = {
      {"--json", &opts.json_path},
      {"--trace-out", &opts.trace_path},
      {"--flow-audit", &opts.flow_audit_path},
      {"--afd-accuracy", &opts.afd_accuracy_path},
      {"--flight-recorder", &opts.flight_path},
      {"--telemetry-out", &opts.telemetry_out},
      {"--telemetry-prom", &opts.telemetry_prom},
      {"--fault-timeline", &opts.fault_timeline_path},
      {"--journal", &opts.journal_path},
  };
  for (const auto& [flag, path] : paths) {
    if (!path->empty()) util::require_writable_dir(flag, *path);
  }
  return opts;
}

ParallelRunner make_runner(const HarnessOptions& opts) {
  RunnerPolicy policy;
  policy.journal_path = opts.journal_path;
  policy.resume = opts.resume;
  // Salt the journal with the harness option that changes what a job
  // computes: resuming under a different fault plan must invalidate the
  // journal, not silently mix results.
  auto fold = [](std::uint64_t h, const std::string& s) {
    for (const char c : s) {
      h = mix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    return mix64(h ^ s.size());
  };
  policy.journal_salt = fold(0x1A95'0001, opts.faults_spec);
  return ParallelRunner(opts.jobs, std::move(policy));
}

int grid_abort_code(const ParallelRunner& runner) {
  return runner.stop_signal() != 0 ? 128 + runner.stop_signal() : 0;
}

int grid_exit_code(const std::vector<JobResult>& results) {
  std::size_t failed = 0;
  for (const JobResult& r : results) {
    if (r.ok()) continue;
    ++failed;
    std::fprintf(stderr, "FAILED cell %zu: %s/%s seed=%llu: %s: %s\n",
                 r.index, r.scenario.c_str(), r.scheduler.c_str(),
                 static_cast<unsigned long long>(r.seed), r.error->kind.c_str(),
                 r.error->message.c_str());
  }
  if (failed > 0) {
    std::fprintf(stderr, "%zu of %zu grid cell(s) failed\n", failed,
                 results.size());
    return 1;
  }
  return 0;
}

std::vector<SchedulerSpec> schedulers_or(const HarnessOptions& opts,
                                         std::vector<SchedulerSpec> defaults) {
  return opts.schedulers.empty() ? std::move(defaults) : opts.schedulers;
}

namespace {

/// "out.json" + (T1, LAPS, 42) -> "out.T1.LAPS.42.json"; label characters
/// that would break filenames are replaced with '_'.
std::string per_run_path(const std::string& stem, const std::string& scenario,
                         const std::string& scheduler, std::uint64_t seed) {
  std::string labels = scenario + "." + scheduler + "." + std::to_string(seed);
  for (char& c : labels) {
    if (c == '/' || c == '\\' || c == ' ') c = '_';
  }
  const std::size_t slash = stem.find_last_of('/');
  const std::size_t dot = stem.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return stem + "." + labels;
  }
  return stem.substr(0, dot) + "." + labels + stem.substr(dot);
}

}  // namespace

namespace {

bool any_probe_configured(const HarnessOptions& opts) {
  return !opts.trace_path.empty() || !opts.flow_audit_path.empty() ||
         !opts.afd_accuracy_path.empty() || !opts.flight_path.empty() ||
         opts.telemetry;
}

}  // namespace

SimReport run_observed(const ScenarioConfig& config, Scheduler& scheduler,
                       const HarnessOptions& opts) {
  // A --faults plan on the command line applies to every scenario in the
  // grid that does not already carry its own plan.
  ScenarioConfig overridden_config;
  const ScenarioConfig* effective = &config;
  if (opts.faults != nullptr && config.faults == nullptr) {
    overridden_config = config;
    overridden_config.faults = opts.faults;
    effective = &overridden_config;
  }
  if (!any_probe_configured(opts) && opts.fault_timeline_path.empty()) {
    return run_scenario(*effective, scheduler);
  }
  std::optional<FlightRecorderProbe> trace;
  std::optional<FlowAuditProbe> audit;
  std::optional<AfdAccuracyProbe> accuracy;
  std::optional<FlightRecorderProbe> flight;
  std::optional<FaultProbe> fault_probe;
  std::optional<telemetry::TelemetryProbe> telem;
  ProbeSet extra;
  // The engine has one epoch cadence; parse_harness_flags rejects an AFD
  // accuracy window that differs from the telemetry interval.
  TimeNs epoch_ns = 0;
  if (!opts.trace_path.empty()) {
    trace.emplace(FlightRecorderConfig::whole_run());
    extra.add(&*trace);
  }
  if (!opts.flow_audit_path.empty()) {
    FlowAuditProbe::Options audit_opts;
    audit_opts.top_k = opts.flow_audit_top;
    audit_opts.max_rows = opts.flow_audit_rows;
    audit.emplace(audit_opts);
    extra.add(&*audit);
  }
  if (!opts.afd_accuracy_path.empty()) {
    accuracy.emplace(scheduler, opts.afd_accuracy_k);
    extra.add(&*accuracy);
    epoch_ns = from_us(opts.afd_accuracy_window_us);
  }
  if (!opts.flight_path.empty()) {
    FlightRecorderConfig flight_cfg;
    flight_cfg.capacity = opts.flight_capacity;
    flight_cfg.drop_storm = opts.flight_drop_storm;
    flight_cfg.ooo_spike = opts.flight_ooo_spike;
    flight_cfg.window_ns = from_us(opts.flight_window_us);
    flight_cfg.always_dump = opts.flight_dump;
    flight.emplace(flight_cfg);
    extra.add(&*flight);
  }
  if (!opts.fault_timeline_path.empty() && effective->faults != nullptr) {
    fault_probe.emplace();
    extra.add(&*fault_probe);
  }
  if (opts.telemetry) {
    telemetry::TelemetryConfig telem_cfg;
    telem_cfg.interval = opts.telemetry_interval;
    // When a trace is also requested, merge counter tracks (queue depth,
    // occupancies, drop/migration totals) into its timeline.
    telem.emplace(telem_cfg, &scheduler, trace ? &*trace : nullptr);
    extra.add(&*telem);
    epoch_ns = opts.telemetry_interval;
  }
  // Probes attach before the run so the scheduler name reflects the instance
  // actually used (grid jobs construct schedulers per job).
  SimReport report = run_scenario(*effective, scheduler, extra, epoch_ns);
  if (trace) {
    const std::string path = per_run_path(opts.trace_path, config.name,
                                          scheduler.name(), config.seed);
    trace->write(path);
    std::fprintf(stderr, "wrote chrome trace: %s\n", path.c_str());
  }
  if (audit) {
    const std::string path = per_run_path(opts.flow_audit_path, config.name,
                                          scheduler.name(), config.seed);
    audit->write(path);
    const std::size_t flows = audit->rows().size();
    std::fprintf(stderr, "wrote flow audit: %s (%zu flows, %zu rows)\n",
                 path.c_str(), flows,
                 opts.flow_audit_rows == 0
                     ? flows
                     : std::min(opts.flow_audit_rows, flows));
  }
  if (accuracy) {
    const std::string path = per_run_path(opts.afd_accuracy_path, config.name,
                                          scheduler.name(), config.seed);
    accuracy->write(path);
    std::fprintf(stderr, "wrote AFD accuracy series: %s (%zu samples)\n",
                 path.c_str(), accuracy->samples().size());
  }
  if (flight && flight->should_dump()) {
    const std::string path = per_run_path(opts.flight_path, config.name,
                                          scheduler.name(), config.seed);
    flight->write(path);
    std::fprintf(stderr, "wrote flight recording: %s (%zu events%s%s)\n",
                 path.c_str(), flight->num_events(),
                 flight->triggered() ? ", trigger: " : "",
                 flight->triggered() ? flight->trigger_reason().c_str() : "");
  }
  if (fault_probe) {
    const std::string path =
        per_run_path(opts.fault_timeline_path, config.name, scheduler.name(),
                     config.seed);
    fault_probe->write(path);
    std::fprintf(stderr, "wrote fault timeline: %s (%zu events)\n",
                 path.c_str(), fault_probe->timeline().size());
  }
  if (telem) {
    if (!opts.telemetry_out.empty()) {
      const std::string path = per_run_path(opts.telemetry_out, config.name,
                                            scheduler.name(), config.seed);
      const std::size_t lines = telemetry::write_telemetry_jsonl(path, *telem);
      std::fprintf(stderr, "wrote telemetry stream: %s (%zu snapshots)\n",
                   path.c_str(), lines);
    }
    if (!opts.telemetry_prom.empty()) {
      const std::string path = per_run_path(opts.telemetry_prom, config.name,
                                            scheduler.name(), config.seed);
      telemetry::write_telemetry_prometheus(path, *telem);
      std::fprintf(stderr, "wrote telemetry exposition: %s\n", path.c_str());
    }
  }
  return report;
}

ExperimentPlan::JobRunner observed_runner(const HarnessOptions& opts) {
  if (!any_probe_configured(opts) && opts.faults == nullptr) return {};
  return [opts](const ScenarioConfig& config, Scheduler& scheduler) {
    return run_observed(config, scheduler, opts);
  };
}

int guarded_main(int argc, char** argv, int (*body)(Flags&)) {
  const char* program = argc > 0 ? argv[0] : "laps";
  try {
    Flags flags(argc, argv);
    return body(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", program, e.what());
    return 1;
  }
}

std::string artifact_json(const std::string& tool,
                          const std::vector<JobResult>& results,
                          const std::vector<ArtifactTable>& tables) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "laps-bench-v1");
  w.field("tool", tool);
  w.key("reports");
  w.begin_array();
  for (const JobResult& r : results) {
    w.begin_object();
    w.field("scenario", r.scenario);
    w.field("scheduler", r.scheduler);
    w.field("seed", r.seed);
    // Failed cells carry their error instead of fake zeros masquerading as
    // results; the field is absent on success, so fault-free artifacts are
    // byte-identical to the pre-resilience format.
    if (!r.ok()) {
      w.key("error");
      w.begin_object();
      w.field("kind", r.error->kind);
      w.field("message", r.error->message);
      w.end_object();
    }
    w.key("report");
    write_report_json(w, r.report);
    w.end_object();
  }
  w.end_array();
  w.key("tables");
  w.begin_array();
  for (const ArtifactTable& t : tables) {
    if (t.table == nullptr) {
      throw std::invalid_argument("artifact_json: null table '" + t.title +
                                  "'");
    }
    w.begin_object();
    w.field("title", t.title);
    w.key("headers");
    w.begin_array();
    for (const std::string& h : t.table->headers()) w.value(h);
    w.end_array();
    w.key("rows");
    w.begin_array();
    for (const auto& row : t.table->data()) {
      w.begin_array();
      for (const std::string& cell : row) w.value(cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

void write_json_artifact(const std::string& path, const std::string& tool,
                         const std::vector<JobResult>& results,
                         const std::vector<ArtifactTable>& tables) {
  if (path.empty()) return;
  const std::string doc = artifact_json(tool, results, tables);
  util::write_file_atomic(path, doc, "JSON artifact");
  std::fprintf(stderr, "wrote JSON artifact: %s (%zu bytes)\n", path.c_str(),
               doc.size());
}

}  // namespace laps
