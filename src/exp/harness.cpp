#include "exp/harness.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/scheduler_registry.h"
#include "sim/afd_accuracy.h"
#include "sim/fault.h"
#include "sim/flight_recorder.h"
#include "sim/flow_audit.h"
#include "sim/report_json.h"
#include "sim/telemetry.h"
#include "util/crc.h"
#include "util/duration.h"
#include "util/fileio.h"
#include "util/parallel.h"

namespace laps {

std::string parse_json_flag(Flags& flags) {
  const std::string path = flags.get_string("json", "");
  if (!path.empty()) util::require_writable_dir("--json", path);
  return path;
}

namespace {

/// --scheduler, parsed here so a typo fails before any cell runs; the
/// registry's errors name the offending token and list valid choices.
void parse_scheduler_flag(Flags& flags, HarnessOptions& opts) {
  const std::string list = flags.get_string("scheduler", "");
  if (!list.empty()) opts.schedulers = parse_scheduler_list(list);
}

/// A per-run artifact flag and the stem it sets.
using PerRunStem = std::pair<const char*, const std::string*>;

/// Every per-run artifact flag, in the order check_per_run_paths picks the
/// one its error names.
auto per_run_stems(const HarnessOptions& opts) {
  return std::to_array<PerRunStem>({
      {"--trace-out", &opts.trace_path},
      {"--flow-audit", &opts.flow_audit_path},
      {"--afd-accuracy", &opts.afd_accuracy_path},
      {"--flight-recorder", &opts.flight_path},
      {"--telemetry-out", &opts.telemetry_out},
      {"--fault-timeline", &opts.fault_timeline_path},
  });
}

/// The first per-run artifact flag given, if any.
std::optional<PerRunStem> first_per_run_stem(const HarnessOptions& opts) {
  for (const PerRunStem& stem : per_run_stems(opts)) {
    if (!stem.second->empty()) return stem;
  }
  return std::nullopt;
}

/// The probe and fault flags of parse_harness_flags.
void parse_probe_flags(Flags& flags, HarnessOptions& opts) {
  opts.trace_path = flags.get_string("trace-out", "");
  opts.flow_audit_path = flags.get_string("flow-audit", "");
  opts.flow_audit_rows = flags.get_uint("flow-audit-rows", 256);
  opts.afd_accuracy_path = flags.get_string("afd-accuracy", "");
  opts.flight_path = flags.get_string("flight-recorder", "");
  opts.flight_dump = flags.get_bool("flight-dump", false);
  if (opts.flight_dump && opts.flight_path.empty()) {
    throw std::invalid_argument(
        "--flight-dump requires --flight-recorder=PATH");
  }

  // Bare --telemetry keeps the default interval; --telemetry=250us etc. go
  // through the shared duration grammar (util::parse_duration), so the
  // registry's "idle_th=5us" literals work here unchanged. The output flag
  // implies --telemetry.
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
  if (!opts.telemetry_out.empty()) opts.telemetry = true;

  const std::string faults = flags.get_string("faults", "");
  if (!faults.empty()) {
    opts.faults = std::make_shared<const FaultPlan>(parse_fault_plan(faults));
  }
  opts.fault_timeline_path = flags.get_string("fault-timeline", "");
  if (!opts.fault_timeline_path.empty() && opts.faults == nullptr) {
    throw std::invalid_argument("--fault-timeline requires --faults=SPEC");
  }

  // Per-run files land beside their stem, so a directory that cannot take
  // them fails here, before any cell runs.
  for (const auto& [flag, path] : per_run_stems(opts)) {
    if (!path->empty()) util::require_writable_dir(flag, *path);
  }
}

/// Hashes the name and value of every flag given except the four that
/// cannot change a journaled cell's report: --jobs, --journal and
/// --resume, and --json, which only names where the final artifact goes
/// (restored cells appear in it too). Per-run file stems stay in, because
/// a restored cell does not rewrite its files.
std::uint64_t journal_salt(const Flags& flags) {
  auto fold = [](std::uint64_t h, const std::string& s) {
    for (const char c : s) {
      h = mix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    return mix64(h ^ s.size());
  };
  std::uint64_t h = 0x1A95'0001;
  for (const auto& [name, value] : flags.values()) {
    if (name == "jobs" || name == "journal" || name == "resume" ||
        name == "json") {
      continue;
    }
    h = fold(fold(h, name), value);
  }
  return h;
}

}  // namespace

HarnessOptions parse_runner_flags(Flags& flags) {
  HarnessOptions opts;
  opts.jobs = resolve_jobs(flags.get_uint("jobs", 1));
  opts.json_path = parse_json_flag(flags);
  parse_scheduler_flag(flags, opts);
  opts.journal_path = flags.get_string("journal", "");
  opts.resume = flags.get_bool("resume", false);
  if (opts.resume && opts.journal_path.empty()) {
    throw std::invalid_argument("--resume requires --journal=PATH");
  }
  if (!opts.journal_path.empty()) {
    util::require_writable_dir("--journal", opts.journal_path);
  }
  opts.journal_salt = journal_salt(flags);
  return opts;
}

HarnessOptions parse_harness_flags(Flags& flags) {
  HarnessOptions opts = parse_runner_flags(flags);
  parse_probe_flags(flags, opts);
  return opts;
}

HarnessOptions parse_observed_flags(Flags& flags) {
  HarnessOptions opts;
  opts.json_path = parse_json_flag(flags);
  parse_scheduler_flag(flags, opts);
  parse_probe_flags(flags, opts);
  return opts;
}

ParallelRunner make_runner(const HarnessOptions& opts) {
  RunnerPolicy policy;
  policy.journal_path = opts.journal_path;
  policy.resume = opts.resume;
  // A journal written under other flags must refuse to resume, not mix
  // their results into this grid.
  policy.journal_salt = opts.journal_salt;
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

/// (T1, LAPS top-4, 42) -> "T1.LAPS_top-4.42": the part of a per-run file
/// name that tells cells apart. Label characters that would break
/// filenames are replaced with '_'.
std::string per_run_labels(const std::string& scenario,
                           const std::string& label, std::uint64_t seed) {
  std::string labels = scenario + "." + label + "." + std::to_string(seed);
  for (char& c : labels) {
    if (c == '/' || c == '\\' || c == ' ') c = '_';
  }
  return labels;
}

/// "out.json" + "T1.LAPS.42" -> "out.T1.LAPS.42.json".
std::string per_run_path(const std::string& stem, const std::string& labels) {
  const std::size_t slash = stem.find_last_of('/');
  const std::size_t dot = stem.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return stem + "." + labels;
  }
  return stem.substr(0, dot) + "." + labels + stem.substr(dot);
}

/// The probes `opts` configures for one cell, attached for its run, and
/// the per-run files they write after it. Built in place: the probe set
/// holds the members' addresses.
class ObservedCell {
 public:
  ObservedCell(const HarnessOptions& opts, const ScenarioConfig& config,
               Scheduler& scheduler)
      : opts_(opts) {
    cell_.scheduler = &scheduler;
    if (!opts.trace_path.empty()) {
      trace_.emplace(FlightRecorderConfig::whole_run());
      cell_.probes.add(&*trace_);
    }
    if (!opts.flow_audit_path.empty()) {
      FlowAuditProbe::Options audit_opts;
      audit_opts.max_rows = opts.flow_audit_rows;
      audit_.emplace(audit_opts);
      cell_.probes.add(&*audit_);
    }
    if (!opts.afd_accuracy_path.empty()) {
      accuracy_.emplace(scheduler);
      cell_.probes.add(&*accuracy_);
      cell_.epoch_ns = opts.telemetry_interval;
    }
    if (!opts.flight_path.empty()) {
      FlightRecorderConfig flight_cfg;
      flight_cfg.window_ns = opts.telemetry_interval;
      flight_cfg.always_dump = opts.flight_dump;
      flight_.emplace(flight_cfg);
      cell_.probes.add(&*flight_);
    }
    if (!opts.fault_timeline_path.empty() && config.faults != nullptr) {
      fault_probe_.emplace();
      cell_.probes.add(&*fault_probe_);
    }
    // The series is read by --telemetry-out, or merged into the
    // --trace-out timeline; with neither, nothing would read it.
    if (opts.telemetry && (!opts.telemetry_out.empty() || trace_)) {
      TelemetryConfig telem_cfg;
      telem_cfg.interval = opts.telemetry_interval;
      // When a trace is also requested, merge counter tracks (queue depth,
      // occupancies, drop/migration totals) into its timeline.
      telem_.emplace(telem_cfg, &scheduler, trace_ ? &*trace_ : nullptr);
      cell_.probes.add(&*telem_);
      cell_.epoch_ns = opts.telemetry_interval;
    }
  }

  ObservedCell(const ObservedCell&) = delete;
  ObservedCell& operator=(const ObservedCell&) = delete;

  /// The cell's scheduler with its probes and epoch cadence.
  const LockstepCell& cell() const { return cell_; }

  /// Writes this cell's files, named by `labels` (per_run_labels).
  void write(const std::string& labels) const {
    if (trace_) {
      const std::string path = per_run_path(opts_.trace_path, labels);
      trace_->write(path);
      std::fprintf(stderr, "wrote chrome trace: %s\n", path.c_str());
    }
    if (audit_) {
      const std::string path = per_run_path(opts_.flow_audit_path, labels);
      audit_->write(path);
      const std::size_t flows = audit_->rows().size();
      std::fprintf(stderr, "wrote flow audit: %s (%zu flows, %zu rows)\n",
                   path.c_str(), flows,
                   opts_.flow_audit_rows == 0
                       ? flows
                       : std::min(opts_.flow_audit_rows, flows));
    }
    if (accuracy_) {
      const std::string path = per_run_path(opts_.afd_accuracy_path, labels);
      accuracy_->write(path);
      std::fprintf(stderr, "wrote AFD accuracy series: %s (%zu samples)\n",
                   path.c_str(), accuracy_->samples().size());
    }
    if (flight_ && flight_->should_dump()) {
      const std::string path = per_run_path(opts_.flight_path, labels);
      flight_->write(path);
      std::fprintf(stderr, "wrote flight recording: %s (%zu events%s%s)\n",
                   path.c_str(), flight_->num_events(),
                   flight_->triggered() ? ", trigger: " : "",
                   flight_->triggered() ? flight_->trigger_reason().c_str()
                                        : "");
    }
    if (fault_probe_) {
      const std::string path =
          per_run_path(opts_.fault_timeline_path, labels);
      fault_probe_->write(path);
      std::fprintf(stderr, "wrote fault timeline: %s (%zu events)\n",
                   path.c_str(), fault_probe_->timeline().size());
    }
    if (telem_ && !opts_.telemetry_out.empty()) {
      const std::string path = per_run_path(opts_.telemetry_out, labels);
      telem_->write(path);
      std::fprintf(stderr, "wrote telemetry stream: %s (%zu snapshots)\n",
                   path.c_str(), telem_->snapshots().size() + 1);
    }
  }

 private:
  const HarnessOptions& opts_;
  std::optional<FlightRecorderProbe> trace_;
  std::optional<FlowAuditProbe> audit_;
  std::optional<AfdAccuracyProbe> accuracy_;
  std::optional<FlightRecorderProbe> flight_;
  std::optional<FaultProbe> fault_probe_;
  std::optional<TelemetryProbe> telem_;
  LockstepCell cell_;
};

/// Runs `cells` in lockstep over `config` with each cell's probes
/// attached, then writes each finished cell's files, named by its labels.
std::vector<CellOutcome> run_observed_group(
    const ScenarioConfig& config, std::span<const LockstepCell> cells,
    const HarnessOptions& opts) {
  // A --faults plan on the command line applies to every scenario in the
  // grid that does not already carry its own plan.
  ScenarioConfig effective = config;
  if (opts.faults != nullptr && config.faults == nullptr) {
    effective.faults = opts.faults;
  }
  std::vector<std::unique_ptr<ObservedCell>> observed;
  std::vector<LockstepCell> lockstep;
  for (const LockstepCell& cell : cells) {
    observed.push_back(
        std::make_unique<ObservedCell>(opts, effective, *cell.scheduler));
    lockstep.push_back(observed.back()->cell());
  }
  std::vector<CellOutcome> out = run_lockstep(effective, lockstep);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (out[i].error) continue;
    try {
      observed[i]->write(
          per_run_labels(cells[i].scenario, cells[i].label, config.seed));
    } catch (...) {
      out[i].error = std::current_exception();
    }
  }
  return out;
}

}  // namespace

SimReport run_observed(const ScenarioConfig& config, Scheduler& scheduler,
                       const HarnessOptions& opts) {
  const LockstepCell cell{&scheduler, {}, 0, config.name, scheduler.name()};
  std::vector<CellOutcome> out = run_observed_group(config, {&cell, 1}, opts);
  if (out.front().error) std::rethrow_exception(out.front().error);
  return std::move(out.front().report);
}

ExperimentPlan::GroupRunner observed_runner(const HarnessOptions& opts) {
  if (!first_per_run_stem(opts) && opts.faults == nullptr) return {};
  return [opts](const ScenarioConfig& config,
                std::span<const LockstepCell> cells) {
    return run_observed_group(config, cells, opts);
  };
}

void check_per_run_paths(const ExperimentPlan& plan,
                         const HarnessOptions& opts) {
  const std::optional<PerRunStem> stem = first_per_run_stem(opts);
  if (!stem) return;
  // Two cells collide exactly when their labels do: every stem appends the
  // same labels.
  std::map<std::string, std::size_t> owner;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const ExperimentJob& job = plan.jobs()[i];
    const std::string labels =
        per_run_labels(job.scenario, job.scheduler, job.seed);
    const auto [it, fresh] = owner.emplace(labels, i);
    if (fresh) continue;
    const ExperimentJob& other = plan.jobs()[it->second];
    auto describe = [](std::size_t index, const ExperimentJob& j) {
      return "cell " + std::to_string(index) + " (" + j.scenario + "/" +
             j.scheduler + " seed " + std::to_string(j.seed) + ")";
    };
    throw std::invalid_argument(
        std::string(stem->first) + ": " + describe(it->second, other) +
        " and " + describe(i, job) + " would both write '" +
        per_run_path(*stem->second, labels) + "'");
  }
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
