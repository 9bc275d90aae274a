#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/tableio.h"

namespace laps {

/// Common experiment-binary options parsed from the shared flags.
struct HarnessOptions {
  std::size_t jobs = 1;   ///< worker threads (0 was resolved to h/w conc.)
  std::string json_path;  ///< empty = no JSON artifact
  /// Per-run observability probes. Paths are stems: each simulation run
  /// writes <stem>.<scenario>.<scheduler>.<seed><ext>, where <scheduler>
  /// is the grid's cell label (see observed_runner).
  std::string trace_path;              ///< empty = no whole-run trace
  // Flow-audit observability (see sim/flow_audit.h, sim/afd_accuracy.h,
  // sim/flight_recorder.h). Both top-k's are 16, the AFC size, and the
  // flight recorder keeps its default ring and triggers.
  std::string flow_audit_path;         ///< empty = no FlowAuditProbe
  std::size_t flow_audit_rows = 256;   ///< per-flow rows in artifact; 0 = all
  std::string afd_accuracy_path;       ///< empty = no AfdAccuracyProbe
  std::string flight_path;             ///< empty = no FlightRecorderProbe
  bool flight_dump = false;            ///< dump even without an anomaly
  // Live telemetry (sim/telemetry.h): epoch-cadence metric snapshots.
  bool telemetry = false;              ///< --telemetry[=interval] given (or
                                       ///< implied by --telemetry-out)
  /// The run's one cadence: telemetry snapshots and AFD accuracy samples
  /// are taken at this interval of simulated time, and the flight recorder
  /// counts its anomalies in windows this wide.
  TimeNs telemetry_interval = 100 * kMicrosecond;
  std::string telemetry_out;           ///< JSONL stream stem; empty = none
  // Fault injection (sim/fault.h).
  std::shared_ptr<const FaultPlan> faults;  ///< parsed --faults; null = none
  std::string fault_timeline_path;     ///< empty = no FaultProbe artifact
  /// Parsed --scheduler specs. Empty = the binary's built-in scheduler
  /// table; see schedulers_or().
  std::vector<SchedulerSpec> schedulers;
  // Resilience (see exp/experiment.h RunnerPolicy, exp/journal.h).
  std::string journal_path;  ///< completion journal; empty = none
  bool resume = false;       ///< replay journaled cells (--resume)
  /// Hash of the flags that can change a cell's report (make_runner).
  std::uint64_t journal_salt = 0;
};

/// Consumes the shared flags of a binary that runs a simulation grid:
///   --jobs=N                  worker threads (default 1; 0 = hardware conc.)
///   --json=P                  write a laps-bench-v1 JSON artifact to P
///   --trace-out=P             per-run chrome://tracing JSON (stem P): an
///                             unbounded FlightRecorderProbe, every event
///   --flow-audit=P            per-run per-flow audit JSON (stem P),
///                             attribution top-16
///   --flow-audit-rows=N       per-flow rows in the artifact (0 = all)
///   --afd-accuracy=P          per-run online AFD accuracy series (stem P)
///                             against the ground-truth top-16, sampled
///                             every --telemetry interval
///   --flight-recorder=P       per-run flight-recorder dump (stem P) of a
///                             4,096-event ring; written only when a
///                             --telemetry window holds 64 drops or 256 OOO
///                             departures, or with --flight-dump
///   --flight-dump             dump the ring even without an anomaly
///   --telemetry[=D]           the run's one cadence, D of simulated time
///                             (util::parse_duration suffixes: "250us",
///                             "2ms", bare = ns; default 100us): telemetry
///                             snapshots for --telemetry-out and
///                             --trace-out, --afd-accuracy samples and
///                             flight-recorder windows. Implied by
///                             --telemetry-out.
///   --telemetry-out=P         per-run JSONL (stem P): the windowed series,
///                             one snapshot per interval, final totals and
///                             run labels last (EXPERIMENTS.md)
///   --faults=SPEC             fault schedule (parse_fault_plan grammar,
///                             e.g. "down:3@10ms;up:3@30ms")
///   --fault-timeline=P        per-run fault timeline + recovery metrics
///                             (stem P); requires --faults
///   --scheduler=LIST          semicolon-separated scheduler registry specs
///                             (e.g. "fcfs;laps:afc=64,idle_th=5us,power=1")
///                             replacing the binary's built-in table; an
///                             unknown name or parameter fails fast listing
///                             the valid ones (exp/scheduler_registry.h)
///   --journal=P               durable completion journal: one fsync'd
///                             record per finished cell, so an interrupted
///                             grid (SIGINT/SIGTERM/SIGKILL) can continue
///   --resume                  with --journal: replay already-journaled
///                             cells; final artifacts are byte-identical to
///                             an uninterrupted run
/// A journal written under one set of flags refuses --resume under another
/// (see make_runner). Call before flags.finish().
HarnessOptions parse_harness_flags(Flags& flags);

/// The --json flag alone, its directory checked at startup as
/// parse_harness_flags checks it: for a binary that runs no simulation grid
/// and so takes none of the other shared flags (a binary that spreads work
/// over threads reads --jobs itself). Call before flags.finish().
std::string parse_json_flag(Flags& flags);

/// The runner part of parse_harness_flags alone: --jobs, --json,
/// --scheduler, --journal and --resume. For a grid that attaches its own
/// probes and draws its own fault plans (chaos_soak), so that a probe or
/// fault flag fails at flags.finish() as unknown instead of being ignored.
/// Call before flags.finish().
HarnessOptions parse_runner_flags(Flags& flags);

/// The shared flags of a binary that runs one cell through run_observed,
/// without a runner: --json, --scheduler and the probe and fault flags of
/// parse_harness_flags. --jobs, --journal and --resume stay unread, so
/// flags.finish() rejects them as unknown. Call before flags.finish().
HarnessOptions parse_observed_flags(Flags& flags);

/// Builds the runner for a harness-configured grid: worker count from
/// --jobs plus a RunnerPolicy carrying --journal and --resume. The journal
/// salt hashes every flag the binary was given except --jobs, --journal,
/// --resume and --json, which cannot change a cell's report, so a journal
/// recorded under other flags (another --seconds, --scheduler parameter or
/// fault plan) refuses to resume. The runner handles SIGINT/SIGTERM
/// exactly when a journal is configured.
ParallelRunner make_runner(const HarnessOptions& opts);

/// Nonzero (128 + signal) when the previous run() was stopped by a handled
/// signal — the main should write no tables/artifacts and exit with this.
int grid_abort_code(const ParallelRunner& runner);

/// Final exit code for a completed grid: 0 when every cell succeeded, 1
/// otherwise — after printing one stderr line per failed cell (scenario,
/// scheduler, seed, error kind, message).
int grid_exit_code(const std::vector<JobResult>& results);

/// The schedulers a grid should run: the --scheduler specs when given,
/// otherwise the binary's built-in `defaults` table. Every bench/example
/// main routes its scheduler table through this, which is what makes the
/// registry the single entry point for scheduler selection.
std::vector<SchedulerSpec> schedulers_or(const HarnessOptions& opts,
                                         std::vector<SchedulerSpec> defaults);

/// Runs one scenario through the SimEngine with whatever observability
/// probes `opts` configures attached (none configured = plain
/// run_scenario, zero probe overhead): the one-cell case of
/// observed_runner. Artifact filenames are derived from the configured
/// stem plus (config.name, scheduler.name(), config.seed). Safe to call
/// from any worker thread.
SimReport run_observed(const ScenarioConfig& config, Scheduler& scheduler,
                       const HarnessOptions& opts);

/// The group runner of an observed grid (ExperimentPlan::add_grid): every
/// cell of a group gets the probes `opts` configures, the group runs in
/// lockstep, and then each finished cell writes its files, named by the
/// configured stem plus the plan's labels for the cell (scenario,
/// scheduler) and config.seed — so parameterized variants with display
/// names ("LAPS top-4"), and rows that differ only in their scenario
/// label, get files of their own. Returns an empty runner when `opts`
/// configures no probe and no fault plan, so unobserved grids take the
/// plain path.
ExperimentPlan::GroupRunner observed_runner(const HarnessOptions& opts);

/// Throws std::invalid_argument, naming both cells and the path, when two
/// cells of a grid built with observed_runner would write the same
/// per-run file (two cells with one label, e.g. `--scheduler=
/// "laps:afc=4;laps:afc=8"`, which both read "LAPS"). No-op when `opts`
/// configures no per-run file. Call it after add_grid, before the grid
/// runs.
void check_per_run_paths(const ExperimentPlan& plan,
                         const HarnessOptions& opts);

/// Runs `body`, converting exceptions (unknown flags, bad arguments, failed
/// calibration) into an error on stderr and a nonzero exit code instead of
/// std::terminate. Every bench/example main() delegates here.
int guarded_main(int argc, char** argv, int (*body)(Flags&));

/// A titled table included in a JSON artifact.
struct ArtifactTable {
  std::string title;
  const Table* table = nullptr;
};

/// Serializes results + tables as a `laps-bench-v1` artifact:
///   {"schema":"laps-bench-v1","tool":...,"reports":[{scenario, scheduler,
///    seed, report:{...}}],"tables":[{title, headers, rows}]}
/// Contains only simulation results — no wall clocks, host info, or thread
/// counts — so the bytes are identical for any --jobs value.
std::string artifact_json(const std::string& tool,
                          const std::vector<JobResult>& results,
                          const std::vector<ArtifactTable>& tables = {});

/// Writes `artifact_json(...)` to `path` (no-op when `path` is empty).
/// Throws std::runtime_error if the file cannot be written.
void write_json_artifact(const std::string& path, const std::string& tool,
                         const std::vector<JobResult>& results,
                         const std::vector<ArtifactTable>& tables = {});

}  // namespace laps
