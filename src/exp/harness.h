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
  /// Per-run observability probes (SimEngine tentpole). Paths are stems:
  /// each simulation run writes <stem>.<scenario>.<scheduler>.<seed><ext>.
  std::string trace_path;              ///< empty = no ChromeTraceProbe
  // Flow-audit observability (see sim/flow_audit.h, sim/afd_accuracy.h,
  // sim/flight_recorder.h).
  std::string flow_audit_path;         ///< empty = no FlowAuditProbe
  std::size_t flow_audit_top = 16;     ///< attribution k
  std::size_t flow_audit_rows = 256;   ///< per-flow rows in artifact; 0 = all
  std::string afd_accuracy_path;       ///< empty = no AfdAccuracyProbe
  std::size_t afd_accuracy_k = 16;     ///< ground-truth top-k
  double afd_accuracy_window_us = 100.0;  ///< sampling epoch width
  std::string flight_path;             ///< empty = no FlightRecorderProbe
  std::size_t flight_capacity = 4096;  ///< event-ring size
  std::uint64_t flight_drop_storm = 64;    ///< drops/window trigger; 0 = off
  std::uint64_t flight_ooo_spike = 256;    ///< OOO/window trigger; 0 = off
  double flight_window_us = 100.0;     ///< anomaly-counting window
  bool flight_dump = false;            ///< dump even without an anomaly
  // Live telemetry (src/telemetry): epoch-cadence metric snapshots.
  bool telemetry = false;              ///< --telemetry[=interval] given (or
                                       ///< implied by an output path below)
  TimeNs telemetry_interval = 100 * kMicrosecond;  ///< snapshot cadence
  std::string telemetry_out;           ///< JSONL stream stem; empty = none
  std::string telemetry_prom;          ///< Prometheus exposition stem
  // Fault injection (sim/fault.h).
  std::string faults_spec;             ///< raw --faults grammar, for display
  std::shared_ptr<const FaultPlan> faults;  ///< parsed plan; null = none
  std::string fault_timeline_path;     ///< empty = no FaultProbe artifact
  /// Raw --scheduler value (semicolon-separated registry specs), for
  /// display; empty = flag not given.
  std::string scheduler_list;
  /// Parsed --scheduler specs. Empty = the binary's built-in scheduler
  /// table; see schedulers_or().
  std::vector<SchedulerSpec> schedulers;
  // Cluster mode (src/cluster): shard the engine behind a front-end
  // dispatcher. shards=1 with the default pass dispatcher is proven
  // byte-identical to the single-engine path.
  std::size_t shards = 1;          ///< --shards=N SimEngine shards
  std::string dispatch_spec;       ///< raw --dispatch spec list (validated
                                   ///< eagerly); empty = flag not given and
                                   ///< the binary's defaults apply
  TimeNs cluster_sync = 100 * kMicrosecond;  ///< sync-window width
  // Resilience (see exp/experiment.h RunnerPolicy, exp/journal.h).
  std::string journal_path;  ///< completion journal; empty = none
  bool resume = false;       ///< replay journaled cells (--resume)
};

/// Consumes the flags every experiment binary shares:
///   --jobs=N                  worker threads (default 1; 0 = hardware conc.)
///   --json=P                  write a laps-bench-v1 JSON artifact to P
///   --trace-out=P             per-run chrome://tracing JSON (stem P)
///   --flow-audit=P            per-run per-flow audit JSON (stem P)
///   --flow-audit-top=K        attribution top-k (default 16)
///   --flow-audit-rows=N       per-flow rows in the artifact (0 = all)
///   --afd-accuracy=P          per-run online AFD accuracy series (stem P)
///   --afd-accuracy-k=K        ground-truth top-k (default 16)
///   --afd-accuracy-window-us=N  sampling interval (default 100 us); must
///                             equal the --telemetry interval when both run
///   --flight-recorder=P       per-run flight-recorder dump (stem P);
///                             written only on anomaly or --flight-dump
///   --flight-capacity=N       event-ring size (default 4096)
///   --flight-drop-storm=N     drops/window that trigger a dump (0 = off)
///   --flight-ooo-spike=N      OOO/window that trigger a dump (0 = off)
///   --flight-window-us=N      anomaly window width (default 100 us)
///   --flight-dump             dump the ring even without an anomaly
///   --telemetry[=D]           live telemetry snapshots every D of simulated
///                             time (util::parse_duration suffixes: "250us",
///                             "2ms", bare = ns; default 100us). Implied by
///                             the two output flags below.
///   --telemetry-out=P         per-run JSONL (stem P): the windowed series,
///                             one snapshot per interval, final totals and
///                             run labels last (EXPERIMENTS.md)
///   --telemetry-prom=P        per-run Prometheus text exposition (stem P)
///   --faults=SPEC             fault schedule (parse_fault_plan grammar,
///                             e.g. "down:3@10ms;up:3@30ms")
///   --fault-timeline=P        per-run fault timeline + recovery metrics
///                             (stem P); requires --faults
///   --scheduler=LIST          semicolon-separated scheduler registry specs
///                             (e.g. "fcfs;laps:afc=64,idle_th=5us,power=1")
///                             replacing the binary's built-in table; an
///                             unknown name or parameter fails fast listing
///                             the valid ones (exp/scheduler_registry.h)
///   --shards=N                cluster mode: N independent SimEngine shards
///                             behind a front-end dispatcher (default 1)
///   --dispatch=LIST           semicolon-separated dispatcher registry
///                             specs (e.g. "rss;fdir:slots=4096;affinity"),
///                             validated eagerly with the same fail-fast
///                             errors as --scheduler
///                             (exp/dispatcher_registry.h)
///   --cluster-sync=D          cluster sync-window width (parse_duration:
///                             "100us", "1ms"; default 100us)
///   --journal=P               durable completion journal: one fsync'd
///                             record per finished cell, so an interrupted
///                             grid (SIGINT/SIGTERM/SIGKILL) can continue
///   --resume                  with --journal: replay already-journaled
///                             cells; final artifacts are byte-identical to
///                             an uninterrupted run
/// Call before flags.finish().
HarnessOptions parse_harness_flags(Flags& flags);

/// Builds the runner for a harness-configured grid: worker count from
/// --jobs plus a RunnerPolicy carrying --journal and --resume. The journal
/// salt hashes every option that changes job output (fault spec, cluster
/// shape) so a journal recorded under different options refuses to resume.
/// The runner handles SIGINT/SIGTERM exactly when a journal is configured.
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
/// run_scenario, zero probe overhead). Artifact filenames are derived from
/// the configured stem plus (config.name, scheduler.name(), config.seed),
/// so concurrent grid jobs write distinct files. Safe to call from any
/// worker thread.
SimReport run_observed(const ScenarioConfig& config, Scheduler& scheduler,
                       const HarnessOptions& opts);

/// `run_observed` packaged for ExperimentPlan::add_grid. Returns an empty
/// runner when `opts` configures no probes, so unobserved grids keep the
/// plain run_scenario fast path.
ExperimentPlan::JobRunner observed_runner(const HarnessOptions& opts);

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
