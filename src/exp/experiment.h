#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/runner.h"

namespace laps {

/// A named scheduler recipe. The factory is called once per job, on the
/// worker thread, so each job owns a fresh scheduler instance — schedulers
/// are stateful and must never be shared across concurrent runs.
struct SchedulerSpec {
  std::string name;
  std::function<std::unique_ptr<Scheduler>()> make;
};

/// One grid cell: its labels, and how to run it by itself.
struct ExperimentJob {
  std::string scenario;
  std::string scheduler;
  std::uint64_t seed = 0;
  /// Runs this cell alone. A grouped cell runs its group with only itself
  /// in it, which reports exactly what the cell reports inside the group.
  std::function<SimReport()> run;
};

/// Cells that run together, in lockstep off one traffic stream
/// (run_lockstep). Every cell of a plan belongs to exactly one group: an
/// `add` cell, or a grid cell with a caller-supplied JobRunner, is a group
/// of one.
struct ExperimentGroup {
  std::vector<std::size_t> cells;  ///< plan indices, ascending
  /// Runs the cells at positions `members` of `cells` (ascending) and
  /// returns one outcome per member, in order. Throws only when nothing the
  /// members share could be built or run (the scenario, its traffic); the
  /// runner then fails every member with that error.
  std::function<std::vector<CellOutcome>(
      std::span<const std::size_t> members)>
      run;
};

/// Why a grid cell has no (trustworthy) report. A failed cell is contained:
/// the rest of the grid still runs, the artifact still gets written, and
/// the harness exit code turns nonzero with the failed cells listed.
struct JobError {
  /// "exception" (the job threw) or "interrupted" (a stop signal arrived
  /// before the cell ran).
  std::string kind;
  std::string message;
};

/// Result of one job, in plan order.
struct JobResult {
  std::size_t index = 0;
  std::string scenario;
  std::string scheduler;
  std::uint64_t seed = 0;
  SimReport report;
  /// Per-job wall clock: a group's wall clock split evenly over the cells
  /// it ran (not in JSON artifacts).
  double wall_seconds = 0.0;
  /// Engaged when the cell failed permanently; `report` is then
  /// default-constructed and must not feed tables.
  std::optional<JobError> error;
  bool from_journal = false;  ///< restored from a --resume journal, not run

  bool ok() const { return !error.has_value(); }
};

/// Resilience policy for a runner. Crash containment is always on; the
/// journal is opt-in. A runner with a journal also installs SIGINT/SIGTERM
/// handlers for the duration of run(): on signal, workers finish (journal)
/// their current group and stop claiming new ones, so --resume continues
/// where the grid stopped.
struct RunnerPolicy {
  /// Completion journal path; empty = no journal. See exp/journal.h.
  std::string journal_path;
  /// With a journal: replay already-journaled cells instead of rerunning
  /// them. The replayed reports are bit-identical to a fresh run's.
  bool resume = false;
  /// Folded into every job fingerprint; the harness hashes in every flag
  /// that can change job output (make_runner) so a journal from a
  /// differently-configured run never resumes silently.
  std::uint64_t journal_salt = 0;
};

/// An ordered list of simulation jobs (cells), partitioned into groups:
/// the cells of one scenario and seed run in lockstep off one traffic
/// stream (run_lockstep), and groups are independent of each other.
///
/// The plan, not the runner, owns randomness: every job's seed is derived
/// deterministically from `plan_seed` and the job's position in the grid, so
/// results depend only on the plan — never on thread count, grouping or
/// completion order.
class ExperimentPlan {
 public:
  explicit ExperimentPlan(std::uint64_t plan_seed = 2013)
      : plan_seed_(plan_seed) {}

  std::uint64_t plan_seed() const { return plan_seed_; }

  /// Independent seed for sub-stream `stream` of `plan_seed`.
  static std::uint64_t derive_seed(std::uint64_t plan_seed,
                                   std::uint64_t stream);

  /// `n` replication seeds: derive_seed(plan_seed, 0..n-1).
  std::vector<std::uint64_t> replicate_seeds(std::size_t n) const;

  /// Adds one job, a group of one. `run` must be self-contained (capture
  /// by value) and callable from any thread.
  void add(std::string scenario, std::string scheduler, std::uint64_t seed,
           std::function<SimReport()> run);

  /// Builds `scenario_id` into a ScenarioConfig for one (seed) replication.
  using ScenarioBuilder =
      std::function<ScenarioConfig(const std::string& scenario_id,
                                   std::uint64_t seed)>;

  /// Executes one built job by itself. A grid given one runs each cell as
  /// a group of one (perfbench's traced and replayed cells). Must be
  /// callable from any worker thread.
  using JobRunner =
      std::function<SimReport(const ScenarioConfig&, Scheduler&)>;

  /// Runs the cells of one group over the group's one built config and
  /// returns one outcome per cell, in order. Each cell arrives with a fresh
  /// scheduler, its plan label and no probes. The default (empty) runner
  /// is run_lockstep; benches that expose observability flags pass
  /// observed_runner (exp/harness.h), which attaches each cell's probes
  /// and writes its files. Must be callable from any worker thread.
  using GroupRunner = std::function<std::vector<CellOutcome>(
      const ScenarioConfig&, std::span<const LockstepCell>)>;

  /// Expands the full scenario x scheduler x seed grid, scenario-major (the
  /// traversal order of the serial bench loops, so tables read the same).
  /// The cells that share a scenario and a seed form one group: at run
  /// time the group builds its config once and runs every scheduler over
  /// one traffic stream. An empty `runner` is the empty GroupRunner; a
  /// JobRunner runs each cell by itself, building its own config.
  void add_grid(const std::vector<std::string>& scenarios,
                const std::vector<SchedulerSpec>& schedulers,
                const std::vector<std::uint64_t>& seeds,
                ScenarioBuilder build, JobRunner runner = {});
  void add_grid(const std::vector<std::string>& scenarios,
                const std::vector<SchedulerSpec>& schedulers,
                const std::vector<std::uint64_t>& seeds,
                ScenarioBuilder build, GroupRunner runner);

  const std::vector<ExperimentJob>& jobs() const { return jobs_; }
  /// The plan's groups, ordered by their first cell.
  const std::vector<ExperimentGroup>& groups() const { return groups_; }
  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }

 private:
  std::uint64_t plan_seed_;
  std::vector<ExperimentJob> jobs_;
  std::vector<ExperimentGroup> groups_;
};

/// Aggregate timing of one runner invocation (stderr-only; never part of
/// JSON artifacts, which must be byte-identical across --jobs values).
struct RunnerStats {
  double wall_seconds = 0.0;  ///< end-to-end wall clock of run()
  double job_seconds = 0.0;   ///< sum of per-job wall clocks
  std::size_t jobs_used = 0;  ///< worker threads actually used
  std::size_t jobs_failed = 0;  ///< cells whose job threw
  std::size_t restored = 0;     ///< cells replayed from the journal
  std::size_t interrupted = 0;  ///< cells never run (stop signal)
  double speedup() const {
    return wall_seconds > 0 ? job_seconds / wall_seconds : 0.0;
  }
};

/// Executes a plan's groups on `jobs` worker threads (parallel_for,
/// util/parallel.h), whole groups at a time, and returns results in plan
/// order.
///
/// Determinism contract: for a fixed plan, the returned reports are
/// identical whatever `jobs` is — each group is a self-contained closure
/// with its own config, schedulers, and derived seed, and a cell reports
/// the same inside its group as alone; nothing about scheduling order can
/// leak into a SimReport. Only RunnerStats and per-job wall clocks vary
/// across thread counts.
class ParallelRunner {
 public:
  /// `jobs` = worker threads; 0 = hardware concurrency; 1 = run inline.
  /// `policy` adds the journal (and with it signal handling); the default
  /// policy runs the grid without one.
  explicit ParallelRunner(std::size_t jobs = 1, RunnerPolicy policy = {});

  /// Runs every group; reports progress on stderr as cells finish, and
  /// journals each cell.
  ///
  /// Every cell runs once: cells are deterministic, so a rerun would only
  /// repeat the outcome. A stop signal is honoured between groups. On
  /// --resume a group runs again only for its cells the journal lacks.
  /// Containment contract: a throwing job never propagates out of run().
  /// The exception is captured as the cell's JobError — a scheduler that
  /// throws fails its own cell, while its group's siblings finish — every
  /// other cell still runs, and callers decide the exit code from the
  /// results (see harness grid_exit_code). Only plan/setup errors (bad
  /// policy, corrupt journal) throw.
  std::vector<JobResult> run(const ExperimentPlan& plan);

  /// Nonzero when a handled SIGINT/SIGTERM stopped the previous run()
  /// early: the signal number. The harness maps it to exit code 128+sig.
  int stop_signal() const { return stop_signal_; }

  const RunnerPolicy& policy() const { return policy_; }

  const RunnerStats& stats() const { return stats_; }
  std::size_t jobs() const { return jobs_; }

 private:
  std::size_t jobs_;
  RunnerPolicy policy_;
  RunnerStats stats_;
  int stop_signal_ = 0;
};

}  // namespace laps
