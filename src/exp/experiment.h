#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

/// One independent unit of work: build config + scheduler, run, report.
struct ExperimentJob {
  std::string scenario;
  std::string scheduler;
  std::uint64_t seed = 0;
  std::function<SimReport()> run;
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
  double wall_seconds = 0.0;  ///< per-job wall clock (not in JSON artifacts)
  /// Engaged when the cell failed permanently; `report` is then
  /// default-constructed and must not feed tables.
  std::optional<JobError> error;
  bool from_journal = false;  ///< restored from a --resume journal, not run

  bool ok() const { return !error.has_value(); }
};

/// Resilience policy for a runner. Crash containment is always on; the
/// journal is opt-in. A runner with a journal also installs SIGINT/SIGTERM
/// handlers for the duration of run(): on signal, workers finish (journal)
/// their current cell and stop claiming new ones, so --resume continues
/// where the grid stopped.
struct RunnerPolicy {
  /// Completion journal path; empty = no journal. See exp/journal.h.
  std::string journal_path;
  /// With a journal: replay already-journaled cells instead of rerunning
  /// them. The replayed reports are bit-identical to a fresh run's.
  bool resume = false;
  /// Folded into every job fingerprint; the harness hashes in the option
  /// that changes job output (the fault spec) so a journal from a
  /// differently-configured run never resumes silently.
  std::uint64_t journal_salt = 0;
};

/// An ordered list of independent simulation jobs.
///
/// The plan, not the runner, owns randomness: every job's seed is derived
/// deterministically from `plan_seed` and the job's position in the grid, so
/// results depend only on the plan — never on thread count or completion
/// order.
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

  /// Adds one job. `run` must be self-contained (capture by value) and
  /// callable from any thread.
  void add(std::string scenario, std::string scheduler, std::uint64_t seed,
           std::function<SimReport()> run);

  /// Builds `scenario_id` into a ScenarioConfig for one (seed) replication.
  using ScenarioBuilder =
      std::function<ScenarioConfig(const std::string& scenario_id,
                                   std::uint64_t seed)>;

  /// Executes one built job. The default (empty) runner is run_scenario;
  /// benches that expose observability flags pass a wrapper around
  /// run_observed instead. Must be callable from any worker thread.
  using JobRunner =
      std::function<SimReport(const ScenarioConfig&, Scheduler&)>;

  /// Expands the full scenario x scheduler x seed grid, scenario-major (the
  /// traversal order of the serial bench loops, so tables read the same).
  /// Each job builds its own config and scheduler at run time.
  void add_grid(const std::vector<std::string>& scenarios,
                const std::vector<SchedulerSpec>& schedulers,
                const std::vector<std::uint64_t>& seeds,
                ScenarioBuilder build, JobRunner runner = {});

  const std::vector<ExperimentJob>& jobs() const { return jobs_; }
  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }

 private:
  std::uint64_t plan_seed_;
  std::vector<ExperimentJob> jobs_;
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

/// Executes a plan on `jobs` worker threads (parallel_for, util/parallel.h)
/// and returns results in plan order.
///
/// Determinism contract: for a fixed plan, the returned reports are
/// identical whatever `jobs` is — each job is a self-contained closure with
/// its own config, scheduler, and derived seed; nothing about scheduling
/// order can leak into a SimReport. Only RunnerStats and per-job wall
/// clocks vary across thread counts.
class ParallelRunner {
 public:
  /// `jobs` = worker threads; 0 = hardware concurrency; 1 = run inline.
  /// `policy` adds the journal (and with it signal handling); the default
  /// policy runs the grid without one.
  explicit ParallelRunner(std::size_t jobs = 1, RunnerPolicy policy = {});

  /// Runs every job; reports progress on stderr as jobs finish.
  ///
  /// Every cell runs once: cells are deterministic, so a rerun would only
  /// repeat the outcome. Containment contract: a throwing job never
  /// propagates out of run(). The exception is captured as the cell's
  /// JobError, every other cell still runs, and callers decide the exit
  /// code from the results (see harness grid_exit_code). Only plan/setup
  /// errors (bad policy, corrupt journal) throw.
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
