#include "exp/experiment.h"

#include <csignal>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "exp/journal.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace laps {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------------ stop signals --

/// The signal that asked the grid to stop; 0 = none. Written only from the
/// handler, read by workers between jobs.
std::atomic<int> g_stop_signal{0};

void stop_handler(int sig) {
  g_stop_signal.store(sig, std::memory_order_relaxed);
}

/// Installs SIGINT/SIGTERM handlers for the lifetime of one run() and
/// restores whatever was there before. Deliberately scoped: a bench that
/// never asked for signal handling (no journal) keeps the default
/// die-immediately behavior.
class SignalGuard {
 public:
  explicit SignalGuard(bool install) : installed_(install) {
    if (!installed_) return;
    g_stop_signal.store(0, std::memory_order_relaxed);
    struct sigaction sa = {};
    sa.sa_handler = stop_handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, &old_int_);
    sigaction(SIGTERM, &sa, &old_term_);
  }

  ~SignalGuard() {
    if (!installed_) return;
    sigaction(SIGINT, &old_int_, nullptr);
    sigaction(SIGTERM, &old_term_, nullptr);
  }

  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

  int signal() const {
    return installed_ ? g_stop_signal.load(std::memory_order_relaxed) : 0;
  }

 private:
  bool installed_;
  struct sigaction old_int_ = {};
  struct sigaction old_term_ = {};
};

}  // namespace

std::uint64_t ExperimentPlan::derive_seed(std::uint64_t plan_seed,
                                          std::uint64_t stream) {
  // Same construction as Rng::stream: SplitMix64 over decorrelated inputs.
  return mix64(mix64(plan_seed) ^ mix64(stream + 0x9E3779B97F4A7C15ULL));
}

std::vector<std::uint64_t> ExperimentPlan::replicate_seeds(
    std::size_t n) const {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seeds.push_back(derive_seed(plan_seed_, i));
  }
  return seeds;
}

void ExperimentPlan::add(std::string scenario, std::string scheduler,
                         std::uint64_t seed, std::function<SimReport()> run) {
  if (!run) throw std::invalid_argument("ExperimentPlan::add: null job");
  jobs_.push_back(ExperimentJob{std::move(scenario), std::move(scheduler),
                                seed, std::move(run)});
}

void ExperimentPlan::add_grid(const std::vector<std::string>& scenarios,
                              const std::vector<SchedulerSpec>& schedulers,
                              const std::vector<std::uint64_t>& seeds,
                              ScenarioBuilder build, JobRunner runner) {
  if (!build) throw std::invalid_argument("add_grid: null scenario builder");
  for (const SchedulerSpec& spec : schedulers) {
    if (!spec.make) {
      throw std::invalid_argument("add_grid: scheduler '" + spec.name +
                                  "' has no factory");
    }
  }
  for (const std::string& scenario : scenarios) {
    for (const SchedulerSpec& spec : schedulers) {
      for (std::uint64_t seed : seeds) {
        // Capture by value: the closure must be self-contained so it can run
        // on any worker thread after this frame is gone.
        auto make = spec.make;
        add(scenario, spec.name, seed,
            [scenario, make, seed, build, runner]() -> SimReport {
              const ScenarioConfig cfg = build(scenario, seed);
              auto scheduler = make();
              if (runner) return runner(cfg, *scheduler);
              return run_scenario(cfg, *scheduler);
            });
      }
    }
  }
}

ParallelRunner::ParallelRunner(std::size_t jobs, RunnerPolicy policy)
    : jobs_(resolve_jobs(jobs)), policy_(std::move(policy)) {
  if (policy_.resume && policy_.journal_path.empty()) {
    throw std::invalid_argument("ParallelRunner: resume requires a journal");
  }
}

std::vector<JobResult> ParallelRunner::run(const ExperimentPlan& plan) {
  stats_ = RunnerStats{};
  stop_signal_ = 0;
  const std::size_t total = plan.size();
  stats_.jobs_used = std::min(jobs_, total);
  const auto t0 = std::chrono::steady_clock::now();

  // Journal + per-cell fingerprints. Opening the journal validates (or
  // writes) the header before any job runs, so a stale journal fails fast.
  std::optional<ExperimentJournal> journal;
  if (!policy_.journal_path.empty()) {
    ExperimentJournal::Config cfg;
    cfg.path = policy_.journal_path;
    cfg.plan_seed = plan.plan_seed();
    cfg.salt = policy_.journal_salt;
    cfg.num_jobs = total;
    journal.emplace(std::move(cfg), policy_.resume);
  }
  std::vector<std::uint64_t> fingerprints(total);
  for (std::size_t i = 0; i < total; ++i) {
    fingerprints[i] = job_fingerprint(plan.plan_seed(), policy_.journal_salt,
                                      i, plan.jobs()[i]);
  }

  // Results are pre-sized and slot-indexed: each cell is written by exactly
  // one worker (or restored here), so no result lock is needed.
  std::vector<JobResult> results(total);
  std::vector<char> completed(total, 0);
  for (std::size_t i = 0; i < total; ++i) {
    const ExperimentJob& job = plan.jobs()[i];
    results[i].index = i;
    results[i].scenario = job.scenario;
    results[i].scheduler = job.scheduler;
    results[i].seed = job.seed;
    if (journal && policy_.resume) {
      if (const SimReport* r = journal->restore(i, fingerprints[i])) {
        results[i].report = *r;
        results[i].from_journal = true;
        completed[i] = 1;
        ++stats_.restored;
      }
    }
  }
  if (stats_.restored > 0) {
    std::fprintf(stderr, "resumed %zu/%zu cell(s) from journal %s\n",
                 stats_.restored, total, journal->path().c_str());
  }

  // Only a journaled grid can be resumed, so only it trades the default
  // die-at-once signal behaviour for a clean stop between cells.
  SignalGuard signals(journal.has_value());
  auto stop_requested = [&] { return signals.signal() != 0; };

  std::atomic<std::size_t> done{stats_.restored};

  auto run_cell = [&](std::size_t i) {
    const ExperimentJob& job = plan.jobs()[i];
    JobResult& out = results[i];
    const auto j0 = std::chrono::steady_clock::now();
    try {
      out.report = job.run();
      // Normalize labels so artifacts key on the plan's names even when a
      // scheduler self-reports differently (e.g. parameterized variants).
      out.report.scenario = job.scenario;
      out.report.scheduler = job.scheduler;
    } catch (const std::exception& e) {
      out.error = JobError{"exception", e.what()};
    } catch (...) {
      out.error = JobError{"exception", "unknown exception"};
    }
    out.wall_seconds = seconds_since(j0);
    completed[i] = 1;
    if (out.ok() && journal) {
      journal->record(i, fingerprints[i], out.report);
    }
    const std::size_t n = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (out.ok()) {
      std::fprintf(stderr, "[%zu/%zu] %s/%s seed=%llu (%.2fs)\n", n, total,
                   job.scenario.c_str(), job.scheduler.c_str(),
                   static_cast<unsigned long long>(job.seed),
                   out.wall_seconds);
    } else {
      std::fprintf(stderr, "[%zu/%zu] %s/%s seed=%llu FAILED (%s: %s)\n", n,
                   total, job.scenario.c_str(), job.scheduler.c_str(),
                   static_cast<unsigned long long>(job.seed),
                   out.error->kind.c_str(), out.error->message.c_str());
    }
  };

  // After a stop signal the remaining cells are claimed but not run; cells
  // restored from the journal are skipped.
  parallel_for(stats_.jobs_used, total, [&](std::size_t i) {
    if (!stop_requested() && !completed[i]) run_cell(i);
  });
  for (const JobResult& r : results) stats_.jobs_failed += r.ok() ? 0 : 1;

  stop_signal_ = signals.signal();
  if (stop_signal_ != 0) {
    // Mark the cells that never ran; their default reports must not be
    // mistaken for results. Journaled cells keep their records — that is
    // exactly what --resume continues from.
    for (std::size_t i = 0; i < total; ++i) {
      if (completed[i]) continue;
      results[i].error =
          JobError{"interrupted", "stopped by signal before this cell ran"};
      ++stats_.interrupted;
    }
    std::fprintf(stderr,
                 "stopped by signal %d: %zu cell(s) finished, %zu pending%s\n",
                 stop_signal_, total - stats_.interrupted, stats_.interrupted,
                 journal ? " (journaled; rerun with --resume to continue)"
                         : "");
  }

  stats_.wall_seconds = seconds_since(t0);
  for (const JobResult& r : results) stats_.job_seconds += r.wall_seconds;
  if (total > 1 && stop_signal_ == 0) {
    std::fprintf(stderr,
                 "ran %zu jobs on %zu thread(s): %.2fs wall, %.2fs cpu "
                 "(speedup %.2fx)%s\n",
                 total - stats_.restored, stats_.jobs_used,
                 stats_.wall_seconds, stats_.job_seconds, stats_.speedup(),
                 stats_.jobs_failed > 0 ? " [FAILURES]" : "");
  }
  return results;
}

}  // namespace laps
