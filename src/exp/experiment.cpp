#include "exp/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exp/journal.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace laps {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

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
  groups_.push_back(ExperimentGroup{
      {jobs_.size()}, [run](std::span<const std::size_t>) {
        return std::vector<CellOutcome>{{run(), nullptr}};
      }});
  jobs_.push_back(ExperimentJob{std::move(scenario), std::move(scheduler),
                                seed, std::move(run)});
}

namespace {

void require_factories(const std::vector<SchedulerSpec>& schedulers,
                       const ExperimentPlan::ScenarioBuilder& build) {
  if (!build) throw std::invalid_argument("add_grid: null scenario builder");
  for (const SchedulerSpec& spec : schedulers) {
    if (!spec.make) {
      throw std::invalid_argument("add_grid: scheduler '" + spec.name +
                                  "' has no factory");
    }
  }
}

}  // namespace

void ExperimentPlan::add_grid(const std::vector<std::string>& scenarios,
                              const std::vector<SchedulerSpec>& schedulers,
                              const std::vector<std::uint64_t>& seeds,
                              ScenarioBuilder build, JobRunner runner) {
  if (!runner) {
    add_grid(scenarios, schedulers, seeds, std::move(build), GroupRunner{});
    return;
  }
  require_factories(schedulers, build);
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
              return runner(cfg, *scheduler);
            });
      }
    }
  }
}

void ExperimentPlan::add_grid(const std::vector<std::string>& scenarios,
                              const std::vector<SchedulerSpec>& schedulers,
                              const std::vector<std::uint64_t>& seeds,
                              ScenarioBuilder build, GroupRunner runner) {
  require_factories(schedulers, build);
  if (schedulers.empty()) return;
  if (!runner) runner = run_lockstep;
  // Scenario-major cell order, as the serial bench loops traverse it: the
  // cell of (scenario s, scheduler k, seed j) sits at
  // first + (s * schedulers + k) * seeds + j.
  const std::size_t first = jobs_.size();
  const std::size_t per_scenario = schedulers.size() * seeds.size();
  for (const std::string& scenario : scenarios) {
    for (const SchedulerSpec& spec : schedulers) {
      for (std::uint64_t seed : seeds) {
        jobs_.push_back(ExperimentJob{scenario, spec.name, seed, {}});
      }
    }
  }
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t j = 0; j < seeds.size(); ++j) {
      ExperimentGroup group;
      for (std::size_t k = 0; k < schedulers.size(); ++k) {
        group.cells.push_back(first + s * per_scenario + k * seeds.size() + j);
      }
      // Self-contained, like every job closure: it runs on any worker
      // thread after this frame is gone.
      group.run = [scenario = scenarios[s], seed = seeds[j], schedulers,
                   build, runner](std::span<const std::size_t> members) {
        const ScenarioConfig config = build(scenario, seed);
        std::vector<CellOutcome> out(members.size());
        std::vector<std::unique_ptr<Scheduler>> owned;
        std::vector<LockstepCell> cells;
        std::vector<std::size_t> slot;  // member position of each cell
        for (std::size_t m = 0; m < members.size(); ++m) {
          const SchedulerSpec& spec = schedulers[members[m]];
          try {
            owned.push_back(spec.make());
          } catch (...) {
            out[m].error = std::current_exception();
            continue;
          }
          cells.push_back(
              LockstepCell{owned.back().get(), {}, 0, scenario, spec.name});
          slot.push_back(m);
        }
        std::vector<CellOutcome> ran = runner(config, cells);
        for (std::size_t c = 0; c < cells.size(); ++c) {
          out[slot[c]] = std::move(ran[c]);
        }
        return out;
      };
      for (std::size_t k = 0; k < schedulers.size(); ++k) {
        const std::size_t member = k;
        jobs_[group.cells[k]].run = [run = group.run, member]() {
          std::vector<CellOutcome> out = run({&member, 1});
          if (out.front().error) std::rethrow_exception(out.front().error);
          return std::move(out.front().report);
        };
      }
      groups_.push_back(std::move(group));
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
  const std::size_t total = plan.size();
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
        ++stats_.restored;
      }
    }
  }
  if (stats_.restored > 0) {
    std::fprintf(stderr, "resumed %zu/%zu cell(s) from journal %s\n",
                 stats_.restored, total, journal->path().c_str());
  }

  std::atomic<std::size_t> done{stats_.restored};

  auto finish_cell = [&](std::size_t i, CellOutcome outcome, double wall) {
    const ExperimentJob& job = plan.jobs()[i];
    JobResult& out = results[i];
    if (outcome.error) {
      try {
        std::rethrow_exception(outcome.error);
      } catch (const std::exception& e) {
        out.error = JobError{e.what()};
      } catch (...) {
        out.error = JobError{"unknown exception"};
      }
    } else {
      out.report = std::move(outcome.report);
      // Normalize labels so artifacts key on the plan's names even when a
      // scheduler self-reports differently (e.g. parameterized variants).
      out.report.scenario = job.scenario;
      out.report.scheduler = job.scheduler;
    }
    out.wall_seconds = wall;
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
      std::fprintf(stderr, "[%zu/%zu] %s/%s seed=%llu FAILED (exception: %s)\n",
                   n, total, job.scenario.c_str(), job.scheduler.c_str(),
                   static_cast<unsigned long long>(job.seed),
                   out.error->message.c_str());
    }
  };

  // Whole groups go to the workers. A group runs only its cells that are
  // not restored from the journal.
  const std::vector<ExperimentGroup>& groups = plan.groups();
  stats_.jobs_used = std::min(jobs_, groups.size());
  parallel_for(stats_.jobs_used, groups.size(), [&](std::size_t g) {
    const ExperimentGroup& group = groups[g];
    std::vector<std::size_t> members;
    for (std::size_t m = 0; m < group.cells.size(); ++m) {
      if (!results[group.cells[m]].from_journal) members.push_back(m);
    }
    if (members.empty()) return;
    const auto g0 = std::chrono::steady_clock::now();
    std::vector<CellOutcome> outcomes;
    try {
      outcomes = group.run(members);
    } catch (...) {
      outcomes.assign(members.size(),
                      CellOutcome{{}, std::current_exception()});
    }
    const double wall =
        seconds_since(g0) / static_cast<double>(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      finish_cell(group.cells[members[m]], std::move(outcomes[m]), wall);
    }
  });
  for (const JobResult& r : results) stats_.jobs_failed += r.ok() ? 0 : 1;

  stats_.wall_seconds = seconds_since(t0);
  for (const JobResult& r : results) stats_.job_seconds += r.wall_seconds;
  if (total > 1) {
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
