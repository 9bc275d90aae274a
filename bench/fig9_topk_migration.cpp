// Reproduces paper Fig. 9 — the benefit of migrating only the top
// aggressive flows, relative to AFS, with a single active service (IP
// forwarding) and input slightly above the ideal capacity:
//   (a) packets dropped relative to AFS (no-migration and top-K LAPS),
//   (b) out-of-order packets relative to AFS,
//   (c) number of flow migrations relative to AFS.
// Also includes the Shi-style exact-statistics oracle as a reference.
//
// Usage: fig9_topk_migration [--seconds=S] [--seed=N] [--cores=N]
//                            [--load=1.05] [--traces=...|all] [--jobs=N]
//                            [--json=PATH] [--scheduler=LIST]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/scenarios.h"
#include "trace/synthetic.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

std::string rel(std::uint64_t value, std::uint64_t base) {
  if (base == 0) return value == 0 ? "1.00" : "inf";
  return laps::Table::num(static_cast<double>(value) /
                              static_cast<double>(base),
                          2);
}

int run(laps::Flags& flags) {
  laps::ScenarioOptions options;
  options.seconds = flags.get_double("seconds", 0.05);
  options.seed = flags.get_uint("seed", 99);
  options.num_cores = flags.get_uint("cores", 16);
  const double load = flags.get_double("load", 1.05);
  const auto traces =
      flags.get_list("traces", "caida1,caida2,auck1,auck2",
                     laps::trace_registry_names());
  const auto harness = laps::parse_harness_flags(flags);
  flags.finish();

  std::printf("=== Fig. 9: single service (IP forwarding), %zu cores, "
              "%.0f%% of ideal capacity, %.2f s ===\n",
              options.num_cores, load * 100.0, options.seconds);
  std::printf("All ratios are relative to AFS (paper's presentation).\n\n");

  auto store = std::make_shared<laps::TraceStore>();
  options.trace_factory = store->factory();

  // Registry specs; --scheduler=LIST replaces the whole table. Display
  // names for the top-K sweep are overridden so artifact/table bytes keep
  // the paper's "LAPS top-K" labels.
  std::vector<laps::SchedulerSpec> defaults = {
      laps::make_scheduler_spec("afs"),
      laps::make_scheduler_spec("hash"),
  };
  for (std::size_t k : {4u, 8u, 10u, 16u}) {
    defaults.push_back(laps::make_scheduler_spec(
        "laps:services=1,afc=" + std::to_string(k),
        "LAPS top-" + std::to_string(k)));
  }
  defaults.push_back(laps::make_scheduler_spec("oracle"));
  const auto schedulers = laps::schedulers_or(harness, std::move(defaults));
  // Every ratio is relative to its trace's AFS row: refuse a list without
  // one before running any cell.
  const auto afs = std::find_if(
      schedulers.begin(), schedulers.end(),
      [](const laps::SchedulerSpec& spec) { return spec.name == "AFS"; });
  if (afs == schedulers.end()) {
    throw std::invalid_argument(
        "fig9: --scheduler must include afs, the base of every ratio");
  }
  const auto afs_column = static_cast<std::size_t>(afs - schedulers.begin());

  laps::ExperimentPlan plan(options.seed);
  plan.add_grid(traces, schedulers, {options.seed},
                [options, load](const std::string& trace, std::uint64_t seed) {
                  laps::ScenarioOptions o = options;
                  o.seed = seed;
                  return laps::make_single_service_scenario(trace, o, load);
                },
                laps::observed_runner(harness));

  laps::ParallelRunner runner = laps::make_runner(harness);
  const auto results = runner.run(plan);
  if (const int rc = laps::grid_abort_code(runner)) return rc;

  // Ratios are computed after collection: each trace's AFS row is the base
  // for every scheduler of that trace (plan order is trace-major, one row
  // per scheduler, so the base sits at afs_column of the trace's block).
  laps::Table fig({"trace", "scheduler", "drop%", "drops/AFS", "ooo/AFS",
                   "migrations/AFS", "migrations"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& res = results[i];
    const auto& r = res.report;
    const laps::SimReport& afs_base =
        results[i - i % schedulers.size() + afs_column].report;
    fig.add_row({res.scenario, res.scheduler,
                 laps::Table::pct(r.drop_ratio()),
                 rel(r.dropped, afs_base.dropped),
                 rel(r.out_of_order, afs_base.out_of_order),
                 rel(r.flow_migrations, afs_base.flow_migrations),
                 laps::Table::num(static_cast<std::int64_t>(
                     r.flow_migrations))});
  }
  std::cout << fig.to_string();
  std::printf(
      "\nFig. 9a = drops/AFS (StaticHash row = 'no flows migrated') | "
      "Fig. 9b = ooo/AFS | Fig. 9c = migrations/AFS.\nExpected shape "
      "(paper): no-migration drops far more than AFS; LAPS top-10/16 "
      "matches or beats AFS drops; ooo and migrations fall ~80-85%% vs "
      "AFS.\n");

  laps::write_json_artifact(harness.json_path, "fig9_topk_migration", results,
                            {{"fig9", &fig}});
  return laps::grid_exit_code(results);
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
