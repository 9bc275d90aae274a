// Compares every scheduler in the library on the same traffic — the
// experiment of paper Fig. 7 in miniature, on one scenario. Also the
// smallest use of the parallel experiment engine: one plan, one scenario,
// five schedulers, run on --jobs threads with identical results.
//
// Usage: scheduler_comparison [--scenario=T5] [--seconds=0.1] [--seed=N]
//                             [--jobs=N] [--json=PATH] [--scheduler=LIST]
#include <iostream>
#include <memory>
#include <vector>

#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/scenarios.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  using namespace laps;

  ScenarioOptions options;
  options.seconds = flags.get_double("seconds", 0.1);
  options.seed = flags.get_uint("seed", 7);
  const std::string id = flags.get_string("scenario", "T5");
  const auto harness = parse_harness_flags(flags);
  flags.finish();

  auto store = std::make_shared<TraceStore>();
  options.trace_factory = store->factory();

  std::cout << "Scenario " << id << ": 4 services, " << options.num_cores
            << " cores, " << options.seconds << " s\n\n";

  // Registry specs; --scheduler=LIST replaces the whole table. The default
  // laps/oracle specs match the paper configuration (4 services, K = 16).
  const std::vector<SchedulerSpec> schedulers =
      schedulers_or(harness, {
                                 make_scheduler_spec("fcfs"),
                                 make_scheduler_spec("hash"),
                                 make_scheduler_spec("afs"),
                                 make_scheduler_spec("oracle"),
                                 make_scheduler_spec("laps"),
                             });

  ExperimentPlan plan(options.seed);
  plan.add_grid({id}, schedulers, {options.seed},
                [options](const std::string& scenario, std::uint64_t seed) {
                  ScenarioOptions o = options;
                  o.seed = seed;
                  return make_paper_scenario(scenario, o);
                },
                observed_runner(harness));
  check_per_run_paths(plan, harness);

  ParallelRunner runner = make_runner(harness);
  const auto results = runner.run(plan);

  Table table({"scheduler", "drop%", "cold-cache%", "out-of-order%",
               "migrations", "p99 latency us", "throughput Mpps"});
  for (const auto& res : results) {
    const SimReport& r = res.report;
    table.add_row({res.scheduler, Table::pct(r.drop_ratio()),
                   Table::pct(r.cold_cache_ratio()),
                   Table::pct(r.ooo_ratio(), 4),
                   Table::num(static_cast<std::int64_t>(r.flow_migrations)),
                   Table::num(to_us(r.latency_ns.quantile(0.99)), 1),
                   Table::num(r.throughput_mpps(), 3)});
  }
  std::cout << table.to_string()
            << "\nLAPS keeps I-caches warm (cold% ~ 0) by partitioning cores "
               "among services,\nand keeps packet order by migrating only "
               "AFC-resident aggressive flows.\n";

  write_json_artifact(harness.json_path, "scheduler_comparison", results,
                      {{"comparison", &table}});
  return grid_exit_code(results);
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
