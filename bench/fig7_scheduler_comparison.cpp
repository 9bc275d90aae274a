// Reproduces paper Fig. 7 (a: packets dropped, b: cold-cache packets,
// c: out-of-order packets) for LAPS vs FCFS vs AFS across the traffic
// scenarios T1-T8 of Table VI, plus the Table IV parameter sets and the
// Table V trace groups used to build them.
//
// The paper simulates 60 s; the default here is 0.25 s so the whole bench
// suite stays fast — pass --seconds=60 for the full run. Shapes (who wins,
// by what factor) are stable well before 1 s; the only horizon effect is
// LAPS's start-up core-allocation transient, which shrinks relative to run
// length.
//
// Usage: fig7_scheduler_comparison [--seconds=S] [--seed=N] [--cores=N]
//                                  [--scenarios=T1,T5|all] [--jobs=N]
//                                  [--json=PATH] [--scheduler=LIST]
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/scenarios.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  laps::ScenarioOptions options;
  options.seconds = flags.get_double("seconds", 0.25);
  options.seed = flags.get_uint("seed", 2013);
  options.num_cores = flags.get_uint("cores", 16);
  const auto scenario_ids =
      flags.get_list("scenarios", "all", laps::paper_scenario_ids());
  const auto harness = laps::parse_harness_flags(flags);
  flags.finish();

  std::printf("=== Table IV: Holt-Winters parameter sets (a,b in Mpps, m in "
              "s; pre-calibration) ===\n");
  laps::Table t4({"set", "service", "a", "b", "C", "m", "sigma"});
  for (int set : {1, 2}) {
    const auto params = laps::table4_params(set);
    for (std::size_t s = 0; s < params.size(); ++s) {
      t4.add_row({std::to_string(set), "S" + std::to_string(s + 1),
                  laps::Table::num(params[s].a, 3),
                  laps::Table::num(params[s].b, 3),
                  laps::Table::num(params[s].c, 2),
                  laps::Table::num(params[s].m, 0),
                  laps::Table::num(params[s].sigma, 2)});
    }
  }
  std::cout << t4.to_string() << "\n";

  std::printf("=== Tables V/VI: trace groups and scenarios ===\n");
  laps::Table t56({"scenario", "param set", "S1", "S2", "S3", "S4"});
  for (const std::string& id : laps::paper_scenario_ids()) {
    const int idx = id[1] - '0';
    const int set = idx <= 4 ? 1 : 2;
    const auto group = laps::table5_group(idx <= 4 ? idx : idx - 4);
    t56.add_row(
        {id, "Set " + std::to_string(set), group[0], group[1], group[2],
         group[3]});
  }
  std::cout << t56.to_string() << "\n";

  // All jobs open their traces through one store, which builds each
  // trace's Zipf table once; every open is a fresh stream, equal to the
  // trace opened directly.
  auto store = std::make_shared<laps::TraceStore>();
  options.trace_factory = store->factory();

  // Registry specs; --scheduler=LIST replaces the whole table. The default
  // laps spec is the paper configuration (4 services).
  const std::vector<laps::SchedulerSpec> schedulers =
      laps::schedulers_or(harness, {
                                       laps::make_scheduler_spec("fcfs"),
                                       laps::make_scheduler_spec("afs"),
                                       laps::make_scheduler_spec("laps"),
                                   });

  laps::ExperimentPlan plan(options.seed);
  plan.add_grid(scenario_ids, schedulers, {options.seed},
                [options](const std::string& id, std::uint64_t seed) {
                  laps::ScenarioOptions o = options;
                  o.seed = seed;
                  return laps::make_paper_scenario(id, o);
                },
                laps::observed_runner(harness));
  laps::check_per_run_paths(plan, harness);

  laps::ParallelRunner runner = laps::make_runner(harness);
  const auto results = runner.run(plan);

  std::printf("=== Fig. 7: LAPS vs FCFS vs AFS, %zu cores, %.2f s, seed %llu "
              "===\n",
              options.num_cores, options.seconds,
              static_cast<unsigned long long>(options.seed));
  laps::Table fig({"scenario", "scheduler", "offered", "dropped", "drop%",
                   "cold%", "ooo", "ooo%", "migrations", "thru Mpps"});
  for (const auto& res : results) {
    const auto& r = res.report;
    fig.add_row({res.scenario, res.scheduler,
                 laps::Table::num(static_cast<std::int64_t>(r.offered)),
                 laps::Table::num(static_cast<std::int64_t>(r.dropped)),
                 laps::Table::pct(r.drop_ratio()),
                 laps::Table::pct(r.cold_cache_ratio()),
                 laps::Table::num(static_cast<std::int64_t>(r.out_of_order)),
                 laps::Table::pct(r.ooo_ratio(), 4),
                 laps::Table::num(static_cast<std::int64_t>(r.flow_migrations)),
                 laps::Table::num(r.throughput_mpps(), 3)});
  }
  std::cout << fig.to_string();
  std::printf(
      "\nFig. 7a = drop%% column | Fig. 7b = cold%% column | Fig. 7c = ooo "
      "columns.\nExpected shape (paper): LAPS lowest drops everywhere; "
      "FCFS/AFS ~60%% cold vs ~0 for LAPS; FCFS >> AFS > LAPS on ooo.\n");

  laps::write_json_artifact(harness.json_path, "fig7_scheduler_comparison",
                            results, {{"fig7", &fig}});
  return laps::grid_exit_code(results);
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
