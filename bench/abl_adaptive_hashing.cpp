// Ablation: the Shi & Kencl line of schemes next to AFS and LAPS on the
// Fig. 9 workload — adaptive hashing alone, adaptive + AFD migration (the
// combination the paper's Sec. VI calls "complementary to LAPS"), and LAPS.
//
// Usage: abl_adaptive_hashing [--seconds=S] [--traces=...] [--load=1.05]
//                             [--jobs=N] [--json=PATH] [--scheduler=LIST]
#include <cstdio>
#include <iostream>
#include <memory>
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

// The "bundle moves/shifts" column pulls a scheduler-specific counter.
double moves_of(const laps::SimReport& r) {
  for (const char* key : {"bundle_shifts", "batches_opened", "bundle_moves"}) {
    if (auto it = r.extra.find(key); it != r.extra.end()) return it->second;
  }
  return 0;
}

int run(laps::Flags& flags) {
  laps::ScenarioOptions options;
  options.seconds = flags.get_double("seconds", 0.03);
  options.seed = flags.get_uint("seed", 55);
  options.num_cores = flags.get_uint("cores", 16);
  const double load = flags.get_double("load", 1.05);
  const auto traces =
      flags.get_list("traces", "caida1,auck1", laps::trace_registry_names());
  const auto harness = laps::parse_harness_flags(flags);
  flags.finish();

  auto store = std::make_shared<laps::TraceStore>();
  options.trace_factory = store->factory();

  // Registry specs; --scheduler=LIST replaces the whole table.
  const std::vector<laps::SchedulerSpec> schedulers =
      laps::schedulers_or(harness,
                          {
                              laps::make_scheduler_spec("hash"),
                              laps::make_scheduler_spec("afs"),
                              laps::make_scheduler_spec("batch"),
                              laps::make_scheduler_spec("adaptive"),
                              laps::make_scheduler_spec("adaptive-afd"),
                              laps::make_scheduler_spec("laps:services=1"),
                          });

  laps::ExperimentPlan plan(options.seed);
  plan.add_grid(traces, schedulers, {options.seed},
                [options, load](const std::string& trace, std::uint64_t seed) {
                  laps::ScenarioOptions o = options;
                  o.seed = seed;
                  return laps::make_single_service_scenario(trace, o, load);
                },
                laps::observed_runner(harness));
  laps::check_per_run_paths(plan, harness);

  laps::ParallelRunner runner = laps::make_runner(harness);
  const auto results = runner.run(plan);

  std::printf("=== Adaptive hashing family vs AFS and LAPS (single service, "
              "%.0f%% load, %.2f s) ===\n\n",
              load * 100, options.seconds);
  laps::Table out({"trace", "scheduler", "drop%", "ooo", "migrations",
                   "bundle moves/shifts"});
  for (const auto& res : results) {
    const auto& r = res.report;
    out.add_row({res.scenario, res.scheduler,
                 laps::Table::pct(r.drop_ratio()),
                 laps::Table::num(static_cast<std::int64_t>(r.out_of_order)),
                 laps::Table::num(static_cast<std::int64_t>(r.flow_migrations)),
                 laps::Table::num(moves_of(r), 0)});
  }
  std::cout << out.to_string();
  std::printf("\nReading: adaptive re-weighting fixes slow bundle skew with "
              "few moves; adding AFD migration handles acute elephant "
              "imbalance — together they approach LAPS's single-service "
              "behaviour, which is why the paper calls the scheme "
              "complementary.\n");

  laps::write_json_artifact(harness.json_path, "abl_adaptive_hashing",
                            results, {{"adaptive_hashing", &out}});
  return laps::grid_exit_code(results);
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
