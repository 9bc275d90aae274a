// Ablation: sensitivity of LAPS to its design knobs on the Fig. 9 workload
// (single service, ~105% load): migration-table capacity, high_thresh,
// AFD promotion threshold, and AFD aging — the parameters DESIGN.md calls
// out as defaults the paper leaves open.
//
// Usage: abl_laps_sensitivity [--seconds=S] [--trace=caida1] [--seed=N]
//                             [--jobs=N] [--json=PATH]
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
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
  options.seconds = flags.get_double("seconds", 0.02);
  options.seed = flags.get_uint("seed", 99);
  const std::string trace = flags.get_string("trace", "caida1");
  const auto harness = laps::parse_harness_flags(flags);
  flags.finish();

  auto store = std::make_shared<laps::TraceStore>();
  options.trace_factory = store->factory();

  const std::string base = "laps:services=1";

  // Each variant = one (label, registry spec) job over the same scenario —
  // the sweep is written entirely in the --scheduler grammar, so any row
  // can be reproduced standalone with --scheduler=SPEC on any bench.
  std::vector<std::pair<std::string, std::string>> variants;
  variants.emplace_back("defaults", base);
  for (std::size_t cap : {64u, 256u, 4096u}) {
    variants.emplace_back("migration_table=" + std::to_string(cap),
                          base + ",pins=" + std::to_string(cap));
  }
  for (std::uint32_t thresh : {16u, 28u}) {
    variants.emplace_back("high_thresh=" + std::to_string(thresh),
                          base + ",high_th=" + std::to_string(thresh));
  }
  for (std::uint64_t promote : {2u, 32u}) {
    variants.emplace_back("promote_threshold=" + std::to_string(promote),
                          base + ",promote=" + std::to_string(promote));
  }
  // The paper's threshold-only promotion pins far more flows; with it, a
  // small migration table evicts live pins, whose flows bounce back to
  // the hash path and re-migrate — the capacity sensitivity the guarded
  // default hides.
  variants.emplace_back("paper promotion rule", base + ",beat_min=0");
  variants.emplace_back("paper rule + table=128",
                        base + ",beat_min=0,pins=128");
  variants.emplace_back("afd aging every 100k", base + ",aging=100000");
  variants.emplace_back("afd sampling p=1/100", base + ",sample=0.01");

  laps::ExperimentPlan plan(options.seed);
  for (const auto& [label, spec] : variants) {
    const auto make = laps::make_scheduler_spec(spec).make;
    plan.add(label, "LAPS", options.seed,
             [options, trace, make, harness]() -> laps::SimReport {
               const auto cfg =
                   laps::make_single_service_scenario(trace, options, 1.05);
               auto sched = make();
               return laps::run_observed(cfg, *sched, harness);
             });
  }

  laps::ParallelRunner runner = laps::make_runner(harness);
  const auto results = runner.run(plan);
  if (const int rc = laps::grid_abort_code(runner)) return rc;

  std::printf("=== LAPS sensitivity on %s (single service, 105%% load, "
              "%.2f s) ===\n\n",
              trace.c_str(), options.seconds);
  laps::Table out({"variant", "drop%", "ooo", "migrations",
                   "aggressive pins", "afd promotions"});
  for (const auto& res : results) {
    const auto& r = res.report;
    out.add_row(
        {res.scenario, laps::Table::pct(r.drop_ratio()),
         laps::Table::num(static_cast<std::int64_t>(r.out_of_order)),
         laps::Table::num(static_cast<std::int64_t>(r.flow_migrations)),
         laps::Table::num(r.extra.at("aggressive_migrations"), 0),
         laps::Table::num(r.extra.at("afd_promotions"), 0)});
  }
  std::cout << out.to_string();
  std::printf("\nReading: drop%% is capacity; ooo/migrations are the "
              "ordering cost. Defaults should sit at or near the best "
              "corner; tiny migration tables re-migrate evicted pins and "
              "inflate ooo.\n");

  laps::write_json_artifact(harness.json_path, "abl_laps_sensitivity",
                            results, {{"sensitivity", &out}});
  return laps::grid_exit_code(results);
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
