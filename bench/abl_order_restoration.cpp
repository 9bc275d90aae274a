// Ablation: order *preservation* (LAPS) vs order *restoration* (Shi et al.
// [35] — spray packets freely, reorder at egress). The paper argues
// restoration has "considerable storage overheads, and even worse, packets
// of the same flow can be processed on different cores, destroying flow
// locality"; this bench measures both costs.
//
// Usage: abl_order_restoration [--seconds=S] [--trace=caida1] [--load=1.0]
//                              [--jobs=N] [--json=PATH]
#include <cstdio>
#include <iostream>
#include <memory>

#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/scenarios.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  laps::ScenarioOptions options;
  options.seconds = flags.get_double("seconds", 0.03);
  options.seed = flags.get_uint("seed", 17);
  options.num_cores = flags.get_uint("cores", 16);
  const double load = flags.get_double("load", 0.9);
  const std::string trace = flags.get_string("trace", "caida1");
  const auto harness = laps::parse_harness_flags(flags);
  flags.finish();

  auto store = std::make_shared<laps::TraceStore>();
  options.trace_factory = store->factory();

  auto scenario = [options, trace, load](bool restore) {
    auto cfg = laps::make_single_service_scenario(trace, options, load);
    cfg.restore_order = restore;
    return cfg;
  };

  laps::ExperimentPlan plan(options.seed);
  plan.add("LAPS (preserve order)", "LAPS", options.seed,
           [scenario, harness]() -> laps::SimReport {
             auto sched = laps::make_scheduler("laps:services=1");
             return laps::run_observed(scenario(false), *sched, harness);
           });
  plan.add("FCFS, no buffer (reorders!)", "FCFS", options.seed,
           [scenario, harness]() -> laps::SimReport {
             auto sched = laps::make_scheduler("fcfs");
             return laps::run_observed(scenario(false), *sched, harness);
           });
  plan.add("FCFS + reorder buffer", "FCFS", options.seed,
           [scenario, harness]() -> laps::SimReport {
             auto sched = laps::make_scheduler("fcfs");
             return laps::run_observed(scenario(true), *sched, harness);
           });

  laps::ParallelRunner runner = laps::make_runner(harness);
  const auto results = runner.run(plan);
  if (const int rc = laps::grid_abort_code(runner)) return rc;

  std::printf("=== Order preservation (LAPS) vs restoration (FCFS + egress "
              "reorder buffer), %s at %.0f%% load ===\n\n",
              trace.c_str(), load * 100);
  laps::Table out({"scheme", "wire ooo", "drop%", "fm penalties",
                   "rob peak pkts", "rob buffered", "rob mean hold us",
                   "p99 latency us"});
  for (const auto& res : results) {
    const auto& r = res.report;
    const bool rob = r.extra.count("rob_max_occupancy") > 0;
    out.add_row(
        {res.scenario,
         laps::Table::num(static_cast<std::int64_t>(r.out_of_order)),
         laps::Table::pct(r.drop_ratio()),
         laps::Table::num(static_cast<std::int64_t>(r.fm_penalties)),
         rob ? laps::Table::num(r.extra.at("rob_max_occupancy"), 0) : "-",
         rob ? laps::Table::num(r.extra.at("rob_buffered_packets"), 0) : "-",
         rob ? laps::Table::num(r.extra.at("rob_mean_held_us"), 2) : "-",
         laps::Table::num(laps::to_us(r.latency_ns.quantile(0.99)), 1)});
  }
  std::cout << out.to_string();
  std::printf(
      "\nReading: the buffer restores order perfectly (wire ooo = 0) but "
      "pays output storage (peak pkts) and hold latency, and the spraying "
      "still destroys flow locality (fm penalties) — the paper's Sec. VI "
      "argument, quantified.\n");

  laps::write_json_artifact(harness.json_path, "abl_order_restoration",
                            results, {{"order_restoration", &out}});
  return laps::grid_exit_code(results);
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
