// Chaos soak: a seeded grid of randomized fault schedules (core failures,
// recoveries, slowdowns, stalls, collision bursts, flash crowds) driven
// through the paper's Table VI scenarios, one scheduler per schedule.
//
// Every schedule is a self-contained job that runs its simulation TWICE and
// asserts the hard invariants the fault engine guarantees:
//   conservation   offered == delivered + dropped, nothing in flight at end
//   dead routing   no packet was ever enqueued to a dead core
//                  (fault_dead_route_drops == 0: every scheduler degrades)
//   reordering     flows that never migrated depart in order even across
//                  failures (flush drops are losses, not reorders)
//   determinism    both runs of the same seed produce byte-identical report
//                  JSON and fault timelines
// Any violation throws, which fails the binary with a nonzero exit — CI
// runs this under ASan/UBSan via scripts/check_sanitize.sh --chaos.
//
// Usage: chaos_soak [--schedules=N] [--seed=N] [--seconds=S] [--cores=N]
//                   [--jobs=N] [--json=PATH] [--scheduler=LIST]
//                   [--journal=PATH [--resume]]
// Each schedule draws its own fault plan and attaches its own probes, so
// the shared probe and fault flags (--faults, --flow-audit, ...) are
// refused as unknown.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/fault.h"
#include "sim/flow_audit.h"
#include "sim/report_json.h"
#include "sim/scenarios.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

/// Deterministic per-schedule outcome collected from the job's probes.
/// Indexed by schedule, so the table is identical for any --jobs value.
struct ScheduleOutcome {
  std::uint64_t fault_events = 0;
  std::uint64_t flush_drops = 0;
  std::size_t recoveries = 0;           ///< core_down events observed
  std::size_t recovered = 0;            ///< of those, back up before the end
  laps::TimeNs max_outage_ns = 0;
  laps::TimeNs max_reintegrate_ns = 0;  ///< up -> first dispatch on the core
};

[[noreturn]] void fail(std::size_t schedule, std::uint64_t seed,
                       const std::string& spec, const std::string& why) {
  throw std::runtime_error("chaos_soak: schedule " + std::to_string(schedule) +
                           " (seed " + std::to_string(seed) + ", faults '" +
                           spec + "'): " + why);
}

int run(laps::Flags& flags) {
  const std::int64_t schedules = flags.get_int("schedules", 60);
  if (schedules < 1) throw std::invalid_argument("--schedules must be >= 1");
  const std::uint64_t seed = flags.get_uint("seed", 7);
  laps::ScenarioOptions options;
  options.seconds = flags.get_double("seconds", 0.01);
  options.num_cores = flags.get_uint("cores", 16);
  const auto harness = laps::parse_runner_flags(flags);
  flags.finish();

  auto store = std::make_shared<laps::TraceStore>();
  options.trace_factory = store->factory();

  // Registry specs; --scheduler=LIST replaces the rotation (each schedule
  // still picks one scheduler round-robin from the table).
  const std::vector<laps::SchedulerSpec> schedulers =
      laps::schedulers_or(harness, {
                                       laps::make_scheduler_spec("fcfs"),
                                       laps::make_scheduler_spec("hash"),
                                       laps::make_scheduler_spec("afs"),
                                       laps::make_scheduler_spec("laps"),
                                   });
  const auto scenario_ids = laps::paper_scenario_ids();

  // Fault plans are generated up front so the summary table can show each
  // schedule's spec; the jobs capture their plan by shared_ptr.
  laps::RandomFaultParams fault_params;
  fault_params.horizon = laps::from_seconds(options.seconds);
  fault_params.num_cores = options.num_cores;
  std::vector<std::shared_ptr<const laps::FaultPlan>> plans;
  std::vector<std::uint64_t> seeds;
  plans.reserve(static_cast<std::size_t>(schedules));
  for (std::int64_t i = 0; i < schedules; ++i) {
    const std::uint64_t s = laps::ExperimentPlan::derive_seed(
        seed, static_cast<std::uint64_t>(i));
    seeds.push_back(s);
    plans.push_back(std::make_shared<const laps::FaultPlan>(
        laps::random_fault_plan(s, fault_params)));
  }

  std::vector<ScheduleOutcome> outcomes(static_cast<std::size_t>(schedules));

  laps::ExperimentPlan plan(seed);
  for (std::int64_t i = 0; i < schedules; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const std::string scenario = scenario_ids[idx % scenario_ids.size()];
    const laps::SchedulerSpec& spec = schedulers[idx % schedulers.size()];
    const std::uint64_t job_seed = seeds[idx];
    auto faults = plans[idx];
    auto make = spec.make;
    laps::ScenarioOptions opts = options;
    opts.seed = job_seed;
    ScheduleOutcome* outcome = &outcomes[idx];

    plan.add(scenario, spec.name, job_seed, [=]() -> laps::SimReport {
      auto run_once = [&](laps::FlowAuditProbe& audit,
                          laps::FaultProbe& fault_probe,
                          std::string* timeline_json) -> laps::SimReport {
        laps::ScenarioConfig cfg = laps::make_paper_scenario(scenario, opts);
        cfg.faults = faults;
        auto scheduler = make();
        laps::ProbeSet extra;
        extra.add(&audit);
        extra.add(&fault_probe);
        laps::SimReport report = laps::run_scenario(cfg, *scheduler, extra);
        if (timeline_json != nullptr) *timeline_json = fault_probe.to_json();
        return report;
      };

      laps::FlowAuditProbe audit(laps::FlowAuditProbe::Options{16, 0});
      laps::FaultProbe fault_probe;
      std::string timeline;
      laps::SimReport report = run_once(audit, fault_probe, &timeline);
      const std::string spec_str = faults->to_spec();

      // Conservation: the engine drains to completion, so every offered
      // packet is accounted as delivered or dropped — core failures
      // included (flush and dead-route drops are drops, not losses of
      // accounting).
      if (report.offered != report.delivered + report.dropped) {
        fail(idx, job_seed, spec_str,
             "conservation violated: offered " +
                 std::to_string(report.offered) + " != delivered " +
                 std::to_string(report.delivered) + " + dropped " +
                 std::to_string(report.dropped));
      }
      if (report.in_flight_at_end != 0) {
        fail(idx, job_seed, spec_str,
             std::to_string(report.in_flight_at_end) +
                 " packets in flight at end");
      }

      // Graceful degradation: every scheduler reroutes around dead cores,
      // so the engine's dead-core backstop never fires.
      const auto dead = report.extra.find("fault_dead_route_drops");
      if (dead != report.extra.end() && dead->second != 0) {
        fail(idx, job_seed, spec_str,
             std::to_string(static_cast<std::uint64_t>(dead->second)) +
                 " packets routed to a dead core");
      }

      // Bounded reordering: a flow that never changed cores departs in
      // order, whatever faults hit its core (runs are order-preserving,
      // restore_order=false).
      for (const auto& entry : audit.rows()) {
        if (entry.migrations == 0 && entry.out_of_order != 0) {
          fail(idx, job_seed, spec_str,
               "flow " + std::to_string(entry.key) + " never migrated but " +
                   std::to_string(entry.out_of_order) + " departures were "
                   "out of order");
        }
      }

      // Determinism: the same seed replays bit-identically — reports and
      // fault timelines alike.
      {
        laps::FlowAuditProbe audit2(laps::FlowAuditProbe::Options{16, 0});
        laps::FaultProbe fault_probe2;
        std::string timeline2;
        const laps::SimReport report2 =
            run_once(audit2, fault_probe2, &timeline2);
        if (laps::report_to_json(report) != laps::report_to_json(report2)) {
          fail(idx, job_seed, spec_str,
               "rerun of the same seed produced a different report");
        }
        if (timeline != timeline2) {
          fail(idx, job_seed, spec_str,
               "rerun of the same seed produced a different fault timeline");
        }
      }

      // Built locally and assigned whole once every check above passed, so
      // a failed schedule's row stays all zeros.
      ScheduleOutcome local;
      const auto events = report.extra.find("fault_events");
      local.fault_events = events != report.extra.end()
                               ? static_cast<std::uint64_t>(events->second)
                               : 0;
      local.flush_drops = fault_probe.flush_drops();
      for (const auto& r : fault_probe.recoveries()) {
        ++local.recoveries;
        if (r.outage_ns() >= 0) {
          ++local.recovered;
          if (r.outage_ns() > local.max_outage_ns) {
            local.max_outage_ns = r.outage_ns();
          }
        }
        if (r.reintegrate_ns() > local.max_reintegrate_ns) {
          local.max_reintegrate_ns = r.reintegrate_ns();
        }
      }
      *outcome = local;
      return report;
    });
  }

  laps::ParallelRunner runner = laps::make_runner(harness);
  const auto results = runner.run(plan);

  std::printf("=== chaos_soak: %lld fault schedules, %zu cores, %.3f s, "
              "seed %llu ===\n",
              static_cast<long long>(schedules), options.num_cores,
              options.seconds, static_cast<unsigned long long>(seed));
  laps::Table table({"schedule", "scenario", "scheduler", "faults",
                     "offered", "dropped", "flushed", "recovered",
                     "max outage us", "max reint us"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].report;
    const ScheduleOutcome& o = outcomes[i];
    table.add_row(
        {std::to_string(i), results[i].scenario, results[i].scheduler,
         laps::Table::num(static_cast<std::int64_t>(o.fault_events)),
         laps::Table::num(static_cast<std::int64_t>(r.offered)),
         laps::Table::num(static_cast<std::int64_t>(r.dropped)),
         laps::Table::num(static_cast<std::int64_t>(o.flush_drops)),
         std::to_string(o.recovered) + "/" + std::to_string(o.recoveries),
         laps::Table::num(laps::to_us(o.max_outage_ns), 1),
         laps::Table::num(laps::to_us(o.max_reintegrate_ns), 1)});
  }
  std::cout << table.to_string();

  laps::write_json_artifact(harness.json_path, "chaos_soak", results,
                            {{"chaos", &table}});
  // Invariant violations throw inside jobs; the runner contains them as
  // per-cell errors, so the binary's verdict comes from the results
  // (grid_exit_code lists every failed schedule and returns nonzero).
  const int rc = laps::grid_exit_code(results);
  if (rc == 0) {
    std::printf("\nchaos_soak: all %zu schedules passed conservation, "
                "dead-core routing, non-migrated-flow ordering, and "
                "bit-identical replay.\n",
                results.size());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
