// Quickstart: simulate the LAPS scheduler on one synthetic trace and print
// the run report. This is the smallest end-to-end use of the library:
//
//   trace -> traffic model -> scenario -> scheduler -> report
//
// Build & run:  ./build/examples/quickstart [--json=PATH]
//               [--telemetry-out=PATH] [--trace-out=PATH] [--scheduler=SPEC]
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "sim/runner.h"
#include "trace/synthetic.h"
#include "util/flags.h"

namespace {

int run(laps::Flags& flags) {
  using namespace laps;

  const auto harness = parse_observed_flags(flags);
  flags.finish();

  // 1. A header trace. The registry reproduces the paper's trace names;
  //    "caida1" is an OC-192-backbone-like stream (heavy-tailed flow sizes,
  //    ~300k flows). Any TraceSource works here, including PcapTrace for
  //    real captures.
  ScenarioConfig config;
  config.name = "quickstart";
  config.num_cores = 16;
  config.seconds = 0.02;  // simulated time
  config.seed = 1;

  // 2. Traffic: IP forwarding at a constant 20 Mpps (16 cores forward at
  //    most 32 Mpps of 64 B-equivalent packets, so this is ~2/3 load).
  ServiceTraffic traffic;
  traffic.path = ServicePath::kIpForward;
  traffic.rate = HoltWintersParams{20.0, 0.0, 0.0, 60.0, 0.0};  // Mpps
  traffic.trace = make_trace("caida1");
  config.services = {traffic};

  // 3. The scheduler under test: LAPS with the paper's defaults (16-entry
  //    AFC, 512-entry annex, 32-descriptor queues, CRC16 flow hashing).
  //    --scheduler=SPEC swaps in any registry scheduler, e.g.
  //    --scheduler=hash-migrate or --scheduler=laps:afc=64,power=1.
  const std::vector<SchedulerSpec> specs =
      schedulers_or(harness, {make_scheduler_spec("laps:services=1")});
  if (specs.size() != 1) {
    throw std::invalid_argument(
        "quickstart runs one scheduler; pass a single --scheduler spec");
  }
  auto scheduler = specs.front().make();

  // 4. Run and report. run_observed = run_scenario plus any observability
  //    probes requested on the command line (--telemetry-out, --trace-out).
  const SimReport report = run_observed(config, *scheduler, harness);
  std::cout << report.summary() << "\n\n";

  std::printf("Delivered %.1f%% of %llu packets at %.2f Mpps; "
              "%llu flows were migrated to balance load.\n",
              100.0 * (1.0 - report.drop_ratio()),
              static_cast<unsigned long long>(report.offered),
              report.throughput_mpps(),
              static_cast<unsigned long long>(report.flow_migrations));

  // 5. Optional machine-readable artifact (--json=PATH).
  JobResult result;
  result.scenario = config.name;
  result.scheduler = report.scheduler;
  result.seed = config.seed;
  result.report = report;
  write_json_artifact(harness.json_path, "quickstart", {result});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
