// The paper's multi-service edge router (Fig. 5): four services — outgoing
// VPN, IP forwarding, malware scanning, incoming VPN+scan — with traffic
// that shifts over time (Eq. 1), on a 16-core NPU whose cores LAPS
// dynamically reallocates between services.
//
// Usage: multi_service_router [--seconds=0.25] [--seed=N] [--cores=16]
//                             [--json=PATH] [--telemetry-out=PATH]
//                             [--trace-out=PATH] [--scheduler=SPEC]
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "core/laps.h"
#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "sim/scenarios.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  using namespace laps;

  ScenarioOptions options;
  options.seconds = flags.get_double("seconds", 0.25);
  options.seed = flags.get_uint("seed", 42);
  options.num_cores = flags.get_uint("cores", 16);
  // This example introspects the scheduler after the run (allocator state),
  // so it runs its one cell without a runner: --jobs, --journal and
  // --resume are unknown here.
  const auto harness = parse_observed_flags(flags);
  flags.finish();

  // Table IV Set 2 traffic (overload) over the CAIDA-like trace group: the
  // regime where dynamic core allocation earns its keep.
  const ScenarioConfig config = make_paper_scenario("T5", options);

  std::printf("Edge router: %zu cores, 4 services, %.2f s of traffic\n\n",
              options.num_cores, options.seconds);
  Table services({"service", "what it models", "T_proc"});
  services.add_row({service_name(ServicePath::kVpnOut),
                    "outgoing packets tunneled via VPN (IPsec encrypt)",
                    "3.7us + 0.23us/64B"});
  services.add_row({service_name(ServicePath::kIpForward),
                    "default packet forwarding", "0.5us"});
  services.add_row({service_name(ServicePath::kMalwareScan),
                    "incoming packets scanned for malware", "3.53us"});
  services.add_row({service_name(ServicePath::kVpnInScan),
                    "incoming VPN packets (decrypt + scan)",
                    "5.8us + 0.21us/64B"});
  std::cout << services.to_string() << "\n";

  // LAPS by default; --scheduler=SPEC swaps in any registry scheduler (the
  // core-allocation table below is shown only for LAPS-family schedulers).
  const std::vector<SchedulerSpec> specs =
      schedulers_or(harness, {make_scheduler_spec("laps")});
  if (specs.size() != 1) {
    throw std::invalid_argument("multi_service_router runs one scheduler; "
                                "pass a single --scheduler spec");
  }
  auto scheduler = specs.front().make();
  const SimReport report = run_observed(config, *scheduler, harness);

  Table per_service({"service", "offered", "dropped", "drop%"});
  for (std::size_t s = 0; s < kNumServices; ++s) {
    const auto offered = report.offered_by_service[s];
    const auto dropped = report.dropped_by_service[s];
    per_service.add_row(
        {service_name(static_cast<ServicePath>(s)),
         Table::num(static_cast<std::int64_t>(offered)),
         Table::num(static_cast<std::int64_t>(dropped)),
         Table::pct(offered ? static_cast<double>(dropped) /
                                  static_cast<double>(offered)
                            : 0.0)});
  }
  std::cout << per_service.to_string() << "\n";

  // How the allocator moved cores around: each service started with an
  // equal share; grants flowed toward the heavy services. Only LAPS has a
  // per-service core allocator to show.
  Table alloc({"service", "cores at end", "core ids"});
  if (const auto* laps = dynamic_cast<const LapsScheduler*>(scheduler.get())) {
    const auto& allocator = laps->allocator();
    for (std::size_t s = 0; s < kNumServices; ++s) {
      std::string ids;
      for (CoreId c : allocator.cores_of(s)) {
        if (!ids.empty()) ids += ",";
        ids += std::to_string(c);
      }
      alloc.add_row({service_name(static_cast<ServicePath>(s)),
                     std::to_string(allocator.cores_of(s).size()), ids});
    }
    std::cout << alloc.to_string() << "\n";

    std::printf("Core ownership transfers: %.0f (from %.0f requests, %.0f "
                "denied)\n",
                report.extra.at("core_transfers"),
                report.extra.at("core_requests"),
                report.extra.at("core_requests_denied"));
  }
  std::printf("Cold I-cache events: %llu (%.2f%% of packets) — "
              "only reallocated cores ever refill their I-cache.\n"
              "Out-of-order deliveries: %llu (%.4f%%)\n",
              static_cast<unsigned long long>(report.cold_cache_events),
              report.cold_cache_ratio() * 100.0,
              static_cast<unsigned long long>(report.out_of_order),
              report.ooo_ratio() * 100.0);

  JobResult result;
  result.scenario = config.name;
  result.scheduler = report.scheduler;
  result.seed = config.seed;
  result.report = report;
  write_json_artifact(harness.json_path, "multi_service_router", {result},
                      {{"services", &services},
                       {"per_service", &per_service},
                       {"allocation", &alloc}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
