#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/probe.h"
#include "sim/report.h"
#include "sim/scheduler.h"
#include "traffic/generator.h"

namespace laps {

/// Everything needed to reproduce one simulation run: NPU shape, horizon,
/// seed, and per-service traffic. The bench binaries build these from the
/// paper's Tables IV-VI.
struct ScenarioConfig {
  std::string name = "scenario";
  std::size_t num_cores = 16;
  std::uint32_t queue_capacity = 32;
  double seconds = 1.0;
  std::uint64_t seed = 42;
  DelayModel delay;
  /// Route completions through an egress ReorderBuffer (order restoration
  /// instead of order preservation; see SimEngineConfig::restore_order).
  bool restore_order = false;
  /// Optional fault schedule (sim/fault.h): core events run inside the
  /// engine, traffic events are merged into the arrival stream via
  /// FaultTrafficStream. Null = fault-free (the default, zero overhead).
  /// shared_ptr so ScenarioConfig stays copyable into job closures.
  std::shared_ptr<const FaultPlan> faults;
  /// Unread; perfbench sets it. Goes with the benchmark's next change.
  EventQueueKind event_queue = EventQueueKind::kHeap;
  std::vector<ServiceTraffic> services;
};

/// Builds the generator and SimEngine for `config`, runs `scheduler`
/// through it with a ReportProbe attached, and returns the report. Traces
/// inside `config.services` are reset first so the same ScenarioConfig can
/// be reused across schedulers (the paper compares FCFS/AFS/LAPS on
/// identical traffic).
SimReport run_scenario(const ScenarioConfig& config, Scheduler& scheduler);

/// Like run_scenario, but fans events out to `extra_probes` (telemetry,
/// chrome traces, ...) alongside the ReportProbe. `epoch_ns` > 0 enables
/// on_epoch callbacks at that simulated-time interval (align it with a
/// TelemetryProbe's interval so every epoch publishes one snapshot).
SimReport run_scenario(const ScenarioConfig& config, Scheduler& scheduler,
                       const ProbeSet& extra_probes, TimeNs epoch_ns = 0);

}  // namespace laps
