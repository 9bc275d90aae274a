#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <span>
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

/// One scheduler cell of a lockstep group: the scheduler under test and
/// what to attach beside the cell's own ReportProbe.
struct LockstepCell {
  Scheduler* scheduler = nullptr;
  ProbeSet probes;      ///< extra probes (telemetry, traces, audits, ...)
  TimeNs epoch_ns = 0;  ///< > 0: on_epoch at this simulated-time interval
  /// The grid's names for the cell, its scenario and scheduler labels,
  /// which name its per-run files (exp/harness.h). run_lockstep reads
  /// neither.
  std::string scenario;
  std::string label;
};

/// One cell's result: its report, or the exception that failed it alone.
struct CellOutcome {
  SimReport report;
  std::exception_ptr error;  ///< set: `report` is empty and must not be used
};

/// The one driver behind every single-NP run. It builds `config`'s
/// PacketGenerator once (wrapped in FaultTrafficStream when the config
/// carries a fault plan; traces inside `config.services` are reset first,
/// so the same config can be reused), and feeds every arrival to one
/// SimEngine per cell: arrivals are pulled in fixed-size batches, and each
/// engine takes the whole batch before the next engine does, so an
/// engine's flow records and queues stay in cache across the batch. Every
/// engine sees the same arrival sequence it would see alone, so each
/// cell's report and probe output equal a run of that cell by itself — the
/// paper compares FCFS/AFS/LAPS on identical traffic, and this generates
/// that traffic once instead of once per scheduler.
///
/// Containment: a cell whose engine, scheduler or probe throws leaves the
/// group with the exception in its outcome, and the other cells finish. An
/// error in the shared traffic (generator, trace) throws out of the call:
/// no cell can finish without it.
std::vector<CellOutcome> run_lockstep(const ScenarioConfig& config,
                                      std::span<const LockstepCell> cells);

/// run_lockstep with one cell and a ReportProbe only; rethrows the cell's
/// error.
SimReport run_scenario(const ScenarioConfig& config, Scheduler& scheduler);

/// Like run_scenario, but fans events out to `extra_probes` (telemetry,
/// traces, ...) alongside the ReportProbe. `epoch_ns` > 0 enables
/// on_epoch callbacks at that simulated-time interval (align it with a
/// TelemetryProbe's interval so every epoch publishes one snapshot).
SimReport run_scenario(const ScenarioConfig& config, Scheduler& scheduler,
                       const ProbeSet& extra_probes, TimeNs epoch_ns = 0);

}  // namespace laps
