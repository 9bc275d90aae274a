#pragma once

#include <cstdint>
#include <vector>

#include "sim/flight_recorder.h"
#include "sim/probe.h"
#include "telemetry/metrics.h"

namespace laps::telemetry {

struct TelemetryConfig {
  /// Snapshot cadence in simulated time (`--telemetry[=interval]`).
  TimeNs interval = 100 * kMicrosecond;
};

/// The live-telemetry probe: instruments the engine's packet lifecycle with
/// MetricsRegistry counters, samples gauges (queue depths, engine and
/// scheduler occupancies) at epoch cadence, and keeps one MetricsSnapshot
/// per configured interval plus a final one. That list is the run's
/// windowed series: each window's counts are the difference of two
/// consecutive snapshots (see write_telemetry_jsonl). Every snapshot is
/// kept, so memory grows with simulated time / interval.
///
/// Hot-path cost is the design constraint: the four per-packet hooks do one
/// or two plain increments through cached registry cell pointers (plus one
/// histogram record on departure) and nothing else: no string work, no
/// branches on configuration. Everything else state-shaped (gauges,
/// scheduler samples, snapshots, Chrome counter tracks) happens at epoch
/// boundaries, which the engine only emits when probes are attached. A
/// telemetry-off run is bit-identical by construction.
///
/// The probe and its registry belong to the thread that runs the
/// simulation: every hook, every snapshot and both exporters run there,
/// so nothing is synchronised.
///
/// One probe observes one run at a time (like ReportProbe): on_run_begin
/// zeroes every instrument and restarts the snapshot sequence. Counter
/// totals reconcile exactly with the SimReport: offered/dropped/delivered/
/// out_of_order/flow_migrations and the latency histogram's count/sum/max
/// are counted at the same hook sites ReportProbe uses.
class TelemetryProbe final : public SimProbe {
 public:
  /// `scheduler` (optional) enables the sched.* gauge family, sampled via
  /// Scheduler::telemetry_sample() at epoch cadence; fields the policy
  /// reported as N/A in the run-begin sample are never registered.
  /// `trace` (optional) merges counter tracks into that recorder's Chrome
  /// trace at each snapshot.
  explicit TelemetryProbe(TelemetryConfig config = {},
                          const Scheduler* scheduler = nullptr,
                          FlightRecorderProbe* trace = nullptr);

  void on_run_begin(const RunInfo& info) override;
  void on_arrival(TimeNs now, const SimPacket& pkt) override;
  void on_drop(TimeNs now, const SimPacket& pkt, CoreId core) override;
  void on_dispatch(TimeNs now, const SimPacket& pkt, CoreId core,
                   bool migrated) override;
  void on_departure(TimeNs now, const SimPacket& pkt, CoreId core,
                    std::uint32_t new_ooo) override;
  void on_epoch(TimeNs now, std::span<const CoreView> cores) override;
  void on_engine_sample(TimeNs now, const EngineSample& sample) override;
  void on_sched_event(TimeNs now, const SchedEvent& event) override;
  void on_fault(TimeNs now, const FaultEvent& event,
                std::uint32_t flushed) override;
  void on_run_end(const RunEnd& end) override;

  const MetricsRegistry& registry() const { return registry_; }

  const TelemetryConfig& config() const { return config_; }
  const RunInfo& info() const { return info_; }
  bool finished() const { return finished_; }

  /// The mid-run snapshots, one per interval boundary, oldest first.
  const std::vector<MetricsSnapshot>& snapshots() const { return snapshots_; }
  /// The end-of-run snapshot (valid after on_run_end); it closes the
  /// series' last window.
  const MetricsSnapshot& final_snapshot() const { return final_; }

 private:
  void register_instruments();
  void take_snapshot(TimeNs now);
  void emit_trace_counters(TimeNs now, const MetricsSnapshot& snap);

  TelemetryConfig config_;
  const Scheduler* scheduler_;
  FlightRecorderProbe* trace_;

  MetricsRegistry registry_;
  std::vector<MetricsSnapshot> snapshots_;
  RunInfo info_;
  MetricsSnapshot final_;
  bool finished_ = false;

  // The per-packet hooks' registry cells, cached at on_run_begin.
  std::uint64_t* offered_ = nullptr;
  std::uint64_t* dropped_ = nullptr;
  std::uint64_t* dispatched_ = nullptr;
  std::uint64_t* delivered_ = nullptr;
  std::uint64_t* ooo_ = nullptr;
  std::uint64_t* migrations_ = nullptr;
  Histogram* latency_ = nullptr;

  // Instrument ids (registered in the constructor).
  CounterId c_offered_, c_dropped_, c_dispatched_, c_delivered_;
  CounterId c_ooo_, c_migrations_;
  CounterId c_completions_;
  CounterId c_core_grants_, c_core_denied_, c_parks_, c_wakes_;
  CounterId c_afd_promotions_, c_aggressive_migrations_;
  CounterId c_fault_events_;
  GaugeId g_queue_total_, g_queue_max_;
  GaugeId g_live_cores_, g_rob_occupancy_, g_flows_;
  GaugeId g_outages_;
  HistogramId h_latency_;

  // Registered at on_run_begin (per-core + discovered sched.* fields).
  std::vector<GaugeId> g_queue_core_;
  GaugeId g_afc_occupancy_, g_afd_hits_, g_afd_evictions_;
  GaugeId g_pinned_flows_, g_parked_cores_, g_wake_strikes_;
  GaugeId g_core_transitions_;

  // Engine-sample counters arrive as cumulative values; deltas feed the
  // registry so they stay monotone counters in the JSONL series.
  std::uint64_t last_completions_ = 0;
  std::int64_t outages_in_flight_ = 0;
  TimeNs next_snapshot_ = 0;
};

}  // namespace laps::telemetry
