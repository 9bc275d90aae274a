#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/flight_recorder.h"
#include "sim/probe.h"
#include "util/histogram.h"

namespace laps {

struct TelemetryConfig {
  /// Snapshot cadence in simulated time (`--telemetry[=interval]`).
  TimeNs interval = 100 * kMicrosecond;
};

/// The live-telemetry probe: counts the engine's packet lifecycle, samples
/// gauges (queue depths, engine and scheduler occupancies) at epoch
/// cadence, and keeps one Snapshot per configured interval plus a final
/// one. That list is the run's windowed series: each window's counts are
/// the difference of two consecutive snapshots (see write()). Every
/// snapshot is kept, so memory grows with simulated time / interval.
///
/// The instruments are plain members: the counters, the engine gauges, the
/// queue depths of the first kMaxPerCore cores, the scheduler's
/// SchedTelemetry sample, and the latency histogram. A snapshot copies
/// them. The four per-packet hooks do one or two increments (plus one
/// histogram record on departure) and nothing else: no string work, no
/// branches on configuration. Gauges, scheduler samples, snapshots and
/// Chrome counter tracks happen at epoch boundaries, which the engine only
/// emits when probes are attached. A telemetry-off run is bit-identical by
/// construction.
///
/// One probe observes one run at a time (like ReportProbe): on_run_begin
/// zeroes every instrument, sizes the per-core gauges to the run's cores
/// and restarts the snapshot sequence, so a reused probe writes exactly
/// what a fresh one would. Counter totals reconcile exactly with the
/// SimReport: offered/dropped/delivered/out_of_order/flow_migrations and
/// the latency histogram's count/sum/max are counted at the same hook
/// sites ReportProbe uses.
class TelemetryProbe final : public SimProbe {
 public:
  /// The counters, in JSONL column order.
  enum Counter : std::uint8_t {
    kOffered,
    kDropped,
    kDispatched,
    kDelivered,
    kOutOfOrder,
    kFlowMigrations,
    kCompletions,
    kCoreGrants,
    kCoreDenied,
    kParks,
    kWakes,
    kAfdPromotions,
    kAggressiveMigrations,
    kFaultEvents,
    kNumCounters,
  };
  /// The engine gauges, in JSONL column order; the per-core queue depths
  /// and then the scheduler's exported fields follow them.
  enum Gauge : std::uint8_t {
    kQueueDepthTotal,
    kQueueDepthMax,
    kLiveCores,
    kRobOccupancy,
    kFlows,
    kOutagesInFlight,
    kNumGauges,
  };
  /// Per-core queue depths are kept for at most this many cores; larger
  /// machines still get the total/max gauges.
  static constexpr std::size_t kMaxPerCore = 64;

  /// The latency histogram at one instant. count/sum/max are exact;
  /// p50/p90/p99 inherit Histogram::quantile's bucket-upper-bound error
  /// (<= 1/32 relative, see util/histogram.h).
  struct Latency {
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t max = 0;
    std::int64_t p50 = 0;
    std::int64_t p90 = 0;
    std::int64_t p99 = 0;
  };

  /// Every instrument at simulated time `t`.
  struct Snapshot {
    TimeNs t = 0;
    std::uint64_t seq = 0;  ///< 0, 1, 2, ... within the run
    std::array<std::uint64_t, kNumCounters> counters{};
    std::array<std::int64_t, kNumGauges> gauges{};
    std::vector<std::int64_t> queue_depth;  ///< per core, first kMaxPerCore
    SchedTelemetry sched;  ///< only the fields the policy exports are read
    Latency latency;
  };

  /// `scheduler` (optional) enables the sched.* gauges, sampled via
  /// Scheduler::telemetry_sample() at epoch cadence; fields the policy
  /// reports as N/A in the run-begin sample are not exported.
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

  bool finished() const { return finished_; }

  /// The mid-run snapshots, one per interval boundary, oldest first.
  const std::vector<Snapshot>& snapshots() const { return snapshots_; }
  /// The end-of-run snapshot (valid after on_run_end); it closes the
  /// series' last window.
  const Snapshot& final_snapshot() const { return final_; }

  /// Writes the series to `path` as JSONL, one snapshot per line:
  ///
  ///   {"t_ns":N,"seq":N,"counters":{name:N,...},"gauges":{name:N,...},
  ///    "histograms":{"engine.latency_ns":{"count":N,"sum":N,"max":N,
  ///    "p50":N,"p90":N,"p99":N}}}
  ///
  /// every mid-run snapshot (oldest first), then the final one. A line at
  /// `t_ns` closes the window [previous line's t_ns, t_ns), so per-window
  /// counts are differences of consecutive lines; the final line closes
  /// the rest of the run. The final line also carries `"final":true` and
  /// the run's `"scenario"`, `"scheduler"`, `"num_cores"` and
  /// `"interval_ns"`. Each line is appended to the file's temp as it is
  /// rendered, and the temp is renamed onto `path` at the end
  /// (util::AtomicFileWriter). Throws util::IoError on I/O failure.
  void write(const std::string& path) const;

 private:
  Snapshot snapshot(TimeNs now);
  void emit_trace_counters(TimeNs now, const Snapshot& snap);
  std::string line(const Snapshot& snap) const;

  TelemetryConfig config_;
  const Scheduler* scheduler_;
  FlightRecorderProbe* trace_;

  // The instruments.
  std::array<std::uint64_t, kNumCounters> counters_{};
  std::array<std::int64_t, kNumGauges> gauges_{};
  std::vector<std::int64_t> queue_depth_;
  SchedTelemetry sched_;
  Histogram latency_;

  /// The run-begin sample: a field >= 0 is exported for this run.
  SchedTelemetry exported_;
  std::vector<Snapshot> snapshots_;
  RunInfo info_;
  Snapshot final_;
  bool finished_ = false;

  // Engine-sample counters arrive as cumulative values; deltas feed the
  // counter so it stays monotone in the JSONL series.
  std::uint64_t last_completions_ = 0;
  std::uint64_t next_seq_ = 0;
  TimeNs next_snapshot_ = 0;
};

}  // namespace laps
