#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/probe.h"
#include "sim/report.h"

namespace laps {

/// Rebuilds the seed `SimReport` from probe events — byte-identical (via
/// report_to_json) to what the monolithic Npu::run loop produced, which the
/// golden determinism suite asserts. This is the default probe behind
/// run_scenario(); everything downstream (benches, examples, JSON
/// artifacts) reads its report.
class ReportProbe final : public SimProbe {
 public:
  void on_run_begin(const RunInfo& info) override;
  void on_arrival(TimeNs now, const SimPacket& pkt) override;
  void on_drop(TimeNs now, const SimPacket& pkt, CoreId core) override;
  void on_dispatch(TimeNs now, const SimPacket& pkt, CoreId core,
                   bool migrated) override;
  void on_service_start(TimeNs now, const SimPacket& pkt, CoreId core,
                        TimeNs delay, bool fm_penalty,
                        bool cold_cache) override;
  void on_departure(TimeNs now, const SimPacket& pkt, CoreId core,
                    std::uint32_t new_ooo) override;
  void on_run_end(const RunEnd& end) override;

  /// The assembled report; valid after on_run_end.
  const SimReport& report() const { return report_; }
  SimReport take_report() { return std::move(report_); }

 private:
  SimReport report_;
  std::size_t num_cores_ = 0;
};

/// Per-core service spans (plus drop and scheduler-event instants) in the
/// Chrome trace-event JSON format — load the output in chrome://tracing or
/// https://ui.perfetto.dev to see where migrations cluster and queues
/// saturate. Each simulated core is one "thread" row; scheduler-internal
/// events render on a dedicated row below the cores.
class ChromeTraceProbe final : public SimProbe {
 public:
  void on_run_begin(const RunInfo& info) override;
  void on_drop(TimeNs now, const SimPacket& pkt, CoreId core) override;
  void on_service_start(TimeNs now, const SimPacket& pkt, CoreId core,
                        TimeNs delay, bool fm_penalty,
                        bool cold_cache) override;
  void on_sched_event(TimeNs now, const SchedEvent& event) override;

  std::size_t num_events() const { return events_.size(); }

  /// Appends a 'C' (counter) sample at `now`. `args_json` is the
  /// pre-rendered numeric args object, e.g. `{"depth":3,"max":7}` — each
  /// key renders as one counter track stacked with the event rows. Used by
  /// the TelemetryProbe to merge queue-depth/occupancy/rate tracks into
  /// the same timeline as the span events.
  void add_counter(TimeNs now, std::string name, std::string args_json) {
    events_.push_back(Event{'C', now, 0, static_cast<std::uint32_t>(0),
                            std::move(name), std::move(args_json)});
  }

  /// The {"traceEvents": [...]} document.
  std::string to_json() const;
  /// Writes to_json() to `path`. Throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Event {
    char phase = 'X';       // 'X' complete span, 'i' instant
    TimeNs start = 0;
    TimeNs duration = 0;    // spans only
    std::uint32_t tid = 0;  // core id, or the scheduler row
    std::string name;
    std::string args_json;  // pre-rendered "args" object, may be empty
  };

  RunInfo info_;
  std::vector<Event> events_;
};

}  // namespace laps
