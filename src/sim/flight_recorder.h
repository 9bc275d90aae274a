#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/probe.h"

namespace laps {

/// Flight-recorder configuration. Thresholds are counted per fixed
/// simulated-time window; a window that reaches a threshold trips the
/// recorder (once per run, first trigger wins).
struct FlightRecorderConfig {
  /// Ring capacity in events. After a trigger the recorder keeps running
  /// for capacity/2 more events and then freezes, so the dump holds
  /// roughly half a ring of lead-up and half of aftermath. SIZE_MAX never
  /// wraps: the recorder then keeps every event of the run (--trace-out).
  std::size_t capacity = 4096;
  /// Drops within one window that count as a drop storm. 0 disables.
  std::uint64_t drop_storm = 64;
  /// OOO departures within one window that count as an OOO spike.
  /// 0 disables.
  std::uint64_t ooo_spike = 256;
  /// Width of the anomaly-counting window.
  TimeNs window_ns = from_us(100.0);
  /// Dump even when no anomaly triggered (--flight-dump): turns the
  /// recorder into a cheap "last N events" trace of any run.
  bool always_dump = false;

  /// The --trace-out recorder: every event of the run, no triggers.
  static FlightRecorderConfig whole_run() {
    return {SIZE_MAX, 0, 0, from_us(100.0), true};
  }
};

/// The Chrome trace-event recorder (chrome://tracing, ui.perfetto.dev):
/// one row per core plus a scheduler row. With a bounded capacity it is
/// the postmortem ring of --flight-recorder; unbounded (whole_run()) it
/// records all of a --trace-out run. The log grows in fixed-size blocks up
/// to `capacity`, so it never copies its events, and only then wraps.
///
/// Recorded events (chosen for postmortem signal per byte): drops, service
/// spans (with FM/cold-cache penalty flags), OOO departures, and
/// scheduler-internal decisions. Spans, drops and OOO instants carry the
/// packet's `flow_key`, the key of the flow-audit rows and of LAPS's
/// scheduler events. Clean departures and plain dispatches are not
/// recorded — they dominate event volume and say nothing about an anomaly.
///
/// Triggers: a drop storm (>= drop_storm drops within one window) or an
/// OOO spike (>= ooo_spike OOO departures within one window). On trigger
/// the recorder notes the reason and time, records capacity/2 further
/// events, then freezes the ring, so the dump brackets the anomaly instead
/// of being overwritten by the aftermath.
class FlightRecorderProbe final : public SimProbe {
 public:
  explicit FlightRecorderProbe(FlightRecorderConfig config = {});

  void on_run_begin(const RunInfo& info) override;
  void on_drop(TimeNs now, const SimPacket& pkt, CoreId core) override;
  void on_service_start(TimeNs now, const SimPacket& pkt, CoreId core,
                        TimeNs delay, bool fm_penalty,
                        bool cold_cache) override;
  void on_departure(TimeNs now, const SimPacket& pkt, CoreId core,
                    std::uint32_t new_ooo) override;
  void on_sched_event(TimeNs now, const SchedEvent& event) override;

  /// Adds a 'C' (counter) sample at `now`, kept beside the log where no
  /// ring evicts it. `args_json` is the pre-rendered numeric args object,
  /// e.g. `{"depth":3,"max":7}`: each key renders as one counter track.
  void add_counter(TimeNs now, const std::string& name,
                   const std::string& args_json);

  bool triggered() const { return triggered_; }
  /// "drop_storm", "ooo_spike", or "" when nothing triggered.
  const std::string& trigger_reason() const { return reason_; }
  /// True when the harness should write the dump (triggered or
  /// always_dump).
  bool should_dump() const { return triggered_ || config_.always_dump; }

  /// Events currently held (<= capacity); counter samples not included.
  std::size_t num_events() const { return ring_.size(); }

  /// The {"traceEvents": [...]} document (oldest event first, counter
  /// samples last); a bounded recorder names its trigger in the title.
  std::string to_json() const;
  /// Streams the to_json() bytes to `path` line by line
  /// (util::AtomicFileWriter). Throws util::IoError on I/O failure.
  void write(const std::string& path) const;

 private:
  enum class Type : std::uint8_t { kDrop, kService, kOoo, kSched };

  /// One log slot: 32 bytes, no heap — recording must stay cheap enough
  /// to leave on during long runs.
  struct Event {
    TimeNs t = 0;
    TimeNs duration = 0;         // service spans only
    std::uint64_t flow_key = 0;  // sched events: SchedEvent::flow_key
    std::uint32_t a = 0;         // seq | ooo count | sched core+1
    std::uint16_t tid = 0;       // core row, or the scheduler row
    std::uint8_t flags = 0;      // service: bit0 fm, bit1 cold; sched: kind
    Type type = Type::kDrop;
  };

  void push(const Event& e);
  void roll_window(TimeNs now);
  void trip(const char* reason, TimeNs now);
  template <typename Out>
  void render(Out& out) const;

  FlightRecorderConfig config_;
  RunInfo info_;
  std::deque<Event> ring_;
  std::size_t head_ = 0;  ///< oldest event once the ring has wrapped
  bool frozen_ = false;
  std::size_t post_trigger_left_ = 0;
  std::vector<std::string> counters_;  ///< rendered 'C' lines

  TimeNs window_index_ = 0;
  std::uint64_t window_drops_ = 0;
  std::uint64_t window_ooo_ = 0;

  bool triggered_ = false;
  std::string reason_;
  TimeNs trigger_time_ = 0;
};

}  // namespace laps
