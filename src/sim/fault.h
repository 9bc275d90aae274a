#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/probe.h"
#include "sim/scheduler.h"
#include "traffic/generator.h"
#include "util/time.h"

namespace laps {

/// One kind of injected fault. Core-side kinds perturb the simulated NPU;
/// traffic-side kinds inject adversarial arrivals into the offered stream.
enum class FaultKind : std::uint8_t {
  kCoreDown,        ///< core fails: queue + in-service packet are flushed
  kCoreUp,          ///< failed core recovers and rejoins the pool
  kCoreSlowdown,    ///< every subsequent service on the core takes x factor
  kCoreStall,       ///< core stops starting new services for `duration`
  kCollisionBurst,  ///< flood of flows sharing one CRC16 hash value
  kFlashCrowd,      ///< flood of brand-new flows (fresh random tuples)
};

/// One entry of a fault schedule. Which fields are meaningful depends on
/// `kind`; unused fields keep their defaults so events compare and
/// serialize deterministically.
struct FaultEvent {
  TimeNs time = 0;              ///< simulated time the fault takes effect
  FaultKind kind = FaultKind::kCoreDown;
  std::int32_t core = -1;       ///< core events: the affected core
  double factor = 1.0;          ///< kCoreSlowdown: delay multiplier (1 = reset)
  TimeNs duration = 0;          ///< kCoreStall + traffic events: span
  double rate_mpps = 0.0;       ///< traffic events: injection rate
  std::uint32_t flows = 0;      ///< traffic events: distinct injected flows

  bool is_core_event() const {
    return kind == FaultKind::kCoreDown || kind == FaultKind::kCoreUp ||
           kind == FaultKind::kCoreSlowdown || kind == FaultKind::kCoreStall;
  }
  bool is_traffic_event() const { return !is_core_event(); }

  /// Short display label ("core_down", "collision_burst", ...).
  static const char* kind_name(FaultKind kind);

  /// One component of the --faults grammar (see parse_fault_plan);
  /// parse(to_spec()) reproduces the event exactly.
  std::string to_spec() const;
};

/// A deterministic, replayable schedule of fault events. The engine
/// executes core events as first-class simulation events in time order;
/// traffic events are materialized by FaultTrafficStream before the run.
/// `seed` drives every random choice of the traffic injection (tuples,
/// collision search), so the same plan always injects identical packets.
struct FaultPlan {
  std::vector<FaultEvent> events;  ///< sorted by time (stable)
  std::uint64_t seed = 1;

  bool empty() const { return events.empty(); }

  /// Stable-sorts events by time (same-time events keep insertion order).
  void sort_events();

  /// Throws std::invalid_argument when the plan is malformed: unsorted
  /// events, negative times, core events without a core id, traffic events
  /// without rate/flows/duration, or (when `num_cores` > 0) a core id
  /// outside [0, num_cores).
  void validate(std::size_t num_cores = 0) const;

  /// Canonical ';'-joined --faults grammar for the whole plan.
  std::string to_spec() const;
};

/// Parses the --faults grammar into a sorted plan. Components are separated
/// by ';' (surrounding spaces ignored); times and durations are
/// util::parse_duration literals (ns/us/ms/s suffix, bare numbers are
/// nanoseconds):
///
///   down:CORE@TIME               core fails at TIME
///   up:CORE@TIME                 core recovers at TIME
///   slow:CORExFACTOR@TIME        services take FACTOR times as long
///   stall:CORE@TIME+DUR          core starts no new service for DUR
///   burst@TIME+DUR:rate=MPPS,flows=N    CRC16-collision flood
///   crowd@TIME+DUR:rate=MPPS,flows=N    flash crowd of new flows
///
/// Example: "down:3@10ms; up:3@30ms; burst@5ms+2ms:rate=2,flows=16".
/// Throws std::invalid_argument with the offending component on error.
FaultPlan parse_fault_plan(const std::string& spec);

/// Knobs for random_fault_plan.
struct RandomFaultParams {
  TimeNs horizon = from_us(10'000.0);  ///< events land in [10%, 80%] of this
  std::size_t num_cores = 16;
  /// Cap on simultaneously-down cores; 0 = max(1, num_cores / 4). The cap
  /// keeps every service reachable so chaos invariants (no packet routed
  /// to a dead core) stay checkable.
  std::size_t max_concurrent_down = 0;
  bool traffic_faults = true;  ///< include burst/crowd events
};

/// A randomized-but-seeded well-formed fault schedule: every down is paired
/// with a later up, slowdowns reset, stalls stay inside the horizon, and
/// concurrent downs respect the cap. Identical (seed, params) produce an
/// identical plan — the chaos harness replays schedules bit-exactly.
FaultPlan random_fault_plan(std::uint64_t seed,
                            const RandomFaultParams& params);

/// Wraps a base arrival stream, merging in the traffic-side fault events of
/// a plan: each burst/crowd is pre-materialized at construction (arrivals
/// evenly spaced over its span, cycling through its flow set) and merged by
/// time, base packets first on ties.
///
/// Injected flows must never share a gflow with a base flow, but churned
/// base traces assign dynamic ids as the run unfolds, so no id block above
/// the base population is safe to reserve up front. Instead, when the plan
/// injects traffic the id space is split by parity: base gflows are remapped
/// to 2*id and injected flows take 2*n+1. The flow block doubles for fault
/// runs with traffic events and is untouched otherwise (plans with only
/// core events pass base packets through unchanged).
class FaultTrafficStream final : public ArrivalStream {
 public:
  FaultTrafficStream(ArrivalStream& base, const FaultPlan& plan);

  std::optional<GeneratedPacket> next() override;
  std::size_t total_flows() const override;

  /// Packets this stream will inject over the whole run.
  std::size_t injected_packets() const { return injected_.size(); }
  /// Distinct flows among the injected packets.
  std::size_t injected_flows() const { return injected_flow_count_; }

 private:
  ArrivalStream& base_;
  std::vector<GeneratedPacket> injected_;  // time-sorted
  std::size_t pos_ = 0;
  std::optional<GeneratedPacket> pending_base_;
  bool base_primed_ = false;
  std::size_t injected_flow_count_ = 0;
};

/// Probe recording the fault timeline and per-outage recovery metrics into
/// a laps-bench-v1 style artifact:
///  * timeline: every executed fault event, with how many packets the
///    engine flushed for it;
///  * recoveries: per core_down, the outage span and the *reintegration
///    time* — how long after core_up the scheduler dispatched the first
///    packet back onto the recovered core (−1 if it never did).
class FaultProbe final : public SimProbe {
 public:
  struct TimelineRow {
    TimeNs time = 0;          ///< engine clock when the event executed
    FaultEvent event;
    std::uint32_t flushed = 0;  ///< packets dropped by a core_down flush
  };
  struct Recovery {
    std::int32_t core = -1;
    TimeNs down_at = 0;
    TimeNs up_at = -1;               ///< -1: still down at run end
    TimeNs first_dispatch_after_up = -1;  ///< -1: no packet after recovery
    std::uint32_t flushed = 0;

    TimeNs outage_ns() const { return up_at >= 0 ? up_at - down_at : -1; }
    TimeNs reintegrate_ns() const {
      return up_at >= 0 && first_dispatch_after_up >= 0
                 ? first_dispatch_after_up - up_at
                 : -1;
    }
  };

  void on_run_begin(const RunInfo& info) override;
  void on_fault(TimeNs now, const FaultEvent& event,
                std::uint32_t flushed) override;
  void on_dispatch(TimeNs now, const SimPacket& pkt, CoreId core,
                   bool migrated) override;

  const std::vector<TimelineRow>& timeline() const { return timeline_; }
  const std::vector<Recovery>& recoveries() const { return recoveries_; }
  std::uint64_t flush_drops() const { return flush_drops_; }

  /// JSON document (schema laps-bench-v1, tool fault_probe) with the
  /// timeline, recoveries, and totals.
  std::string to_json() const;
  /// Writes to_json() to `path`. Throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

 private:
  std::string scenario_;
  std::string scheduler_;
  std::vector<TimelineRow> timeline_;
  std::vector<Recovery> recoveries_;
  std::vector<std::int32_t> open_;     // core -> open recovery index, -1
  std::vector<std::uint8_t> waiting_;  // core recovered, first dispatch due
  std::size_t awaiting_ = 0;           // fast-path gate for on_dispatch
  std::uint64_t flush_drops_ = 0;
};

}  // namespace laps
