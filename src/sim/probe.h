#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/time.h"

namespace laps {

struct FaultEvent;  // sim/fault.h

/// Static facts about one simulation run, delivered to every probe before
/// the first event.
struct RunInfo {
  std::string scenario;        ///< scenario label (report key)
  std::string scheduler;       ///< scheduler display name
  std::size_t num_cores = 0;
  std::uint32_t queue_capacity = 0;
  bool restore_order = false;  ///< egress ReorderBuffer enabled
};

/// End-of-run aggregates only the engine can compute, delivered to every
/// probe after the last event. Everything else a probe reports it must
/// accumulate itself from the per-event hooks.
struct RunEnd {
  TimeNs horizon = 0;     ///< time of the last generated arrival
  TimeNs end = 0;         ///< max(horizon, last event time) — drain included
  TimeNs busy_total = 0;  ///< summed busy time across all cores
  /// Scheduler extra_stats() merged with the engine's rob_* counters —
  /// exactly the `extra` map of the seed report format.
  std::map<std::string, double> extra;
};

/// Engine-internal state sampled at epoch boundaries for telemetry: the
/// counters and occupancies only the engine can see (its completion queue,
/// flow table, reorder buffer, fault bitmap). Delivered via
/// on_engine_sample alongside each on_epoch fan-out, plus once at run end,
/// so probes never reach into the engine.
struct EngineSample {
  std::uint64_t completions = 0;     ///< completion events handled so far
  std::uint64_t flows = 0;           ///< flow-table size (flows ever seen)
  std::uint64_t rob_occupancy = 0;   ///< reorder-buffer residents (0 if off)
  std::uint32_t live_cores = 0;      ///< cores not faulted down
};

/// Passive observer of the simulation fast path.
///
/// The engine invokes hooks in a fixed order per packet lifecycle:
///   on_arrival -> (on_drop | on_dispatch) -> on_service_start ->
///   on_departure
/// plus on_epoch at fixed simulated-time boundaries (when enabled),
/// on_sched_event for scheduler-internal decisions, and
/// on_run_begin/on_run_end bracketing the run. Hooks must not mutate
/// simulation state; every default is a no-op so probes override only what
/// they measure.
class SimProbe {
 public:
  virtual ~SimProbe() = default;

  virtual void on_run_begin(const RunInfo& info) { (void)info; }

  /// A packet was presented to the scheduler (before the dispatch
  /// decision). `pkt.seq` is already assigned.
  virtual void on_arrival(TimeNs now, const SimPacket& pkt) {
    (void)now;
    (void)pkt;
  }

  /// The scheduled core's queue was full; the packet is lost.
  virtual void on_drop(TimeNs now, const SimPacket& pkt, CoreId core) {
    (void)now;
    (void)pkt;
    (void)core;
  }

  /// The packet was enqueued on `core`. `migrated` flags a flow whose
  /// previous packet was dispatched to a different core (the Fig. 9c
  /// flow-migration count).
  virtual void on_dispatch(TimeNs now, const SimPacket& pkt, CoreId core,
                           bool migrated) {
    (void)now;
    (void)pkt;
    (void)core;
    (void)migrated;
  }

  /// `core` started processing `pkt`, which will occupy it for `delay`.
  /// `fm_penalty`/`cold_cache` flag the Eq. 3 penalty charges.
  virtual void on_service_start(TimeNs now, const SimPacket& pkt, CoreId core,
                                TimeNs delay, bool fm_penalty,
                                bool cold_cache) {
    (void)now;
    (void)pkt;
    (void)core;
    (void)delay;
    (void)fm_penalty;
    (void)cold_cache;
  }

  /// `pkt` finished processing on `core`. `new_ooo` is how many packets
  /// this departure counted as out-of-order (with order restoration one
  /// completion can release, and order-check, several buffered packets).
  virtual void on_departure(TimeNs now, const SimPacket& pkt, CoreId core,
                            std::uint32_t new_ooo) {
    (void)now;
    (void)pkt;
    (void)core;
    (void)new_ooo;
  }

  /// Fixed simulated-time boundary (engine epoch_ns > 0). `cores` is the
  /// scheduler-observable per-core state at the boundary.
  virtual void on_epoch(TimeNs now, std::span<const CoreView> cores) {
    (void)now;
    (void)cores;
  }

  /// Engine-internal counters/occupancies, emitted right after the
  /// on_epoch fan-out at each boundary and once more just before
  /// on_run_end. Purely observational — fires only when probes are
  /// attached, so probe-free runs are untouched.
  virtual void on_engine_sample(TimeNs now, const EngineSample& sample) {
    (void)now;
    (void)sample;
  }

  /// A scheduler-internal decision, timestamped by the engine.
  virtual void on_sched_event(TimeNs now, const SchedEvent& event) {
    (void)now;
    (void)event;
  }

  /// A fault-plan event (sim/fault.h) was applied by the engine. `flushed`
  /// is how many packets a core_down flush dropped (0 for other kinds).
  /// Only fires for runs configured with a FaultPlan.
  virtual void on_fault(TimeNs now, const FaultEvent& event,
                        std::uint32_t flushed) {
    (void)now;
    (void)event;
    (void)flushed;
  }

  virtual void on_run_end(const RunEnd& end) { (void)end; }
};

/// A small, fixed-capacity set of non-owning probe pointers the engine fans
/// events out to. Empty by default: the null probe set is the engine's fast
/// path (one branch per hook site, no indirect calls).
class ProbeSet {
 public:
  static constexpr std::size_t kMaxProbes = 8;

  ProbeSet() = default;
  ProbeSet(std::initializer_list<SimProbe*> probes) {
    for (SimProbe* p : probes) add(p);
  }

  /// Adds a probe; null pointers are ignored so call sites can pass
  /// optionally-constructed probes unconditionally.
  void add(SimProbe* probe) {
    if (probe == nullptr) return;
    if (count_ == kMaxProbes) throw std::length_error("ProbeSet: full");
    probes_[count_++] = probe;
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  std::span<SimProbe* const> probes() const { return {probes_.data(), count_}; }

 private:
  std::array<SimProbe*, kMaxProbes> probes_{};
  std::size_t count_ = 0;
};

}  // namespace laps
