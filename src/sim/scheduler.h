#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "sim/packet.h"
#include "util/time.h"

namespace laps {

/// A core id within the simulated NPU. Cores are numbered 0..n-1.
using CoreId = std::uint32_t;

/// Per-core state a hardware scheduler can observe: the input-queue
/// occupancy counters and idle timers the Frame Manager maintains.
///
/// This struct is the *entire* scheduler-observable surface. Anything the
/// simulator knows beyond it (in-service packet, I-cache contents, busy-time
/// accounting) lives in the engine's private per-core state, so no scheduler
/// can depend on simulator internals by construction.
struct CoreView {
  /// Packets waiting in the input queue (excluding the one in service).
  std::uint32_t queue_len = 0;
  /// True while the core is processing a packet.
  bool busy = false;
  /// Time the core became completely idle (empty queue, nothing in
  /// service); -1 while the core has work. Drives the paper's idle_th
  /// surplus-marking timer (Sec. III-D).
  TimeNs idle_since = -1;

  /// Load proxy: queued packets plus the one in service.
  std::uint32_t load() const { return queue_len + (busy ? 1u : 0u); }
};

/// Read-only view of the NPU the scheduler consults per packet.
class NpuView {
 public:
  virtual ~NpuView() = default;

  /// Current simulation time.
  virtual TimeNs now() const = 0;

  /// Per-core observable state; size = core count.
  virtual std::span<const CoreView> cores() const = 0;

  /// Input-queue capacity (paper: 32 descriptors).
  virtual std::uint32_t queue_capacity() const = 0;

  /// Total load proxy for a core: queued packets plus the one in service.
  std::uint32_t load(CoreId core) const { return cores()[core].load(); }
};

/// One scheduler-internal decision, reported through the observability
/// sink so probes see *when* reallocations and migrations happen instead of
/// only end-of-run extra_stats() totals.
struct SchedEvent {
  enum class Kind : std::uint8_t {
    kCoreGrant,            ///< a core was reallocated to `service`
    kCoreDenied,           ///< a core request found no surplus donor
    kAggressiveMigration,  ///< an AFC-hit flow was pinned to a new core
    kAfdPromotion,         ///< a flow was promoted from annex cache to AFC
    kPark,                 ///< power gating put a core to sleep
    kWake,                 ///< a parked core was powered back up
    kCoreDown,             ///< fault injection took a core offline
    kCoreUp,               ///< fault injection brought a core back
    kCoreSlowdown,         ///< fault injection changed a core's speed
    kCoreStall,            ///< fault injection stalled a core
    kTrafficFault,         ///< adversarial traffic injection marker
  };

  Kind kind = Kind::kCoreGrant;
  std::int32_t core = -1;      ///< core involved, or -1 when not applicable
  std::int32_t service = -1;   ///< service involved, or -1
  std::uint64_t flow_key = 0;  ///< flow key for migrations/promotions, else 0

  /// Short display label ("core_grant", "park", ...).
  static const char* kind_name(Kind kind);
};

/// Receives scheduler-internal events. The simulation engine installs
/// itself as the sink before attach() and timestamps each event with the
/// simulated clock before fanning it out to the attached probes.
class SchedEventSink {
 public:
  virtual ~SchedEventSink() = default;
  virtual void sched_event(const SchedEvent& event) = 0;
};

/// Scheduler-internal occupancies and counters sampled for telemetry at
/// epoch cadence. Every field defaults to -1 = "not applicable to this
/// policy"; implementations fill only what their mechanisms track, and the
/// TelemetryProbe registers gauges only for fields that were >= 0 in the
/// run-begin sample (so FCFS runs don't export a parade of dead zeros).
struct SchedTelemetry {
  std::int64_t afc_occupancy = -1;     ///< live AFC entries (AFD cache)
  std::int64_t afd_hits = -1;          ///< AFC hits (detector fast path)
  std::int64_t afd_evictions = -1;     ///< AFC demotions (victims evicted)
  std::int64_t pinned_flows = -1;      ///< migration-table entries
  std::int64_t parked_cores = -1;      ///< cores power-gated right now
  std::int64_t wake_strikes = -1;      ///< wake-hysteresis strikes issued
  std::int64_t core_transitions = -1;  ///< LiveCoreSet up/down flips seen
};

/// Packet scheduler interface — the decision logic in the Frame Manager
/// (paper Fig. 1/3). One call per arriving packet; the returned core's input
/// queue receives the descriptor (the simulator drops the packet if that
/// queue is full, per Sec. IV-C2).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once before simulation with the core count.
  virtual void attach(std::size_t num_cores) = 0;

  /// Picks the target core for `pkt`. Must return a valid core id.
  virtual CoreId schedule(const SimPacket& pkt, const NpuView& view) = 0;

  /// Display name ("FCFS", "AFS", "LAPS", ...).
  virtual std::string name() const = 0;

  /// Scheduler-internal counters for reports (e.g. LAPS core
  /// reallocations, AFD promotions). Keys become report columns.
  virtual std::map<std::string, double> extra_stats() const { return {}; }

  /// Installs (or clears, with nullptr) the observability sink. Called by
  /// the engine before attach(). Schedulers with internal decisions worth
  /// tracing (LAPS reallocations, park/wake) emit through it; the default
  /// ignores the sink, so simple baselines need no changes.
  virtual void set_event_sink(SchedEventSink* sink) { (void)sink; }

  /// Fault notification: `core` failed — its queue was flushed and the
  /// engine will drop anything scheduled to it until notify_core_up. Called
  /// by the engine at the fault's simulated time, before any further
  /// schedule() call. Implementations should stop targeting the core and
  /// remap state pinned to it; the default ignores faults (the engine still
  /// guarantees no packet is *enqueued* to a dead core by dropping).
  virtual void notify_core_down(CoreId core, const NpuView& view) {
    (void)core;
    (void)view;
  }

  /// Fault notification: a previously-failed `core` recovered and may be
  /// targeted again.
  virtual void notify_core_up(CoreId core, const NpuView& view) {
    (void)core;
    (void)view;
  }

  /// Introspection hook: the flows the scheduler currently classifies as
  /// aggressive, most-frequent first (the live AFC contents for LAPS).
  /// Probes sample this at epoch boundaries to score detector accuracy
  /// online against exact per-flow counts. Read-only — implementations
  /// must not perturb detector state. Schedulers without a detector
  /// return the default empty set.
  virtual std::vector<std::uint64_t> aggressive_snapshot() const {
    return {};
  }

  /// Telemetry sample: current mechanism occupancies/counters, -1 for
  /// fields the policy has no mechanism for (see SchedTelemetry). Sampled
  /// by the TelemetryProbe at epoch cadence; must be read-only and cheap
  /// (it runs a few thousand times per simulated second, not per packet).
  virtual SchedTelemetry telemetry_sample() const { return {}; }
};

}  // namespace laps
