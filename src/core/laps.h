#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/afd.h"
#include "core/core_allocator.h"
#include "core/live_core_set.h"
#include "core/map_table.h"
#include "core/migration_table.h"
#include "core/power_manager.h"
#include "sim/scheduler.h"

namespace laps {

/// Tunables of the Locality-Aware Packet Scheduler.
struct LapsConfig {
  /// Number of services sharing the NPU (the paper's multi-service router
  /// has 4; the Fig. 9 experiment uses 1). Packets' ServicePath is reduced
  /// modulo this count.
  std::size_t num_services = 4;
  /// Queue occupancy at which a core counts as overloaded — Listing 1's
  /// load-imbalance condition and its `high_thresh` (default: 3/4 of the
  /// 32-descriptor queue).
  std::uint32_t high_thresh = 24;
  /// Idle time after which a core is marked surplus (Sec. III-D idle_th).
  /// The paper leaves the value open; 5 us (ten IP-forwarding service
  /// times) is long enough that busy cores are never marked, yet short
  /// enough that a lightly loaded service exposes donor cores while its
  /// per-core arrival gaps are still only microseconds.
  TimeNs idle_th = from_us(5.0);
  /// Migration-table capacity (hardware CAM/SRAM size). Must comfortably
  /// exceed the number of flows pinned over a run: when live pins are
  /// evicted, their flows bounce back to the hash path and re-migrate,
  /// inflating reordering (measured: 8x worse OOO at 128 entries under the
  /// paper's threshold-only promotion rule, which pins thousands of flows
  /// in sustained overload; the default AFC-min guard pins few enough that
  /// capacity is rarely binding — see abl_laps_sensitivity).
  std::size_t migration_table_capacity = 1024;
  /// Every service keeps at least this many cores.
  std::size_t min_cores_per_service = 1;
  /// Power gating (extension; paper Sec. I cites traffic-aware power
  /// management [20],[29] as a motivation for dynamic core allocation):
  /// a core that has been surplus for `sleep_after` is *parked* — removed
  /// from its service's map table and powered down — until its owner needs
  /// it back or another service claims it. Parked core-time is reported in
  /// extra_stats() so benches can translate it to energy.
  bool power_gating = false;
  TimeNs sleep_after = from_us(50.0);
  /// Wake-ahead watermark: when a packet's target queue reaches this depth
  /// and the service has parked cores, one is woken immediately — capacity
  /// returns *before* queues overflow instead of waiting for the Listing-1
  /// "all cores overloaded" signal. 0 = high_thresh / 2.
  std::uint32_t wake_watermark = 16;
  /// Consolidation: every `consolidate_window` packets of a service, the
  /// core whose *own* maximum queue depth over the window stayed below
  /// `consolidate_watermark` is parked (traffic folds onto the rest). Pure
  /// idleness almost never parks anything above ~20% load because hashing
  /// keeps every core trickling, and a global-max criterion is blinded by
  /// one elephant-hot core; the per-core window maximum finds the cold
  /// cores regardless (Iqbal & John, ANCS'12 follow the same principle).
  std::uint64_t consolidate_window = 4'096;
  std::uint32_t consolidate_watermark = 3;
  /// After any wake in a service, consolidation in that service pauses for
  /// this long. A wake is evidence the last park was premature; without
  /// the backoff, park/wake cycles churn the map table (and its FM
  /// penalties cost more energy than the parking saves).
  TimeNs consolidate_backoff = from_us(2'000.0);
  /// Map-table entries per core. With a single entry per core, linear
  /// hashing leaves unsplit buckets carrying twice the traffic of split
  /// ones whenever b is not a power of two — a structural 2x per-core skew
  /// that no amount of elephant migration can remove. Spreading each core
  /// over several smaller buckets (round-robin) averages that skew away;
  /// 8 keeps the residual under ~12% while the table stays tiny.
  std::size_t entries_per_core = 8;
  /// Aggressive Flow Detector configuration; afd.afc_entries is the paper's
  /// "top K" knob swept in Fig. 9. The scheduler defaults the AFC-min
  /// promotion guard ON (see make_default_afd below): migrating a false
  /// positive costs real FM penalties and reordering, so the integrated
  /// detector is tuned stricter than the standalone one. The migrating
  /// hybrids (hash-migrate, adaptive-afd) default to the same detector.
  AfdConfig afd = make_default_afd();

  static AfdConfig make_default_afd() {
    AfdConfig cfg;
    cfg.require_beat_afc_min = true;
    return cfg;
  }

  /// The power-gating slice of this config, for the PowerManager mechanism.
  PowerConfig power() const {
    PowerConfig cfg;
    cfg.enabled = power_gating;
    cfg.sleep_after = sleep_after;
    cfg.consolidate_window = consolidate_window;
    cfg.consolidate_watermark = consolidate_watermark;
    cfg.consolidate_backoff = consolidate_backoff;
    cfg.min_unparked = min_cores_per_service;
    return cfg;
  }
};

/// LAPS — the paper's Locality-Aware Packet Scheduler (Sec. III, Fig. 3).
///
/// Decision path per packet (Sec. III-E):
///   1. migration-table hit -> use the pinned core;
///   2. otherwise CRC16(5-tuple) into the packet's *service* map table
///      (incremental hashing, so core grants/releases barely disturb flows);
///   3. under load imbalance, a flow that hits in the AFC is migrated to the
///      service's least-loaded core and pinned in the migration table
///      (Listing 1);
///   4. if every core of the service is overloaded, request one more core —
///      the allocator grants the longest-surplus core from another service.
///
/// Because each service owns its cores exclusively, a core's small I-cache
/// only ever holds one program (until a reallocation), which is where the
/// Fig. 7b cold-cache advantage comes from.
///
/// The policy calls the paper's structures directly: the Afd, and per
/// service one MapTable and one MigrationTable. Beside them it holds a
/// CoreAllocator (surplus protocol), a PowerManager (park/wake timing, shared
/// with AFS+power) and a LiveCoreSet (fault liveness, shared with the
/// baselines). The per-packet order of operations is pinned by
/// tests/scheduler_equiv_test.
class LapsScheduler final : public Scheduler, private PowerHost {
 public:
  explicit LapsScheduler(LapsConfig config = {});

  void attach(std::size_t num_cores) override;

  CoreId schedule(const SimPacket& pkt, const NpuView& view) override;

  std::string name() const override { return "LAPS"; }

  std::map<std::string, double> extra_stats() const override;

  /// Observability: core grants/denials, AFD promotions, aggressive-flow
  /// migrations, and park/wake transitions are emitted through the sink as
  /// they happen (the extra_stats() totals only say how many, not when).
  void set_event_sink(SchedEventSink* sink) override { sink_ = sink; }

  /// Live AFC contents, most-frequent first — the Fig. 8 methodology run
  /// *inside* a simulation: accuracy probes score this snapshot against
  /// exact per-flow counts at every epoch. The detector's snapshot is a
  /// read-only hardware-style lookup, so sampling never perturbs it.
  std::vector<std::uint64_t> aggressive_snapshot() const override;

  /// Current mechanism occupancies for the telemetry layer: AFC size and
  /// hit/eviction totals, pinned flows summed over services, power-gating
  /// state (when enabled), and LiveCoreSet churn. Safe pre-attach (all
  /// zeros / N/A) — the TelemetryProbe samples once at run begin to learn
  /// which gauges this policy exports.
  SchedTelemetry telemetry_sample() const override;

  /// Graceful degradation on core failure (drain/remap protocol, see
  /// DESIGN.md): the dead core is taken offline in the allocator, its
  /// migration pins are dropped, and its map-table buckets are drained.
  /// When the dead core held the service's *last* bucket, a replacement is
  /// acquired first (own parked core, then a surplus donor, then the
  /// emergency grant_any), so the service keeps routable capacity.
  void notify_core_down(CoreId core, const NpuView& view) override;

  /// Recovery: the core rejoins the allocator and its owner's map table
  /// (incremental hashing pulls flows back gradually; no flood of
  /// migrations).
  void notify_core_up(CoreId core, const NpuView& view) override;

  // Introspection for tests.
  const CoreAllocator& allocator() const { return *allocator_; }
  const MapTable& map_table(std::size_t service) const {
    return maps_.at(service);
  }
  const MigrationTable& migration_table(std::size_t service) const {
    return pins_.at(service);
  }
  const Afd& afd() const { return *afd_; }
  const LapsConfig& config() const { return config_; }

  /// Decisions whose chosen core was down and had to be rerouted at the
  /// last step. The drain/remap protocol keeps dead cores out of every
  /// table, so this should stay 0; it is a diagnostic, deliberately not in
  /// extra_stats() (report artifacts stay unchanged).
  std::uint64_t dead_target_reroutes() const { return dead_target_reroutes_; }

 private:
  std::size_t service_index(ServicePath path) const {
    return static_cast<std::size_t>(path) % config_.num_services;
  }

  // PowerHost — the mechanism's view of this policy.
  std::size_t owner_of(CoreId core) const override {
    return allocator_->owner(core);
  }
  const std::vector<CoreId>& cores_of(std::size_t service) const override {
    return allocator_->cores_of(service);
  }
  bool core_down(CoreId core) const override { return live_.is_down(core); }
  /// Parks `core` of `service` (removes its buckets and pins). The caller
  /// guarantees eligibility.
  void park_core(std::size_t service, CoreId core, TimeNs now) override;

  /// Lazily advances the surplus timers: marks every core that has been
  /// idle past idle_th (Sec. III-D). Called once per arrival, but scans the
  /// cores only once `now` reaches rescan_at_: the earliest instant an
  /// unmarked core can cross idle_th. A scan at t sets that deadline to
  /// min(t + idle_th, idle_since + idle_th of every idle core not yet past
  /// idle_th) — a core that goes idle after t has idle_since >= t, so it
  /// cannot cross sooner — and every call that clears a mark or surplus
  /// timer resets it to kRescanNow. Between deadlines a scan would only
  /// re-mark marked cores, so the marks match a scan on every arrival.
  void update_surplus_marks(TimeNs now, std::span<const CoreView> cores);

  /// Least-loaded core among those owned by `service`.
  CoreId least_loaded_of(std::size_t service,
                         std::span<const CoreView> cores) const;

  /// Listing 1's request_core(): try to grow `service` by one core; updates
  /// the victim's map/migration tables. With power gating, the service's
  /// own parked cores are reclaimed first (no context switch needed, as
  /// Sec. III-D intends). Returns true on success.
  bool request_core(std::size_t service);

  /// The grant machinery behind request_core: wake an own parked core,
  /// else take a surplus donor core. `emergency` (core-failure replacement
  /// only) additionally falls back to CoreAllocator::grant_any — normal
  /// overload never steals a busy core. Returns true and emits kCoreGrant
  /// on success; the caller reports denial.
  bool acquire_core(std::size_t service, bool emergency);

  /// Power gating: reclaims one of `service`'s own parked cores (wakes it,
  /// clears its surplus marks, restores its buckets). Returns the core, or
  /// nothing when none is parked.
  std::optional<CoreId> reclaim_parked_core(std::size_t service);

  /// Wakes a parked core, accounting its sleep span. Returns true if the
  /// core was parked.
  bool wake_core(CoreId core, TimeNs now);
  /// Adds `core`'s virtual buckets to `service`'s map table.
  void add_core_buckets(std::size_t service, CoreId core);
  /// Removes `core` from `service`'s routing state: drains its map buckets
  /// one by one (stopping if the table refuses the last one) and drops its
  /// pins. Used when a core parks or is granted to another service.
  void scrub_core(std::size_t service, CoreId core);

  /// Emits a scheduler-internal event when a sink is installed.
  void emit(SchedEvent::Kind kind, std::int32_t core, std::int32_t service,
            std::uint64_t flow_key = 0) {
    if (sink_ == nullptr) return;
    SchedEvent event;
    event.kind = kind;
    event.core = core;
    event.service = service;
    event.flow_key = flow_key;
    sink_->sched_event(event);
  }

  LapsConfig config_;
  SchedEventSink* sink_ = nullptr;
  std::unique_ptr<CoreAllocator> allocator_;
  std::unique_ptr<Afd> afd_;
  std::vector<MapTable> maps_;        // one per service
  std::vector<MigrationTable> pins_;  // one per service
  PowerManager power_;
  LiveCoreSet live_;
  TimeNs last_now_ = 0;
  static constexpr TimeNs kRescanNow = std::numeric_limits<TimeNs>::min();
  TimeNs rescan_at_ = kRescanNow;  // see update_surplus_marks

  // Counters for extra_stats().
  std::uint64_t aggressive_migrations_ = 0;
  std::uint64_t core_requests_ = 0;
  std::uint64_t core_requests_denied_ = 0;
  // Pins found pointing at a core that left the service or died.
  std::uint64_t stale_pins_dropped_ = 0;
  // Fault counters; the fault_* extra_stats keys appear only when a fault
  // was actually seen, so fault-free artifacts stay byte-identical.
  std::uint64_t cores_down_events_ = 0;
  std::uint64_t cores_up_events_ = 0;
  std::uint64_t fault_unreplaced_buckets_ = 0;
  std::uint64_t dead_target_reroutes_ = 0;
};

}  // namespace laps
