#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace laps {

/// Power-gating tunables (extracted from LapsConfig so non-LAPS policies —
/// e.g. AFS+power — can gate cores with the same semantics).
struct PowerConfig {
  /// Master switch; when false every PowerManager entry point early-returns
  /// and parked() is always false.
  bool enabled = false;
  /// A core surplus for this long is parked.
  TimeNs sleep_after = from_us(50.0);
  /// Every `consolidate_window` packets of a service, the core whose *own*
  /// window-max queue depth stayed below `consolidate_watermark` is parked.
  std::uint64_t consolidate_window = 4'096;
  std::uint32_t consolidate_watermark = 3;
  /// Post-wake consolidation pause (doubled per wake, capped at << 6).
  TimeNs consolidate_backoff = from_us(2'000.0);
  /// Every service keeps at least this many unparked live cores.
  std::size_t min_unparked = 1;
};

/// The callbacks PowerManager needs from its owning policy: who owns which
/// core, which cores are dead, and how to actually park one (parking is a
/// policy action — it scrubs routing tables and emits events — so the
/// mechanism delegates it and only keeps the timing/eligibility state).
/// All calls happen inside the scheduler's own dispatch, never re-entrantly.
class PowerHost {
 public:
  virtual ~PowerHost() = default;
  virtual std::size_t owner_of(CoreId core) const = 0;
  virtual const std::vector<CoreId>& cores_of(std::size_t service) const = 0;
  virtual bool core_down(CoreId core) const = 0;
  /// Performs the park: scrub `core` from `service`'s routing state, then
  /// call PowerManager::park(core, now), then emit whatever events the
  /// policy reports.
  virtual void park_core(std::size_t service, CoreId core, TimeNs now) = 0;
};

/// Core power-gating mechanism: all the park/wake timing state that was
/// embedded in LapsScheduler — surplus timers, sleep spans, post-wake
/// hysteresis, per-service consolidation windows with slack streaks and
/// exponential wake backoff — behind a policy-neutral interface.
///
/// The split: PowerManager decides *which core* should park or wake and
/// keeps every timer consistent; the PowerHost (the policy) executes the
/// transition on its routing tables. All eligibility rules are preserved
/// bit-for-bit from the pre-split LAPS implementation:
///   - park after `sleep_after` of continuous surplus, unless inside the
///     post-wake `no_park_until` hysteresis window (10 * sleep_after);
///   - never below `min_unparked` live unparked cores per service;
///   - consolidation parks the window-coldest core only after two
///     consecutive slack windows, and backs off exponentially after wakes.
class PowerManager {
 public:
  explicit PowerManager(const PowerConfig& config) : config_(config) {}

  /// Resets all state for a run. Arrays are sized even when disabled so
  /// parked()/surplus reads stay valid on the fast path.
  void attach(std::size_t num_cores, std::size_t num_services);

  bool enabled() const { return config_.enabled; }
  const PowerConfig& config() const { return config_; }
  bool parked(CoreId core) const { return parked_[core]; }

  // --- surplus timers ------------------------------------------------------
  /// Records when `core` became surplus (first caller wins; cleared by
  /// clear_surplus). `since` is the instant the idle threshold elapsed.
  void note_surplus(CoreId core, TimeNs since) {
    if (surplus_since_[core] < 0) surplus_since_[core] = since;
  }
  /// The core was dispatched to, granted, woken, or died: stop counting.
  /// Returns true if a running surplus timer was cleared.
  bool clear_surplus(CoreId core) {
    const bool running = surplus_since_[core] >= 0;
    surplus_since_[core] = -1;
    return running;
  }

  // --- park/wake transitions ----------------------------------------------
  /// Marks `core` parked at `now` (called by the host from park_core after
  /// it scrubbed routing state).
  void park(CoreId core, TimeNs now);
  /// Wakes `core` if parked: closes its sleep span, arms the post-wake
  /// hysteresis, counts the wake. Returns true if the core was parked.
  /// The *host* emits the wake event (it knows the owning service).
  bool wake(CoreId core, TimeNs now);
  /// A parked core died: close its sleep span without wake semantics, and
  /// clear its surplus timer.
  void on_core_down(CoreId core, TimeNs now);

  // --- periodic policies ---------------------------------------------------
  /// Parks every eligible surplus core (idle-timeout parking). No-op when
  /// disabled.
  void update_parking(TimeNs now, PowerHost& host);
  /// Window-based consolidation bookkeeping; called per dispatch with the
  /// packet's target core. No-op outside window boundaries.
  void update_consolidation(std::size_t service, CoreId target,
                            const NpuView& view, PowerHost& host);
  /// A wake-ahead fired in `service`: double its consolidation backoff
  /// (capped), so load that keeps defeating parking converges to a stable
  /// unparked configuration instead of churning.
  void note_wake_backoff(std::size_t service, TimeNs now);

  // --- reporting -----------------------------------------------------------
  /// Total parked core-time including spans still open at `now`.
  TimeNs parked_total(TimeNs now) const;
  std::uint64_t sleep_events() const { return sleep_events_; }
  std::uint64_t wake_events() const { return wake_events_; }

  /// Cores parked right now (telemetry gauge; O(num_cores) scan, called at
  /// epoch cadence, not per packet).
  std::size_t parked_count() const {
    std::size_t n = 0;
    for (const bool p : parked_) n += p;
    return n;
  }

  /// Current wake-hysteresis strikes summed across services (telemetry
  /// gauge for how hard the backoff doubling is leaning on wakes).
  std::uint64_t wake_strikes_total() const {
    std::uint64_t n = 0;
    for (const std::uint32_t s : wake_strikes_) n += s;
    return n;
  }
  /// Adds the power keys (parked_core_us, sleep_events, wake_events) to a
  /// stats map; only when enabled, so gating-off artifacts stay identical.
  void append_stats(std::map<std::string, double>& stats, TimeNs now) const;

 private:
  PowerConfig config_;
  std::vector<bool> parked_;
  std::vector<TimeNs> surplus_since_;  // -1 = not marked
  std::vector<TimeNs> parked_since_;
  std::vector<TimeNs> no_park_until_;  // post-wake hysteresis deadline
  // Per-service consolidation windows; per-core window-max queue depths
  // (cores belong to exactly one service, so one global array suffices).
  std::vector<std::uint64_t> window_packets_;
  std::vector<std::uint32_t> window_core_max_;
  std::vector<TimeNs> no_consolidate_until_;  // per service, set on wake
  std::vector<std::uint32_t> wake_strikes_;   // per service, backoff doubling
  std::vector<std::uint32_t> slack_streak_;   // consecutive slack windows
  TimeNs parked_total_ns_ = 0;
  std::uint64_t sleep_events_ = 0;
  std::uint64_t wake_events_ = 0;
};

}  // namespace laps
