#pragma once

#include <numeric>
#include <vector>

#include "baselines/static_hash.h"
#include "cache/afd.h"
#include "core/laps.h"
#include "core/migration_table.h"
#include "core/power_manager.h"

namespace laps {

/// HashMigrate — StaticHash + the AFD and a migration table: Dittmann's
/// static bucket table with LAPS's elephant-migration path grafted on.
///
/// The hash path never rebalances (no AFS bundle shifts, no adaptive
/// re-weighting); the *only* adaptivity is Listing 1's migration rule: when
/// a packet's target core is overloaded and the flow hits in the AFC, pin
/// it to the least-loaded core. This isolates what flow-granular migration
/// alone buys over a static hash — the middle ground between StaticHash
/// ("no flows migrated") and LAPS in the Fig. 9 comparison.
class HashMigrateScheduler final : public StaticHashScheduler {
 public:
  struct Options {
    std::size_t num_buckets = 0;  ///< 0 = StaticHash default
    /// AFD tuned like the integrated LAPS detector (AFC-min guard on).
    AfdConfig afd = LapsConfig::make_default_afd();
    std::uint32_t high_thresh = 24;
    std::size_t migration_table_capacity = 1024;
  };

  HashMigrateScheduler() : HashMigrateScheduler(Options{}) {}
  explicit HashMigrateScheduler(Options options)
      : StaticHashScheduler(options.num_buckets),
        options_(options),
        afd_(options.afd),
        pins_(options.migration_table_capacity) {}

  void attach(std::size_t num_cores) override;
  CoreId schedule(const SimPacket& pkt, const NpuView& view) override;
  std::string name() const override { return "HashMigrate"; }

  std::map<std::string, double> extra_stats() const override;

  std::vector<std::uint64_t> aggressive_snapshot() const override {
    return afd_.aggressive_flows();
  }

  /// StaticHash's liveness churn plus the detector/pin-table occupancies
  /// this hybrid adds on top.
  SchedTelemetry telemetry_sample() const override {
    SchedTelemetry t = StaticHashScheduler::telemetry_sample();
    t.afc_occupancy = static_cast<std::int64_t>(afd_.afc_size());
    t.afd_hits = static_cast<std::int64_t>(afd_.stats().afc_hits);
    t.afd_evictions = static_cast<std::int64_t>(afd_.stats().demotions);
    t.pinned_flows = static_cast<std::int64_t>(pins_.size());
    return t;
  }

  /// Degradation: pins to the dead core are dead routes — drop them, then
  /// let StaticHash rehash the bucket table over the survivors.
  void notify_core_down(CoreId core, const NpuView& view) override {
    pins_.remove_core_entries(core);
    StaticHashScheduler::notify_core_down(core, view);
  }

  const Options& options() const { return options_; }
  const MigrationTable& migration_table() const { return pins_; }

 private:
  Options options_;
  Afd afd_;
  MigrationTable pins_;
  std::uint64_t aggressive_migrations_ = 0;
  std::uint64_t stale_pins_dropped_ = 0;
};

/// AFS+power — Dittmann's Arbitrary Flow Shift with the PowerManager
/// mechanism attached: cores that stay surplus are parked out of the hash
/// table (the rebuild simply excludes them), and the wake-ahead watermark /
/// consolidation-window machinery works exactly as in gated LAPS.
///
/// AFS has no incremental map table, so every park/wake is a global rehash
/// — deliberately crude. Comparing its reordering and parked core-time
/// against gated LAPS shows what incremental hashing buys a power policy.
class AfsPowerScheduler final : public StaticHashScheduler,
                                private PowerHost {
 public:
  struct Options {
    std::uint32_t high_thresh = 24;
    std::size_t num_buckets = 0;
    std::uint64_t shift_cooldown = 2048;
    /// Idle time after which a core counts as surplus (parking input).
    TimeNs idle_th = from_us(5.0);
    /// Queue depth at the packet's target that wakes a parked core.
    std::uint32_t wake_watermark = 16;
    /// Park/wake timing knobs (enabled is forced on — an AfsPower without
    /// power would just be AFS).
    PowerConfig power = default_power();

    static PowerConfig default_power() {
      PowerConfig cfg;
      cfg.enabled = true;
      return cfg;
    }
  };

  AfsPowerScheduler() : AfsPowerScheduler(Options{}) {}
  explicit AfsPowerScheduler(Options options)
      : StaticHashScheduler(options.num_buckets),
        options_(force_enabled(std::move(options))),
        power_(options_.power) {}

  void attach(std::size_t num_cores) override;
  CoreId schedule(const SimPacket& pkt, const NpuView& view) override;
  std::string name() const override { return "AFS+power"; }

  std::map<std::string, double> extra_stats() const override;

  /// StaticHash's liveness churn plus the power-gating occupancies.
  SchedTelemetry telemetry_sample() const override {
    SchedTelemetry t = StaticHashScheduler::telemetry_sample();
    t.parked_cores = static_cast<std::int64_t>(power_.parked_count());
    t.wake_strikes = static_cast<std::int64_t>(power_.wake_strikes_total());
    return t;
  }

  void notify_core_down(CoreId core, const NpuView& view) override {
    last_now_ = view.now();
    // A parked core that dies closes its sleep span without waking.
    if (live_.is_live(core)) power_.on_core_down(core, last_now_);
    StaticHashScheduler::notify_core_down(core, view);
  }

  const Options& options() const { return options_; }
  const PowerManager& power() const { return power_; }

 protected:
  /// The rehash domain shrinks to live *unparked* cores; parking a core is
  /// "remove it from the table and fold its buckets onto the rest".
  void rebuild() override;

 private:
  static Options force_enabled(Options options) {
    options.power.enabled = true;
    return options;
  }

  // PowerHost: the whole NPU is one service.
  std::size_t owner_of(CoreId) const override { return 0; }
  const std::vector<CoreId>& cores_of(std::size_t) const override {
    return all_cores_;
  }
  bool core_down(CoreId core) const override { return live_.is_down(core); }
  void park_core(std::size_t, CoreId core, TimeNs now) override {
    power_.park(core, now);
    rebuild();
  }

  Options options_;
  PowerManager power_;
  std::vector<CoreId> all_cores_;
  TimeNs last_now_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t last_shift_ = 0;
  std::uint64_t bundle_shifts_ = 0;
};

}  // namespace laps
