#include "baselines/hybrids.h"

namespace laps {

// ------------------------------------------------------------ HashMigrate

void HashMigrateScheduler::attach(std::size_t num_cores) {
  StaticHashScheduler::attach(num_cores);
  afd_.reset();
  pins_.clear();
  aggressive_migrations_ = 0;
  stale_pins_dropped_ = 0;
}

CoreId HashMigrateScheduler::schedule(const SimPacket& pkt,
                                      const NpuView& view) {
  const std::uint64_t key = pkt.flow_key();
  afd_.access(key);

  // Pin path first (priority over the hash path, as in LAPS Fig. 3). A pin
  // to a core that has since died is stale — drop it and fall through.
  if (const auto pin = pins_.lookup(key)) {
    if (live_.is_live(*pin)) return *pin;
    pins_.erase(key);
    ++stale_pins_dropped_;
  }

  CoreId target = table_[bucket_of(pkt)];

  // Listing 1's migration rule, without any bucket-level rebalancing: only
  // AFC-resident elephants ever move, one flow at a time.
  if (view.cores()[target].queue_len >= options_.high_thresh) {
    CoreId best = target;
    std::uint32_t best_load = view.load(target);
    for (std::size_t c = 0; c < num_cores_; ++c) {
      const CoreId candidate = static_cast<CoreId>(c);
      if (live_.is_down(candidate)) continue;
      const std::uint32_t load = view.load(candidate);
      if (load < best_load) {
        best_load = load;
        best = candidate;
      }
    }
    if (best != target &&
        view.cores()[best].queue_len < options_.high_thresh &&
        afd_.is_aggressive(key)) {
      pins_.add(key, best);
      afd_.invalidate(key);
      ++aggressive_migrations_;
      target = best;
    }
  }
  return target;
}

std::map<std::string, double> HashMigrateScheduler::extra_stats() const {
  return {
      {"aggressive_migrations", static_cast<double>(aggressive_migrations_)},
      {"stale_pins_dropped", static_cast<double>(stale_pins_dropped_)},
      {"afd_promotions", static_cast<double>(afd_.stats().promotions)},
      {"afd_afc_hits", static_cast<double>(afd_.stats().afc_hits)},
  };
}

// -------------------------------------------------------------- AFS+power

void AfsPowerScheduler::attach(std::size_t num_cores) {
  // Size the power arrays before the base attach: the base calls rebuild(),
  // and our override reads parked() for every core.
  power_.attach(num_cores, /*num_services=*/1);
  all_cores_.resize(num_cores);
  std::iota(all_cores_.begin(), all_cores_.end(), CoreId{0});
  StaticHashScheduler::attach(num_cores);
  last_now_ = 0;
  seen_ = 0;
  last_shift_ = 0;
  bundle_shifts_ = 0;
}

void AfsPowerScheduler::rebuild() {
  std::vector<CoreId> avail;
  avail.reserve(num_cores_);
  for (CoreId core : live_.live_cores()) {
    if (!power_.parked(core)) avail.push_back(core);
  }
  // min_unparked keeps this nonempty in steady state; if every live core is
  // parked mid-transition, fall back to the live set so packets still route.
  if (avail.empty()) avail = live_.live_cores();
  if (avail.empty()) return;
  for (std::size_t b = 0; b < table_.size(); ++b) {
    table_[b] = avail[b % avail.size()];
  }
}

CoreId AfsPowerScheduler::schedule(const SimPacket& pkt, const NpuView& view) {
  const TimeNs now = view.now();
  last_now_ = now;

  // Surplus marking from the engine's idle timers, then the idle-timeout
  // parking pass (same inputs gated LAPS feeds its PowerManager).
  const auto cores = view.cores();
  for (CoreId c = 0; c < static_cast<CoreId>(cores.size()); ++c) {
    const CoreView& v = cores[c];
    if (v.idle_since >= 0 && now - v.idle_since >= options_.idle_th) {
      power_.note_surplus(c, v.idle_since + options_.idle_th);
    }
  }
  power_.update_parking(now, *this);

  const std::size_t bucket = bucket_of(pkt);
  ++seen_;
  CoreId target = table_[bucket];

  // Consolidation may park the coldest core (a global rehash here — AFS has
  // no incremental table); re-read the bucket afterwards.
  power_.update_consolidation(/*service=*/0, target, view, *this);
  target = table_[bucket];

  // Wake-ahead: deep queue at the target and a parked core available —
  // bring capacity back before the overload shift even triggers.
  if (view.cores()[target].queue_len >= options_.wake_watermark) {
    for (CoreId core : all_cores_) {
      if (!power_.parked(core)) continue;
      power_.wake(core, now);
      power_.clear_surplus(core);
      power_.note_wake_backoff(/*service=*/0, now);
      rebuild();
      target = table_[bucket];
      break;
    }
  }

  // Dittmann's arbitrary bundle shift, restricted to live unparked cores.
  const bool cooled_down =
      bundle_shifts_ == 0 || seen_ - last_shift_ >= options_.shift_cooldown;
  if (cooled_down && view.cores()[target].queue_len >= options_.high_thresh) {
    CoreId best = target;
    std::uint32_t best_load = view.load(target);
    for (std::size_t c = 0; c < num_cores_; ++c) {
      const CoreId candidate = static_cast<CoreId>(c);
      if (live_.is_down(candidate) || power_.parked(candidate)) continue;
      const std::uint32_t load = view.load(candidate);
      if (load < best_load) {
        best_load = load;
        best = candidate;
      }
    }
    if (best != target) {
      table_[bucket] = best;  // shift the whole (arbitrary) flow bundle
      ++bundle_shifts_;
      last_shift_ = seen_;
      target = best;
    }
  }

  power_.clear_surplus(target);
  return target;
}

std::map<std::string, double> AfsPowerScheduler::extra_stats() const {
  std::map<std::string, double> stats = {
      {"bundle_shifts", static_cast<double>(bundle_shifts_)},
  };
  power_.append_stats(stats, last_now_);
  return stats;
}

}  // namespace laps
