#include "core/laps.h"

#include <algorithm>
#include <stdexcept>

namespace laps {

LapsScheduler::LapsScheduler(LapsConfig config)
    : config_(config), power_(config.power()) {
  if (config_.num_services == 0) {
    throw std::invalid_argument("LapsScheduler: num_services == 0");
  }
}

void LapsScheduler::attach(std::size_t num_cores) {
  allocator_ = std::make_unique<CoreAllocator>(
      num_cores, config_.num_services, config_.min_cores_per_service);
  afd_ = std::make_unique<Afd>(config_.afd);
  // Sized up front: growing the two vectors in step raised the peak RSS of
  // perfbench's paper_online workload by 4.4 MB.
  maps_.clear();
  pins_.clear();
  maps_.reserve(config_.num_services);
  pins_.reserve(config_.num_services);
  for (std::size_t s = 0; s < config_.num_services; ++s) {
    // Round-robin the service's cores over entries_per_core virtual
    // buckets each, so per-core load skew from linear hashing's split
    // structure averages out (see LapsConfig::entries_per_core).
    const auto& owned = allocator_->cores_of(s);
    std::vector<CoreId> buckets;
    buckets.reserve(owned.size() * config_.entries_per_core);
    for (std::size_t rep = 0; rep < config_.entries_per_core; ++rep) {
      for (CoreId core : owned) buckets.push_back(core);
    }
    maps_.emplace_back(std::move(buckets));
    pins_.emplace_back(config_.migration_table_capacity);
  }
  aggressive_migrations_ = 0;
  core_requests_ = 0;
  core_requests_denied_ = 0;
  stale_pins_dropped_ = 0;
  live_.reset(num_cores);
  cores_down_events_ = 0;
  cores_up_events_ = 0;
  fault_unreplaced_buckets_ = 0;
  dead_target_reroutes_ = 0;

  power_.attach(num_cores, config_.num_services);
  last_now_ = 0;
  rescan_at_ = kRescanNow;
}

void LapsScheduler::add_core_buckets(std::size_t service, CoreId core) {
  for (std::size_t rep = 0; rep < config_.entries_per_core; ++rep) {
    maps_[service].add_core(core);
  }
}

void LapsScheduler::scrub_core(std::size_t service, CoreId core) {
  MapTable& map = maps_[service];
  while (map.contains(core)) {
    if (!map.remove_core(core)) break;
  }
  pins_[service].remove_core_entries(core);
}

bool LapsScheduler::wake_core(CoreId core, TimeNs now) {
  if (!power_.wake(core, now)) return false;
  emit(SchedEvent::Kind::kWake, static_cast<std::int32_t>(core),
       static_cast<std::int32_t>(allocator_->owner(core)));
  return true;
}

void LapsScheduler::park_core(std::size_t service, CoreId core, TimeNs now) {
  // Park: the core leaves the routing tables but stays owned, so waking
  // it later needs no context switch (its I-cache still holds the
  // owner's program).
  scrub_core(service, core);
  power_.park(core, now);
  emit(SchedEvent::Kind::kPark, static_cast<std::int32_t>(core),
       static_cast<std::int32_t>(service));
}

void LapsScheduler::update_surplus_marks(TimeNs now,
                                         std::span<const CoreView> cores) {
  if (now < rescan_at_) return;
  TimeNs next = now + config_.idle_th;
  for (CoreId c = 0; c < static_cast<CoreId>(cores.size()); ++c) {
    const CoreView& v = cores[c];
    if (v.idle_since < 0) continue;
    const TimeNs crossing = v.idle_since + config_.idle_th;
    if (now - v.idle_since >= config_.idle_th) {
      allocator_->mark_surplus(c, crossing);
      power_.note_surplus(c, crossing);
    } else {
      next = std::min(next, crossing);
    }
  }
  rescan_at_ = next;
}

CoreId LapsScheduler::least_loaded_of(std::size_t service,
                                      std::span<const CoreView> cores) const {
  // Parked cores are powered down and must not receive migrated flows;
  // with power gating at least min_cores stay unparked, so a candidate
  // always exists.
  const auto& owned = allocator_->cores_of(service);
  const bool gating = power_.enabled();
  CoreId best = owned.front();
  bool have = false;
  std::uint32_t best_load = 0;
  for (CoreId core : owned) {
    if ((gating && power_.parked(core)) || live_.is_down(core)) continue;
    const CoreView& v = cores[core];
    const std::uint32_t load = v.queue_len + (v.busy ? 1u : 0u);
    if (!have || load < best_load) {
      have = true;
      best_load = load;
      best = core;
    }
  }
  return best;
}

std::optional<CoreId> LapsScheduler::reclaim_parked_core(
    std::size_t service) {
  for (CoreId core : allocator_->cores_of(service)) {
    if (!power_.parked(core) || live_.is_down(core)) continue;
    wake_core(core, last_now_);
    power_.clear_surplus(core);
    allocator_->unmark_surplus(core);
    rescan_at_ = kRescanNow;
    add_core_buckets(service, core);
    return core;
  }
  return std::nullopt;
}

bool LapsScheduler::acquire_core(std::size_t service, bool emergency) {
  // Power gating: reclaim the service's own parked cores first — the
  // paper's Sec. III-D "unmarked and removed from the list of surplus
  // cores without incurring the overhead of context switch".
  if (power_.enabled()) {
    if (const auto core = reclaim_parked_core(service)) {
      emit(SchedEvent::Kind::kCoreGrant, static_cast<std::int32_t>(*core),
           static_cast<std::int32_t>(service));
      return true;
    }
  }
  auto granted = allocator_->grant_core(service);
  // Emergency (dead-core replacement) only: no surplus donor exists, so
  // take a live core from the richest service — a mere overload request
  // never reaches this and never steals a busy core.
  if (!granted && emergency) granted = allocator_->grant_any(service);
  if (!granted) return false;
  const CoreId core = *granted;
  wake_core(core, last_now_);
  power_.clear_surplus(core);  // the grant also cleared the allocator mark
  rescan_at_ = kRescanNow;
  // Scrub the donor's routing state: its buckets leave the list one by one
  // (each removal shifts later buckets, but the donor is lightly loaded —
  // Sec. III-D accepts this) and any migration pins to the departed core
  // are dropped.
  for (std::size_t s = 0; s < config_.num_services; ++s) {
    if (s == service) continue;
    scrub_core(s, core);
  }
  add_core_buckets(service, core);
  emit(SchedEvent::Kind::kCoreGrant, static_cast<std::int32_t>(core),
       static_cast<std::int32_t>(service));
  return true;
}

bool LapsScheduler::request_core(std::size_t service) {
  ++core_requests_;
  if (acquire_core(service, /*emergency=*/false)) return true;
  ++core_requests_denied_;
  emit(SchedEvent::Kind::kCoreDenied, -1, static_cast<std::int32_t>(service));
  return false;
}

void LapsScheduler::notify_core_down(CoreId core, const NpuView& view) {
  if (allocator_ == nullptr || core >= live_.size() || live_.is_down(core)) {
    return;
  }
  live_.mark_down(core);
  ++cores_down_events_;
  last_now_ = view.now();
  rescan_at_ = kRescanNow;
  power_.on_core_down(core, last_now_);
  allocator_->set_offline(core);

  const std::size_t service = allocator_->owner(core);
  // Pins to the dead core are dead routes; drop them (their flows fall
  // back to the hash path, re-migrating later if still aggressive).
  pins_[service].remove_core_entries(core);
  // Drain the dead core's buckets. remove_core refuses the service's last
  // bucket, at which point a replacement must arrive *before* the drain
  // can finish — acquire one (own parked core, surplus donor, or the
  // emergency grant_any). If even that fails the dead bucket stays and the
  // engine's dead-route drop accounts the loss.
  MapTable& table = maps_[service];
  while (table.contains(core)) {
    if (table.remove_core(core)) continue;
    if (acquire_core(service, /*emergency=*/true)) continue;
    ++fault_unreplaced_buckets_;
    emit(SchedEvent::Kind::kCoreDenied, static_cast<std::int32_t>(core),
         static_cast<std::int32_t>(service));
    break;
  }
}

void LapsScheduler::notify_core_up(CoreId core, const NpuView& view) {
  if (allocator_ == nullptr || core >= live_.size() || !live_.is_down(core)) {
    return;
  }
  live_.mark_up(core);
  ++cores_up_events_;
  last_now_ = view.now();
  rescan_at_ = kRescanNow;
  allocator_->set_online(core);
  power_.clear_surplus(core);
  // Rejoin the owner's map table; incremental hashing moves only the
  // recovered buckets' flows, so reintegration is gradual, not a reshuffle.
  add_core_buckets(allocator_->owner(core), core);
}

CoreId LapsScheduler::schedule(const SimPacket& pkt, const NpuView& view) {
  const std::size_t service = service_index(pkt.service);
  const std::uint64_t key = pkt.flow_key();

  // The AFD observes every packet in the background (Sec. III-G: not on the
  // critical path; sampling is handled inside per Fig. 8c). A promotion
  // shows only as a stats delta, so the comparison runs only while a sink
  // is listening.
  if (sink_ == nullptr) {
    afd_->access(key);
  } else {
    const std::uint64_t promotions = afd_->stats().promotions;
    afd_->access(key);
    if (afd_->stats().promotions != promotions) {
      emit(SchedEvent::Kind::kAfdPromotion, -1,
           static_cast<std::int32_t>(service), key);
    }
  }
  // One read of the view per decision: nothing below changes it.
  const TimeNs now = view.now();
  const std::span<const CoreView> cores = view.cores();
  last_now_ = now;
  update_surplus_marks(now, cores);
  power_.update_parking(now, *this);

  MapTable& map = maps_[service];
  MigrationTable& pins = pins_[service];
  // Step 1: migration-table override. A pin whose core left the service is
  // stale (can happen if remove_core_entries raced a reallocation) — drop
  // it and fall through to the hash path.
  CoreId target = 0;
  bool pinned = false;
  if (const auto pin = pins.lookup(key)) {
    if (allocator_->owner(*pin) == service && !live_.is_down(*pin)) {
      target = *pin;
      pinned = true;
    } else {
      pins.erase(key);
      ++stale_pins_dropped_;
    }
  }
  // Step 2: the service's map table via incremental hashing. The CRC is
  // computed only on this path; every later re-hash is also unpinned.
  std::uint16_t crc = 0;
  if (!pinned) {
    crc = pkt.tuple.crc16();
    target = map.core_for(crc);
  }

  // Power gating: wake a parked core before queues overflow (wake-ahead),
  // and consolidate onto fewer cores when a whole window shows slack.
  if (power_.enabled()) {
    power_.update_consolidation(service, target, view, *this);
    const std::uint32_t watermark = config_.wake_watermark
                                        ? config_.wake_watermark
                                        : config_.high_thresh / 2;
    if (cores[target].queue_len >= watermark &&
        reclaim_parked_core(service)) {
      // Exponential backoff: every wake doubles the consolidation pause
      // (capped), so a load level that keeps defeating parking converges
      // to a stable, unparked configuration instead of cycling map-table
      // churn forever.
      power_.note_wake_backoff(service, now);
      if (!pinned) {
        target = map.core_for(crc);
      }
    }
    // Consolidation may have just parked this packet's target (its buckets
    // are gone, but the lookup above preceded the park): re-route.
    if (power_.parked(target)) {
      target = pinned ? least_loaded_of(service, cores) : map.core_for(crc);
    }
  }

  // Step 3/4: Listing 1 — load imbalance handling.
  if (cores[target].queue_len >= config_.high_thresh) {
    const CoreId minq = least_loaded_of(service, cores);
    if (cores[minq].queue_len < config_.high_thresh) {
      if (!pinned && afd_->is_aggressive(key)) {
        pins.add(key, minq);
        afd_->invalidate(key);
        ++aggressive_migrations_;
        emit(SchedEvent::Kind::kAggressiveMigration,
             static_cast<std::int32_t>(minq),
             static_cast<std::int32_t>(service), key);
        target = minq;
      }
    } else {
      // Every core of this service is overloaded: the allocation is
      // insufficient — request one more core and re-hash this packet so it
      // can land on the (idle) newcomer.
      if (request_core(service)) {
        if (!pinned) {
          target = map.core_for(crc);
        }
      }
    }
  }

  // Defense in depth: the drain/remap protocol keeps dead cores out of
  // every table, so this reroute should never fire — but a dead target
  // would be a guaranteed drop, and least_loaded_of skips down cores.
  // Counted (dead_target_reroutes) so tests can assert it stays unreachable.
  if (live_.is_down(target)) {
    ++dead_target_reroutes_;
    target = least_loaded_of(service, cores);
  }

  // The dispatch touches the core, so it is no longer reclaimable surplus.
  // Clearing a mark makes the next decision rescan (update_surplus_marks).
  const bool was_marked = allocator_->unmark_surplus(target);
  if (power_.clear_surplus(target) || was_marked) rescan_at_ = kRescanNow;
  return target;
}

std::vector<std::uint64_t> LapsScheduler::aggressive_snapshot() const {
  return afd_->aggressive_flows();
}

SchedTelemetry LapsScheduler::telemetry_sample() const {
  SchedTelemetry t;
  // afd_/allocator_ are built at attach(); a pre-attach sample (the
  // probe's run-begin field-discovery pass) reports empty mechanisms, not
  // N/A — the fields exist for this policy, they are just still zero.
  t.afc_occupancy = afd_ ? static_cast<std::int64_t>(afd_->afc_size()) : 0;
  t.afd_hits = afd_ ? static_cast<std::int64_t>(afd_->stats().afc_hits) : 0;
  t.afd_evictions =
      afd_ ? static_cast<std::int64_t>(afd_->stats().demotions) : 0;
  std::int64_t pinned = 0;
  for (const MigrationTable& pins : pins_) {
    pinned += static_cast<std::int64_t>(pins.size());
  }
  t.pinned_flows = pinned;
  if (config_.power_gating) {
    t.parked_cores = static_cast<std::int64_t>(power_.parked_count());
    t.wake_strikes = static_cast<std::int64_t>(power_.wake_strikes_total());
  }
  t.core_transitions = static_cast<std::int64_t>(live_.transitions());
  return t;
}

std::map<std::string, double> LapsScheduler::extra_stats() const {
  const AfdStats& afd_stats = afd_->stats();
  std::map<std::string, double> stats = {
      {"aggressive_migrations", static_cast<double>(aggressive_migrations_)},
      {"core_requests", static_cast<double>(core_requests_)},
      {"core_requests_denied", static_cast<double>(core_requests_denied_)},
      {"core_transfers", static_cast<double>(allocator_->transfers())},
      {"stale_pins_dropped", static_cast<double>(stale_pins_dropped_)},
      {"afd_promotions", static_cast<double>(afd_stats.promotions)},
      {"afd_afc_hits", static_cast<double>(afd_stats.afc_hits)},
  };
  power_.append_stats(stats, last_now_);
  // Added only when a fault actually hit, so fault-free runs keep their
  // byte-identical artifacts (golden determinism suite).
  if (cores_down_events_ + cores_up_events_ > 0) {
    stats["laps_cores_down_events"] = static_cast<double>(cores_down_events_);
    stats["laps_cores_up_events"] = static_cast<double>(cores_up_events_);
    stats["laps_unreplaced_buckets"] =
        static_cast<double>(fault_unreplaced_buckets_);
  }
  return stats;
}

}  // namespace laps
