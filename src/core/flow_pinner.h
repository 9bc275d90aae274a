#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/map_table.h"
#include "core/migration_table.h"
#include "sim/scheduler.h"

namespace laps {

/// Per-service flow-placement mechanism: the pinned-override path (a
/// MigrationTable, paper Fig. 3's CAM) layered over the hash path (a
/// MapTable with incremental linear hashing, Sec. III-C), with the pin
/// accounting every policy that migrates flows needs.
///
/// The policy decides *when* to pin, unpin, or move cores; FlowPinner owns
/// the two tables and keeps the bookkeeping (stale-pin drops) consistent
/// between them. LAPS holds one FlowPinner per service; hybrid
/// policies that migrate within a single hash domain hold one.
class FlowPinner {
 public:
  /// `initial_buckets` is the map table's starting bucket list (already
  /// replicated per core if the policy uses virtual buckets);
  /// `pin_capacity` bounds the migration table like the hardware CAM.
  FlowPinner(std::vector<CoreId> initial_buckets, std::size_t pin_capacity)
      : map_(std::move(initial_buckets)), pins_(pin_capacity) {}

  // --- lookup --------------------------------------------------------------
  /// Hash path: core for a flow's CRC16.
  CoreId hash_core(std::uint16_t crc) const { return map_.core_for(crc); }
  /// Pin path: pinned core for a flow, if any (priority over the hash path).
  std::optional<CoreId> pinned(std::uint64_t flow_key) const {
    return pins_.lookup(flow_key);
  }

  // --- pin accounting ------------------------------------------------------
  /// Pins a flow to `core` (FIFO-evicting when the table is full).
  void pin(std::uint64_t flow_key, CoreId core) {
    pins_.add(flow_key, core);
  }
  /// Drops a pin the policy found stale (owner changed or core died while
  /// the pin survived); counted separately so extra_stats can report it.
  void drop_stale(std::uint64_t flow_key) {
    pins_.erase(flow_key);
    ++stale_pins_dropped_;
  }
  /// Drops every pin targeting `core` (core left the service or died).
  /// Returns the number evicted.
  std::size_t drop_core_pins(CoreId core) {
    return pins_.remove_core_entries(core);
  }

  // --- core membership -----------------------------------------------------
  /// Adds `core` to the hash domain, `reps` virtual buckets.
  void add_core(CoreId core, std::size_t reps) {
    for (std::size_t rep = 0; rep < reps; ++rep) map_.add_core(core);
  }
  bool has_core(CoreId core) const { return map_.contains(core); }
  /// Scrubs `core` out of both tables: drains its map buckets one by one
  /// (stopping if the table refuses the last remaining bucket) and drops
  /// its pins. This is the shared "core leaves the service" protocol used
  /// by parking, donor transfer, and (partially) fault drain.
  void scrub_core(CoreId core) {
    while (map_.contains(core)) {
      if (!map_.remove_core(core)) break;
    }
    pins_.remove_core_entries(core);
  }

  // --- accounting ----------------------------------------------------------
  std::uint64_t stale_pins_dropped() const { return stale_pins_dropped_; }

  // --- escape hatches ------------------------------------------------------
  // Policies with protocols the mechanism cannot anticipate (LAPS's fault
  // drain interleaves bucket removal with emergency core grants) work on
  // the tables directly; introspection tests read them too.
  MapTable& map_table() { return map_; }
  const MapTable& map_table() const { return map_; }
  MigrationTable& migration_table() { return pins_; }
  const MigrationTable& migration_table() const { return pins_; }

 private:
  MapTable map_;
  MigrationTable pins_;
  std::uint64_t stale_pins_dropped_ = 0;
};

}  // namespace laps
