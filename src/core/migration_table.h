#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/key_index.h"
#include "sim/scheduler.h"

namespace laps {

/// The migration table of paper Fig. 3: flow-id -> core overrides that take
/// priority over the hash path ("the scheduler gives priority to the output
/// of migration table over the default hash table").
///
/// Fixed capacity like the hardware CAM it models; when full, the oldest
/// pin is evicted and that flow falls back to its hash bucket (a single
/// extra migration — harmless, and it bounds state). Pins live in a
/// preallocated array threaded into a FIFO list (oldest first) by 32-bit
/// links, beside a flat KeyIndex from flow key to pin; lookup, add, re-pin
/// and erase are O(1) and allocation-free.
class MigrationTable {
 public:
  explicit MigrationTable(std::size_t capacity);

  /// Pinned core for a flow, if any.
  std::optional<CoreId> lookup(std::uint64_t flow_key) const {
    const Id id = index_.find(flow_key);
    if (id == kNil) return std::nullopt;
    return pins_[id].core;
  }

  /// Pins `flow_key` to `core` (moves it to newest position if already
  /// pinned). Evicts the oldest pin when full.
  void add(std::uint64_t flow_key, CoreId core);

  /// Unpins a flow; returns true if it was pinned.
  bool erase(std::uint64_t flow_key);

  /// Drops every pin that targets `core` — used when a core is reassigned
  /// to another service. Returns the number removed.
  std::size_t remove_core_entries(CoreId core);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  void clear();

  /// Pinned flows in eviction order (oldest first); for tests.
  std::vector<std::uint64_t> keys_in_order() const;

 private:
  using Id = KeyIndex<std::uint64_t>::Id;
  static constexpr Id kNil = KeyIndex<std::uint64_t>::kNone;

  struct Pin {
    std::uint64_t key = 0;
    CoreId core = 0;
    Id older = kNil;
    Id newer = kNil;  // free-list link while unused
  };

  void link_newest(Id id);
  void unlink(Id id);
  void release(Id id);

  std::size_t capacity_;
  std::vector<Pin> pins_;
  KeyIndex<std::uint64_t> index_;
  Id oldest_ = kNil;
  Id newest_ = kNil;
  Id free_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace laps
