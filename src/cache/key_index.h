#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace laps {

/// Fixed-capacity open-addressed map from a key to a small slot id — the
/// key index behind the array-backed LFU caches and migration tables, which
/// keep their entries in preallocated arrays and need only "which entry
/// holds this key".
///
/// Linear probing over a power-of-two table kept at most half full, with
/// backward-shift deletion: a removal pulls later members of its probe
/// chain back into the hole instead of leaving a tombstone, so chains never
/// degrade under the insert/erase churn of a cache. The table is allocated
/// once in the constructor; no operation allocates.
template <typename Key>
class KeyIndex {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xFFFFFFFFu;

  /// Sized for up to `max_keys` keys resident at once.
  explicit KeyIndex(std::size_t max_keys) {
    if (max_keys == 0 || max_keys >= kNone / 2) {
      throw std::invalid_argument("KeyIndex: bad size");
    }
    std::size_t slots = 2;
    shift_ = 63;
    while (slots < 2 * max_keys) {
      slots *= 2;
      --shift_;
    }
    slots_.assign(slots, Slot{Key{}, kNone});
    mask_ = slots - 1;
  }

  /// Id stored for `key`, or kNone.
  Id find(const Key& key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.key == key) return s.id;
    }
  }

  /// Adds `key` -> `id`. The key must be absent and the index below its
  /// `max_keys`.
  void insert(const Key& key, Id id) {
    std::size_t i = home(key);
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = Slot{key, id};
  }

  /// Removes `key` if present.
  void erase(const Key& key) {
    std::size_t hole = home(key);
    while (true) {
      if (slots_[hole].id == kNone) return;
      if (slots_[hole].key == key) break;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: a later chain member may fill the hole unless its
    // home lies cyclically after the hole (it would become unreachable).
    for (std::size_t j = (hole + 1) & mask_; slots_[j].id != kNone;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].id = kNone;
  }

  void clear() {
    for (Slot& s : slots_) s.id = kNone;
  }

 private:
  struct Slot {
    Key key;
    Id id;
  };

  // Fibonacci hashing: the multiply spreads small or structured keys (test
  // ints, sequential ids) over the high bits the table is indexed by.
  std::size_t home(const Key& key) const {
    const auto h = static_cast<std::uint64_t>(std::hash<Key>{}(key));
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
};

}  // namespace laps
