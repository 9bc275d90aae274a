#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "cache/key_index.h"

namespace laps {

/// Fully-associative cache with Least-Frequently-Used replacement.
///
/// This models the hardware structures of the paper's Aggressive Flow
/// Detector: both the Aggressive Flow Cache (AFC) and the annex cache are
/// small fully-associative LFU caches (Sec. III-F). The victim is the entry
/// with the lowest (frequency, time of its last insert or touch): ties
/// within a frequency are broken LRU, which is what a hardware LFU with a
/// secondary recency bit does.
///
/// Like the hardware, the cache is fixed-size: entry nodes, frequency
/// buckets and a KeyIndex are arrays allocated in the constructor, linked by
/// 32-bit indices, and no operation allocates. Entries sit in per-frequency
/// buckets (front = most recently inserted or touched) and the non-empty
/// buckets form a list in ascending frequency, so touch, insert at
/// frequency 1, erase and eviction are O(1) — simulation cost does not grow
/// with cache size, which matters because Fig. 8a sweeps the annex up to
/// 1024 entries over multi-million-packet traces. Only an insert at an
/// explicit frequency (AFD promotions and demotions) walks the bucket list,
/// from whichever end is nearer.
template <typename Key>
class LfuCache {
 public:
  /// One cache entry as seen by callers: the key and its frequency counter.
  struct Entry {
    Key key;
    std::uint64_t freq;
  };

  explicit LfuCache(std::size_t capacity)
      : capacity_(checked(capacity)),
        nodes_(capacity),
        buckets_(capacity),
        index_(capacity) {
    clear();
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool full() const { return size_ == capacity_; }

  /// True if `key` is cached. Does not change replacement state.
  bool contains(const Key& key) const { return index_.find(key) != kNil; }

  /// Frequency counter of `key`, or nullopt if absent. Read-only.
  std::optional<std::uint64_t> freq_of(const Key& key) const {
    const Id n = index_.find(key);
    if (n == kNil) return std::nullopt;
    return buckets_[nodes_[n].bucket].freq;
  }

  /// Cache access: if `key` is present, increments its counter and returns
  /// the new value; otherwise returns nullopt (caller decides whether to
  /// insert — the AFD's promotion logic needs that decision to be separate).
  std::optional<std::uint64_t> touch(const Key& key) {
    const Id n = index_.find(key);
    if (n == kNil) return std::nullopt;
    const Id b = nodes_[n].bucket;
    const std::uint64_t freq = buckets_[b].freq + 1;
    const Id up = buckets_[b].next;
    if (up != kNil && buckets_[up].freq == freq) {
      unlink(n);
      push_front(up, n);
    } else if (buckets_[b].head == n && buckets_[b].tail == n) {
      buckets_[b].freq = freq;  // sole entry: the bucket itself moves up
    } else {
      const Id nb = link_bucket(freq, b, up);
      unlink(n);
      push_front(nb, n);
    }
    return freq;
  }

  /// Inserts `key` with initial frequency `freq` (default 1). If the cache
  /// is full, evicts and returns the LFU victim. Inserting an existing key
  /// overwrites its frequency (and makes it the most recent at that
  /// frequency). Returns nullopt when nothing was evicted.
  std::optional<Entry> insert(const Key& key, std::uint64_t freq = 1) {
    Id n = index_.find(key);
    if (n != kNil) {
      unlink(n);
      push_front(bucket_for(freq), n);
      return std::nullopt;
    }
    std::optional<Entry> victim;
    if (full()) victim = evict_lfu();
    n = free_node_;
    free_node_ = nodes_[n].next;
    nodes_[n].key = key;
    index_.insert(key, n);
    ++size_;
    push_front(bucket_for(freq), n);
    return victim;
  }

  /// Removes `key`; returns its entry if it was present.
  std::optional<Entry> erase(const Key& key) {
    const Id n = index_.find(key);
    if (n == kNil) return std::nullopt;
    return remove(n);
  }

  /// Evicts the least-frequently-used entry (LRU among ties). The cache
  /// must not be empty.
  Entry evict_lfu() {
    if (size_ == 0) throw std::logic_error("LfuCache: evict on empty");
    return remove(buckets_[lo_].tail);
  }

  /// Minimum frequency currently cached; 0 if empty.
  std::uint64_t min_freq() const {
    return lo_ == kNil ? 0 : buckets_[lo_].freq;
  }

  /// Snapshot of all entries, most-frequent first (ties: most recent first).
  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    out.reserve(size_);
    for (Id b = hi_; b != kNil; b = buckets_[b].prev) {
      for (Id n = buckets_[b].head; n != kNil; n = nodes_[n].next) {
        out.push_back(Entry{nodes_[n].key, buckets_[b].freq});
      }
    }
    return out;
  }

  /// Halves every frequency counter (integer division, minimum 1), modeling
  /// the periodic aging of hardware rate counters. When two old counts
  /// collapse into the same new tier, the entry that had the *higher* old
  /// count is placed nearer the protected (recent) end: it demonstrated
  /// more locality, so it should outlive the tier's existing entries.
  /// Without this, a decayed elephant would land at the eviction end of the
  /// count-1 tier and be thrown out ahead of one-hit mice. Within one old
  /// count the recency order is kept.
  void age_halve() {
    // Walk the buckets from the highest count down. New counts never
    // increase along the walk, so each bucket either merges behind the
    // lowest new bucket built so far (same new count: it goes nearer the
    // eviction end) or becomes the new lowest bucket.
    Id new_lo = kNil;
    Id new_hi = kNil;
    for (Id b = hi_; b != kNil;) {
      const Id lower = buckets_[b].prev;
      const std::uint64_t halved = buckets_[b].freq / 2;
      const std::uint64_t freq = halved > 0 ? halved : 1;
      if (new_lo != kNil && buckets_[new_lo].freq == freq) {
        Bucket& dst = buckets_[new_lo];
        for (Id n = buckets_[b].head; n != kNil; n = nodes_[n].next) {
          nodes_[n].bucket = new_lo;
        }
        nodes_[dst.tail].next = buckets_[b].head;
        nodes_[buckets_[b].head].prev = dst.tail;
        dst.tail = buckets_[b].tail;
        buckets_[b].next = free_bucket_;
        free_bucket_ = b;
      } else {
        buckets_[b].freq = freq;
        buckets_[b].prev = kNil;
        buckets_[b].next = new_lo;
        if (new_lo != kNil) {
          buckets_[new_lo].prev = b;
        } else {
          new_hi = b;
        }
        new_lo = b;
      }
      b = lower;
    }
    lo_ = new_lo;
    hi_ = new_hi;
  }

  /// Removes every entry.
  void clear() {
    for (std::size_t i = 0; i < capacity_; ++i) {
      nodes_[i].next = i + 1 < capacity_ ? static_cast<Id>(i + 1) : kNil;
      buckets_[i].next = nodes_[i].next;
    }
    free_node_ = 0;
    free_bucket_ = 0;
    lo_ = kNil;
    hi_ = kNil;
    size_ = 0;
    index_.clear();
  }

 private:
  using Id = typename KeyIndex<Key>::Id;
  static constexpr Id kNil = KeyIndex<Key>::kNone;

  struct Node {
    Key key{};
    Id prev = kNil;  // towards the bucket's most recent entry
    Id next = kNil;  // towards its least recent entry; free-list link
    Id bucket = kNil;
  };
  struct Bucket {
    std::uint64_t freq = 0;
    Id head = kNil;  // most recently inserted or touched
    Id tail = kNil;  // the bucket's LRU entry
    Id prev = kNil;  // next lower frequency
    Id next = kNil;  // next higher frequency; free-list link
  };

  static std::size_t checked(std::size_t capacity) {
    if (capacity == 0) throw std::invalid_argument("LfuCache: capacity 0");
    return capacity;
  }

  // Takes a free bucket of frequency `freq` and links it between `lower`
  // and `upper` (adjacent in the list; either may be kNil at an end).
  Id link_bucket(std::uint64_t freq, Id lower, Id upper) {
    const Id b = free_bucket_;
    free_bucket_ = buckets_[b].next;
    buckets_[b] = Bucket{freq, kNil, kNil, lower, upper};
    if (lower != kNil) {
      buckets_[lower].next = b;
    } else {
      lo_ = b;
    }
    if (upper != kNil) {
      buckets_[upper].prev = b;
    } else {
      hi_ = b;
    }
    return b;
  }

  // The bucket of frequency `freq`, created in order if absent. Walks from
  // the nearer end of the frequency list.
  Id bucket_for(std::uint64_t freq) {
    if (lo_ == kNil) return link_bucket(freq, kNil, kNil);
    const std::uint64_t lo = buckets_[lo_].freq;
    const std::uint64_t hi = buckets_[hi_].freq;
    if (freq <= lo || (freq < hi && freq - lo <= hi - freq)) {
      Id b = lo_;
      while (b != kNil && buckets_[b].freq < freq) b = buckets_[b].next;
      if (b != kNil && buckets_[b].freq == freq) return b;
      return link_bucket(freq, b == kNil ? hi_ : buckets_[b].prev, b);
    }
    Id b = hi_;
    while (b != kNil && buckets_[b].freq > freq) b = buckets_[b].prev;
    if (b != kNil && buckets_[b].freq == freq) return b;
    return link_bucket(freq, b, b == kNil ? lo_ : buckets_[b].next);
  }

  void push_front(Id b, Id n) {
    Bucket& bucket = buckets_[b];
    nodes_[n].bucket = b;
    nodes_[n].prev = kNil;
    nodes_[n].next = bucket.head;
    if (bucket.head != kNil) {
      nodes_[bucket.head].prev = n;
    } else {
      bucket.tail = n;
    }
    bucket.head = n;
  }

  // Detaches node `n` from its bucket; an emptied bucket leaves the list.
  void unlink(Id n) {
    const Node& node = nodes_[n];
    Bucket& bucket = buckets_[node.bucket];
    if (node.prev != kNil) {
      nodes_[node.prev].next = node.next;
    } else {
      bucket.head = node.next;
    }
    if (node.next != kNil) {
      nodes_[node.next].prev = node.prev;
    } else {
      bucket.tail = node.prev;
    }
    if (bucket.head != kNil) return;
    const Id b = node.bucket;
    if (bucket.prev != kNil) {
      buckets_[bucket.prev].next = bucket.next;
    } else {
      lo_ = bucket.next;
    }
    if (bucket.next != kNil) {
      buckets_[bucket.next].prev = bucket.prev;
    } else {
      hi_ = bucket.prev;
    }
    bucket.next = free_bucket_;
    free_bucket_ = b;
  }

  Entry remove(Id n) {
    const Entry out{nodes_[n].key, buckets_[nodes_[n].bucket].freq};
    unlink(n);
    index_.erase(out.key);
    nodes_[n].next = free_node_;
    free_node_ = n;
    --size_;
    return out;
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::vector<Bucket> buckets_;
  KeyIndex<Key> index_;
  Id free_node_ = kNil;
  Id free_bucket_ = kNil;
  Id lo_ = kNil;  // lowest-frequency bucket: the eviction end
  Id hi_ = kNil;  // highest-frequency bucket
  std::size_t size_ = 0;
};

}  // namespace laps
