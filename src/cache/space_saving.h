#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace laps {

/// Space-Saving heavy-hitter sketch (Metwally et al. 2005).
///
/// Counter-based alternative to the paper's cache-based AFD, representative
/// of the "reducing the overheads of keeping per flow counters" line of
/// related work (Sec. VI). Maintains `capacity` (key, count, error) triples;
/// a miss replaces the minimum-count entry and inherits its count as error.
/// Guarantees: every flow with true count > N/capacity is present, and
/// count - error <= true count <= count.
///
/// Used by the `abl_afd_vs_spacesaving` bench to compare detector quality at
/// equal state budgets.
class SpaceSaving {
 public:
  struct Counter {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  explicit SpaceSaving(std::size_t capacity);

  /// Processes one packet of `flow_key`.
  void access(std::uint64_t flow_key);

  /// The k monitored flows with the highest counts, descending. Fewer than
  /// k if the sketch has seen fewer distinct flows.
  std::vector<Counter> top_k(std::size_t k) const;

  /// Estimated count of `flow_key` (0 if not monitored).
  std::uint64_t estimate(std::uint64_t flow_key) const;

  std::size_t size() const { return counters_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total() const { return total_; }

  void reset();

 private:
  // Counters stored as a min-heap on count so replacement is O(log n);
  // counters_[0] is the minimum. index_ maps key -> heap position.
  void sift_down(std::size_t i);
  void sift_up(std::size_t i);
  void heap_swap(std::size_t a, std::size_t b);

  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::vector<Counter> counters_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

}  // namespace laps
