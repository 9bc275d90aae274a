#include "cache/space_saving.h"

#include <algorithm>
#include <stdexcept>

namespace laps {

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("SpaceSaving: capacity 0");
  counters_.reserve(capacity);
  index_.reserve(capacity * 2);
}

void SpaceSaving::heap_swap(std::size_t a, std::size_t b) {
  std::swap(counters_[a], counters_[b]);
  index_[counters_[a].key] = a;
  index_[counters_[b].key] = b;
}

void SpaceSaving::sift_down(std::size_t i) {
  const std::size_t n = counters_.size();
  while (true) {
    std::size_t smallest = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    if (l < n && counters_[l].count < counters_[smallest].count) smallest = l;
    if (r < n && counters_[r].count < counters_[smallest].count) smallest = r;
    if (smallest == i) return;
    heap_swap(i, smallest);
    i = smallest;
  }
}

void SpaceSaving::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (counters_[parent].count <= counters_[i].count) return;
    heap_swap(i, parent);
    i = parent;
  }
}

void SpaceSaving::access(std::uint64_t flow_key) {
  ++total_;
  const auto it = index_.find(flow_key);
  if (it != index_.end()) {
    counters_[it->second].count += 1;
    sift_down(it->second);
    return;
  }
  if (counters_.size() < capacity_) {
    counters_.push_back(Counter{flow_key, 1, 0});
    index_[flow_key] = counters_.size() - 1;
    sift_up(counters_.size() - 1);
    return;
  }
  // Replace the minimum-count entry; the newcomer inherits its count as the
  // overestimation error. This is the defining Space-Saving step.
  Counter& min = counters_[0];
  index_.erase(min.key);
  const std::uint64_t inherited = min.count;
  min = Counter{flow_key, inherited + 1, inherited};
  index_[flow_key] = 0;
  sift_down(0);
}

std::vector<SpaceSaving::Counter> SpaceSaving::top_k(std::size_t k) const {
  std::vector<Counter> sorted = counters_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Counter& a, const Counter& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.error < b.error;
            });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

std::uint64_t SpaceSaving::estimate(std::uint64_t flow_key) const {
  const auto it = index_.find(flow_key);
  return it == index_.end() ? 0 : counters_[it->second].count;
}

void SpaceSaving::reset() {
  counters_.clear();
  index_.clear();
  total_ = 0;
}

}  // namespace laps
