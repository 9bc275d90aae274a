#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/time.h"

namespace laps {

/// The one completion-queue kind: EventHeap. Kept only as the type of the
/// unread `event_queue` config fields (SimEngineConfig, ScenarioConfig,
/// ClusterConfig) that perfbench still assigns.
enum class EventQueueKind : std::uint8_t { kHeap };

/// Binary min-heap event queue for discrete-event simulation: the
/// SimEngine's completion queue.
///
/// Events are ordered by (time, insertion sequence): two events at the same
/// tick pop in the order they were scheduled — the FIFO invariant. This
/// makes simulations fully deterministic (std::priority_queue alone does
/// not guarantee a stable order for ties). `Ev` must expose a public
/// `TimeNs time` member.
///
/// The simulator's working set is tiny: fault-free, at most one completion
/// per busy core (16 on the paper's NP). A flat binary heap of that size
/// beat both a hierarchical timing wheel and per-core event slots (see
/// DESIGN.md, "Completion queue").
template <typename Ev>
class EventHeap {
 public:
  /// Schedules an event. O(log n).
  void push(Ev event) {
    heap_.push_back(Node{event.time, next_seq_++, std::move(event)});
    sift_up(heap_.size() - 1);
  }

  /// Earliest event. Heap must not be empty.
  const Ev& top() const {
    if (heap_.empty()) throw std::logic_error("EventHeap: top on empty");
    return heap_.front().event;
  }

  /// Time of the earliest event. Heap must not be empty.
  TimeNs top_time() const {
    if (heap_.empty()) throw std::logic_error("EventHeap: top_time on empty");
    return heap_.front().time;
  }

  /// Removes and returns the earliest event. O(log n).
  Ev pop() {
    if (heap_.empty()) throw std::logic_error("EventHeap: pop on empty");
    Ev out = std::move(heap_.front().event);
    // Guard the single-node case: moving back() onto front() would be a
    // self-move-assignment, which may leave the node in a valueless state
    // before pop_back() destroys it (UB for some Ev payloads).
    if (heap_.size() > 1) heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return out;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Empties the heap and resets the insertion sequence, so a cleared heap
  /// replays a schedule bit-identically to a fresh one. (Without the seq
  /// reset, same-tick ties after a clear would still order correctly among
  /// themselves, but any serialization of the counter — or a differential
  /// run against a fresh queue — would diverge.)
  void clear() {
    heap_.clear();
    next_seq_ = 0;
  }

 private:
  struct Node {
    TimeNs time;
    std::uint64_t seq;
    Ev event;

    bool before(const Node& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!heap_[i].before(heap_[parent])) return;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t first = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && heap_[l].before(heap_[first])) first = l;
      if (r < n && heap_[r].before(heap_[first])) first = r;
      if (first == i) return;
      std::swap(heap_[i], heap_[first]);
      i = first;
    }
  }

  std::vector<Node> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace laps
