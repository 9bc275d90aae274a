// Seeded fuzz harness for the completion queue: randomized push / pop /
// cancel interleavings, replayed identically through the EventHeap and a
// deliberately-dumb sorted-vector reference model. Any divergence —
// ordering, top_time() disagreement, size drift — fails with the offending
// seed in the message, so a failure reproduces exactly.
//
// Cancellation is exercised the way the engine does it (sim/fault.cpp's
// flush path): events carry a generation stamp, cancellation bumps the
// live generation, and stale events are discarded *after* popping. The
// queue never sees a remove(); what the fuzzer checks is that lazily
// cancelled events still pop in exactly the model's order, so the
// caller-side discard loop sees the same sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_heap.h"
#include "util/rng.h"

namespace laps {
namespace {

constexpr std::size_t kCores = 8;

struct Ev {
  TimeNs time = 0;
  int id = 0;
  std::uint32_t core = 0;
  std::uint32_t gen = 0;
};

/// One decoded fuzz action. A schedule is derived from a seed once and then
/// replayed against the heap and the model, so both see byte-identical
/// operation streams.
struct Op {
  enum Kind { kPush, kPop, kCancel, kDrain } kind = kPush;
  TimeNs delta = 0;         ///< kPush: offset from the current clock floor
  bool tie = false;         ///< kPush: reuse the previous push time exactly
  std::uint32_t core = 0;   ///< kPush/kCancel: generation stream
};

/// Mixes tie-heavy short hops with rare huge jumps, so schedules exercise
/// same-tick FIFO ties and widely spread times alike.
TimeNs random_delta(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return static_cast<TimeNs>(rng.below(4));           // dense ties
    case 1: return static_cast<TimeNs>(rng.below(256));         // level 0-1
    case 2: return static_cast<TimeNs>(rng.below(1 << 20));     // mid levels
    default: return static_cast<TimeNs>(rng.below(1ull << 40)); // far future
  }
}

std::vector<Op> make_schedule(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    Op op;
    const std::uint64_t roll = rng.below(100);
    if (roll < 55) {
      op.kind = Op::kPush;
      op.delta = random_delta(rng);
      op.tie = rng.chance(0.25);
      op.core = static_cast<std::uint32_t>(rng.below(kCores));
    } else if (roll < 90) {
      op.kind = Op::kPop;
    } else if (roll < 98) {
      op.kind = Op::kCancel;
      op.core = static_cast<std::uint32_t>(rng.below(kCores));
    } else {
      op.kind = Op::kDrain;  // pop to empty, then refill
    }
    ops.push_back(op);
  }
  return ops;
}

/// The oracle: a sorted vector ordered by (time, insertion sequence).
/// O(n) insertion — unapologetically slow and obviously correct.
class ReferenceModel {
 public:
  void push(const Ev& e, std::uint64_t seq) {
    const Entry entry{e, seq};
    auto at = std::upper_bound(entries_.begin(), entries_.end(), entry,
                               [](const Entry& a, const Entry& b) {
                                 if (a.ev.time != b.ev.time) {
                                   return a.ev.time < b.ev.time;
                                 }
                                 return a.seq < b.seq;
                               });
    entries_.insert(at, entry);
  }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  TimeNs top_time() const { return entries_.front().ev.time; }
  Ev pop() {
    const Ev out = entries_.front().ev;
    entries_.erase(entries_.begin());
    return out;
  }

 private:
  struct Entry {
    Ev ev;
    std::uint64_t seq;
  };
  std::vector<Entry> entries_;
};

/// What one run popped. Every pop is checked against the model, including
/// the ones the caller then discards as cancelled: the heap must match the
/// raw order, not just the surviving one.
struct PopCounts {
  std::size_t pops = 0;
  std::size_t cancelled = 0;  ///< pops whose core's generation had moved on
};

PopCounts run_schedule(const std::vector<Op>& ops, const std::string& label) {
  EventHeap<Ev> queue;
  ReferenceModel model;
  PopCounts counts;
  std::vector<std::uint32_t> live_gen(kCores, 0);
  std::uint64_t seq = 0;
  TimeNs clock = 0;       // floor for new pushes: the last popped time
  TimeNs last_push = 0;
  int next_id = 0;

  auto pop_one = [&] {
    EXPECT_EQ(queue.top_time(), model.top_time()) << label;
    const Ev got = queue.pop();
    const Ev want = model.pop();
    ASSERT_EQ(got.time, want.time) << label << " at pop " << counts.pops;
    ASSERT_EQ(got.id, want.id) << label << " at pop " << counts.pops;
    ASSERT_EQ(got.gen, want.gen) << label << " at pop " << counts.pops;
    clock = got.time;
    ++counts.pops;
    if (got.gen != live_gen[got.core]) ++counts.cancelled;
  };

  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush: {
        const TimeNs t = op.tie && last_push >= clock
                             ? last_push
                             : clock + op.delta;
        last_push = t;
        const Ev e{t, next_id++, op.core, live_gen[op.core]};
        queue.push(e);
        model.push(e, seq++);
        break;
      }
      case Op::kPop: {
        if (model.empty()) break;
        pop_one();
        break;
      }
      case Op::kCancel:
        // Lazy cancellation: everything this core has in flight goes
        // stale; the events themselves stay queued.
        ++live_gen[op.core];
        break;
      case Op::kDrain: {
        while (!model.empty()) pop_one();
        break;
      }
    }
    EXPECT_EQ(queue.size(), model.size()) << label;
    EXPECT_EQ(queue.empty(), model.empty()) << label;
  }
  while (!model.empty()) pop_one();
  EXPECT_TRUE(queue.empty()) << label;
  return counts;
}

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, HeapMatchesTheReferenceModel) {
  const std::uint64_t seed = GetParam();
  const std::vector<Op> ops = make_schedule(seed, 4000);
  const PopCounts counts =
      run_schedule(ops, "heap/seed=" + std::to_string(seed));
  EXPECT_GT(counts.pops, 0u) << "degenerate schedule, seed " << seed;
  EXPECT_GT(counts.cancelled, 0u) << "no lazily cancelled pop, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(SeededSchedules, EventQueueFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           20130806, 0xDEADBEEF, 0xC0FFEE),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace laps
