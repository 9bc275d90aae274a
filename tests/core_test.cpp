// Tests for src/core: incremental-hash map table, migration table, core
// allocator, and the LAPS scheduler's decision logic driven through a fake
// NPU view.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/core_allocator.h"
#include "core/laps.h"
#include "core/map_table.h"
#include "core/migration_table.h"
#include "util/rng.h"

namespace laps {
namespace {

// --------------------------------------------------------------- MapTable ---

TEST(MapTable, RejectsEmpty) {
  EXPECT_THROW(MapTable({}), std::invalid_argument);
}

TEST(MapTable, SingleBucketAlwaysHits) {
  MapTable t({7});
  for (int h = 0; h < 1000; ++h) {
    EXPECT_EQ(t.core_for(static_cast<std::uint16_t>(h)), 7u);
  }
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.base(), 1u);
}

TEST(MapTable, PowerOfTwoUsesPlainModulo) {
  MapTable t({10, 11, 12, 13});
  EXPECT_EQ(t.base(), 4u);
  for (std::uint32_t h = 0; h < 4096; ++h) {
    EXPECT_EQ(t.bucket_index(static_cast<std::uint16_t>(h)), h % 4);
  }
}

TEST(MapTable, PaperSplitFunction) {
  // b = 5, m = 4: h1 = k%4; bucket 0 has been split, so keys with h1 == 0
  // use h2 = k%8 (landing in 0 or 4); everything else stays at h1.
  MapTable t({0, 1, 2, 3});
  t.add_core(4);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.base(), 4u);
  for (std::uint32_t k = 0; k < 4096; ++k) {
    const auto h = static_cast<std::uint16_t>(k);
    const std::size_t idx = t.bucket_index(h);
    if (k % 4 == 0) {
      EXPECT_EQ(idx, k % 8) << "split bucket keys use h2";
      EXPECT_TRUE(idx == 0 || idx == 4);
    } else {
      EXPECT_EQ(idx, k % 4) << "unsplit bucket keys use h1";
    }
  }
}

TEST(MapTable, GrowOnlyDisturbsSplitBucket) {
  // THE incremental-hashing property (Sec. III-C): adding a core moves only
  // flows that previously hashed to the bucket being split.
  MapTable t({0, 1, 2, 3, 4, 5});
  std::map<std::uint16_t, std::size_t> before;
  for (std::uint32_t h = 0; h < 65536; ++h) {
    before[static_cast<std::uint16_t>(h)] =
        t.bucket_index(static_cast<std::uint16_t>(h));
  }
  const std::size_t split_bucket = t.size() - t.base();  // next to split
  t.add_core(6);
  for (const auto& [h, old_idx] : before) {
    const std::size_t new_idx = t.bucket_index(h);
    if (old_idx == split_bucket) {
      EXPECT_TRUE(new_idx == old_idx || new_idx == old_idx + t.base())
          << "hash " << h;
    } else {
      EXPECT_EQ(new_idx, old_idx) << "hash " << h;
    }
  }
}

TEST(MapTable, BaseDoublesWhenBucketsReachTwiceM) {
  MapTable t({0, 1});  // b=2, m=2
  EXPECT_EQ(t.base(), 2u);
  t.add_core(2);  // b=3, m=2
  EXPECT_EQ(t.base(), 2u);
  t.add_core(3);  // b=4 -> m doubles to 4 (paper: "h2 becomes CRC%4m")
  EXPECT_EQ(t.base(), 4u);
}

TEST(MapTable, IndexAlwaysInRange) {
  Rng rng(5);
  std::vector<CoreId> cores{0};
  MapTable t(cores);
  for (CoreId c = 1; c < 23; ++c) t.add_core(c);
  for (int i = 0; i < 65536; ++i) {
    ASSERT_LT(t.bucket_index(static_cast<std::uint16_t>(i)), t.size());
  }
}

TEST(MapTable, RemoveCoreShiftsOthers) {
  MapTable t({10, 20, 30, 40});
  EXPECT_TRUE(t.remove_core(20));
  EXPECT_EQ(t.buckets(), (std::vector<CoreId>{10, 30, 40}));
  EXPECT_EQ(t.base(), 2u);
  EXPECT_FALSE(t.contains(20));
}

TEST(MapTable, RemoveUnknownOrLastFails) {
  MapTable t({1, 2});
  EXPECT_FALSE(t.remove_core(99));
  EXPECT_TRUE(t.remove_core(1));
  EXPECT_FALSE(t.remove_core(2)) << "last bucket must stay";
  EXPECT_EQ(t.size(), 1u);
}

TEST(MapTable, GrowShrinkRoundTripRestoresMapping) {
  MapTable t({0, 1, 2, 3});
  std::map<std::uint16_t, CoreId> before;
  for (std::uint32_t h = 0; h < 65536; ++h) {
    before[static_cast<std::uint16_t>(h)] =
        t.core_for(static_cast<std::uint16_t>(h));
  }
  t.add_core(4);
  EXPECT_TRUE(t.remove_core(4));
  for (const auto& [h, core] : before) {
    EXPECT_EQ(t.core_for(h), core);
  }
}

TEST(MapTable, DisruptionFractionMatchesTheory) {
  // Growing b -> b+1 should rehash ~1/b of the key space (one bucket),
  // vs. a full `% b` remap which moves ~ (b-1)/b of keys. This quantifies
  // the paper's "minimal disruption" claim.
  MapTable t({0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<std::size_t> before(65536);
  for (std::uint32_t h = 0; h < 65536; ++h) {
    before[h] = t.bucket_index(static_cast<std::uint16_t>(h));
  }
  t.add_core(8);
  int moved = 0;
  for (std::uint32_t h = 0; h < 65536; ++h) {
    moved += before[h] != t.bucket_index(static_cast<std::uint16_t>(h));
  }
  // Half the split bucket moves: expected 65536/8/2 = 4096.
  EXPECT_NEAR(moved, 4096, 300);
}

// --------------------------------------------------------- MigrationTable ---

TEST(MigrationTable, RejectsZeroCapacity) {
  EXPECT_THROW(MigrationTable(0), std::invalid_argument);
}

TEST(MigrationTable, AddLookupErase) {
  MigrationTable t(4);
  EXPECT_FALSE(t.lookup(1).has_value());
  t.add(1, 5);
  EXPECT_EQ(t.lookup(1), 5u);
  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.erase(1));
  EXPECT_FALSE(t.lookup(1).has_value());
}

TEST(MigrationTable, FifoEvictionWhenFull) {
  MigrationTable t(2);
  t.add(1, 0);
  t.add(2, 0);
  t.add(3, 0);  // evicts 1
  EXPECT_FALSE(t.lookup(1).has_value());
  EXPECT_TRUE(t.lookup(2).has_value());
  EXPECT_TRUE(t.lookup(3).has_value());
  EXPECT_EQ(t.size(), 2u);
}

TEST(MigrationTable, RepinRefreshesAgeAndTarget) {
  MigrationTable t(2);
  t.add(1, 0);
  t.add(2, 0);
  t.add(1, 7);  // re-pin 1: now newest, target 7
  t.add(3, 0);  // evicts 2 (oldest), not 1
  EXPECT_EQ(t.lookup(1), 7u);
  EXPECT_FALSE(t.lookup(2).has_value());
}

TEST(MigrationTable, RemoveCoreEntries) {
  MigrationTable t(8);
  t.add(1, 3);
  t.add(2, 4);
  t.add(3, 3);
  EXPECT_EQ(t.remove_core_entries(3), 2u);
  EXPECT_FALSE(t.lookup(1).has_value());
  EXPECT_EQ(t.lookup(2), 4u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(MigrationTable, ClearEmpties) {
  MigrationTable t(4);
  t.add(1, 1);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.keys_in_order().empty());
}

// Property: seeded random add, re-pin, erase, lookup and
// remove_core_entries against a std::map + std::deque reference (FIFO order,
// re-pin moves to newest, eviction takes the oldest). Every step checks the
// lookups of all pinned keys plus the step's key, size() and
// keys_in_order(), so a broken deletion from the table's index (a probe
// chain cut short) shows as a pinned key that no longer looks up.
TEST(MigrationTable, MatchesReferenceModel) {
  for (const std::size_t capacity : {1u, 3u, 1024u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      MigrationTable table(capacity);
      std::map<std::uint64_t, CoreId> ref;
      std::deque<std::uint64_t> order;  // oldest first
      Rng rng(seed * 7919 + capacity);
      // Keys spread over the whole 64-bit range (like flow keys) plus a
      // dense low block so neighbouring index slots collide.
      const std::uint64_t domain = 2 * capacity + 3;
      auto pick_key = [&]() {
        const std::uint64_t k = rng.below(domain);
        return k % 2 == 0 ? mix64(k) : k;
      };
      auto unlink = [&](std::uint64_t key) {
        order.erase(std::find(order.begin(), order.end(), key));
        ref.erase(key);
      };
      const std::size_t steps = 3000 + 8 * capacity;
      for (std::size_t step = 0; step < steps; ++step) {
        const std::uint64_t key = pick_key();
        const std::uint64_t op = rng.below(100);
        if (op < 45) {  // add, or re-pin when already pinned
          const auto core = static_cast<CoreId>(rng.below(8));
          table.add(key, core);
          if (ref.count(key)) {
            unlink(key);
          } else if (ref.size() == capacity) {
            unlink(order.front());
          }
          ref[key] = core;
          order.push_back(key);
        } else if (op < 70) {
          ASSERT_EQ(table.erase(key), ref.count(key) == 1) << "step " << step;
          if (ref.count(key)) unlink(key);
        } else if (op < 75) {
          const auto core = static_cast<CoreId>(rng.below(8));
          std::size_t expect = 0;
          for (auto it = order.begin(); it != order.end();) {
            if (ref.at(*it) == core) {
              ref.erase(*it);
              it = order.erase(it);
              ++expect;
            } else {
              ++it;
            }
          }
          ASSERT_EQ(table.remove_core_entries(core), expect) << "step " << step;
        }  // else: lookup-only step
        ASSERT_EQ(table.size(), ref.size()) << "step " << step;
        ASSERT_EQ(table.keys_in_order(),
                  std::vector<std::uint64_t>(order.begin(), order.end()))
            << "step " << step;
        const auto it = ref.find(key);
        ASSERT_EQ(table.lookup(key),
                  it == ref.end() ? std::nullopt : std::optional(it->second))
            << "step " << step;
        for (const auto& [k, core] : ref) {
          ASSERT_EQ(table.lookup(k), core) << "step " << step << " key " << k;
        }
      }
      table.clear();
      EXPECT_EQ(table.size(), 0u);
      EXPECT_TRUE(table.keys_in_order().empty());
    }
  }
}

// ---------------------------------------------------------- CoreAllocator ---

TEST(CoreAllocator, RejectsBadConstruction) {
  EXPECT_THROW(CoreAllocator(4, 0), std::invalid_argument);
  EXPECT_THROW(CoreAllocator(2, 4), std::invalid_argument);
  EXPECT_THROW(CoreAllocator(4, 2, 0), std::invalid_argument);
}

TEST(CoreAllocator, EvenInitialSplit) {
  CoreAllocator a(16, 4);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(a.cores_of(s).size(), 4u) << "service " << s;
  }
  // Ownership is a partition.
  std::set<CoreId> all;
  for (std::size_t s = 0; s < 4; ++s) {
    for (CoreId c : a.cores_of(s)) {
      EXPECT_TRUE(all.insert(c).second);
      EXPECT_EQ(a.owner(c), s);
    }
  }
  EXPECT_EQ(all.size(), 16u);
}

TEST(CoreAllocator, UnevenSplitCoversAllCores) {
  CoreAllocator a(10, 4);
  std::size_t total = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_GE(a.cores_of(s).size(), 2u);
    total += a.cores_of(s).size();
  }
  EXPECT_EQ(total, 10u);
}

TEST(CoreAllocator, GrantTakesLongestSurplus) {
  CoreAllocator a(8, 2);  // service 0: cores 0-3, service 1: cores 4-7
  a.mark_surplus(0, 100);
  a.mark_surplus(1, 50);  // marked earlier = surplus longer
  const auto granted = a.grant_core(1);
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(*granted, 1u);
  EXPECT_EQ(a.owner(1), 1u);
  EXPECT_EQ(a.cores_of(0).size(), 3u);
  EXPECT_EQ(a.cores_of(1).size(), 5u);
  EXPECT_EQ(a.transfers(), 1u);
}

TEST(CoreAllocator, GrantSkipsOwnSurplus) {
  CoreAllocator a(4, 2);
  a.mark_surplus(0, 10);  // owned by requesting service 0
  EXPECT_FALSE(a.grant_core(0).has_value());
  EXPECT_TRUE(a.is_surplus(0));
}

TEST(CoreAllocator, GrantRespectsMinCores) {
  CoreAllocator a(2, 2, /*min_cores=*/1);
  a.mark_surplus(1, 5);  // service 1's only core
  EXPECT_FALSE(a.grant_core(0).has_value())
      << "victim may not drop below min_cores";
}

TEST(CoreAllocator, UnmarkPreventsGrant) {
  CoreAllocator a(4, 2);
  a.mark_surplus(2, 5);
  a.unmark_surplus(2);
  EXPECT_FALSE(a.is_surplus(2));
  EXPECT_FALSE(a.grant_core(0).has_value());
}

TEST(CoreAllocator, MarkIsIdempotent) {
  CoreAllocator a(4, 2);
  a.mark_surplus(2, 5);
  a.mark_surplus(2, 999);  // keeps the original (earlier) timestamp
  EXPECT_EQ(a.surplus_count(), 1u);
  a.mark_surplus(3, 1);
  const auto granted = a.grant_core(0);
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(*granted, 3u) << "core 3 marked at t=1 is the longest surplus";
}

TEST(CoreAllocator, GrantClearsMark) {
  CoreAllocator a(4, 2);
  a.mark_surplus(2, 5);
  const auto granted = a.grant_core(0);
  ASSERT_TRUE(granted.has_value());
  EXPECT_FALSE(a.is_surplus(*granted));
}

TEST(CoreAllocator, OwnershipStaysPartitionUnderChurn) {
  CoreAllocator a(12, 3);
  Rng rng(9);
  for (int step = 0; step < 2000; ++step) {
    const CoreId c = static_cast<CoreId>(rng.below(12));
    switch (rng.below(3)) {
      case 0: a.mark_surplus(c, step); break;
      case 1: a.unmark_surplus(c); break;
      case 2: a.grant_core(rng.below(3)); break;
    }
    // Invariant: every core owned exactly once; every service >= 1 core.
    std::size_t total = 0;
    for (std::size_t s = 0; s < 3; ++s) {
      ASSERT_GE(a.cores_of(s).size(), 1u);
      total += a.cores_of(s).size();
      for (CoreId core : a.cores_of(s)) ASSERT_EQ(a.owner(core), s);
    }
    ASSERT_EQ(total, 12u);
  }
}

TEST(CoreAllocator, GrantDrainsSurplusPoolToExhaustion) {
  CoreAllocator a(8, 2);  // service 0: cores 0-3, service 1: cores 4-7
  a.mark_surplus(0, 10);
  a.mark_surplus(1, 20);
  a.mark_surplus(2, 30);
  std::vector<CoreId> granted;
  while (const auto core = a.grant_core(1)) granted.push_back(*core);
  EXPECT_EQ(granted, (std::vector<CoreId>{0, 1, 2}))
      << "grants follow surplus age until the pool is empty";
  EXPECT_EQ(a.surplus_count(), 0u);
  EXPECT_FALSE(a.grant_core(1).has_value());
  EXPECT_EQ(a.cores_of(0).size(), 1u);  // at min_cores now
}

TEST(CoreAllocator, UnmarkMidPoolSkipsThatCore) {
  CoreAllocator a(8, 2);
  a.mark_surplus(0, 10);
  a.mark_surplus(1, 20);
  a.mark_surplus(2, 30);
  a.unmark_surplus(1);  // owner touched it again: no longer a donor
  const auto first = a.grant_core(1);
  const auto second = a.grant_core(1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, 0u);
  EXPECT_EQ(*second, 2u) << "core 1 was unmarked and must be skipped";
  EXPECT_EQ(a.owner(1), 0u);
}

TEST(CoreAllocator, OfflineCoresAreNeverGranted) {
  CoreAllocator a(8, 2);
  a.mark_surplus(0, 10);
  a.set_offline(0);
  EXPECT_TRUE(a.is_offline(0));
  EXPECT_FALSE(a.is_surplus(0)) << "failure clears the surplus mark";
  EXPECT_FALSE(a.grant_core(1).has_value());
  EXPECT_EQ(a.online_of(0), 3u);
  EXPECT_EQ(a.owner(0), 0u) << "ownership survives the outage";
  a.set_online(0);
  EXPECT_EQ(a.online_of(0), 4u);
  // Back online the core is grantable again once re-marked.
  a.mark_surplus(0, 50);
  const auto granted = a.grant_core(1);
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(*granted, 0u);
}

TEST(CoreAllocator, OfflineTransitionsAreIdempotent) {
  CoreAllocator a(4, 2);
  a.set_offline(3);
  a.set_offline(3);
  EXPECT_EQ(a.online_of(1), 1u);
  a.set_online(3);
  a.set_online(3);
  EXPECT_EQ(a.online_of(1), 2u);
}

TEST(CoreAllocator, GrantAnyTakesFromRichestDonorButNeverItsLastCore) {
  CoreAllocator a(8, 2);  // service 0: cores 0-3, service 1: cores 4-7
  // Kill all of service 0; service 1 is the only possible donor.
  for (CoreId c = 0; c < 4; ++c) a.set_offline(c);
  EXPECT_EQ(a.online_of(0), 0u);
  const std::uint64_t transfers_before = a.transfers();
  std::size_t granted = 0;
  while (const auto core = a.grant_any(0)) {
    EXPECT_EQ(a.owner(*core), 0u);
    EXPECT_FALSE(a.is_offline(*core));
    ++granted;
  }
  EXPECT_EQ(granted, 3u) << "the donor must keep one online core";
  EXPECT_EQ(a.online_of(1), 1u);
  EXPECT_EQ(a.online_of(0), 3u);
  EXPECT_EQ(a.transfers(), transfers_before + 3);
  EXPECT_FALSE(a.grant_any(0).has_value())
      << "no donor with two online cores remains";
}

// ------------------------------------------------------------------ LAPS ---

/// Hand-controlled NPU view for driving the scheduler directly.
class FakeView final : public NpuView {
 public:
  explicit FakeView(std::size_t n) : cores_(n) {
    for (auto& c : cores_) c.idle_since = 0;
  }
  TimeNs now() const override { return now_; }
  std::span<const CoreView> cores() const override {
    return {cores_.data(), cores_.size()};
  }
  std::uint32_t queue_capacity() const override { return 32; }

  TimeNs now_ = 0;
  std::vector<CoreView> cores_;
};

/// A packet of `service` whose tuple is distinct per flow id.
SimPacket make_packet(std::uint32_t flow, ServicePath service) {
  SimPacket pkt;
  pkt.tuple.src_ip = 0x0A000000u + flow;
  pkt.tuple.dst_ip = static_cast<std::uint32_t>(mix64(flow) >> 32) | 1u;
  pkt.tuple.src_port = static_cast<std::uint16_t>(1024 + flow % 60000);
  pkt.tuple.dst_port = 80;
  pkt.tuple.protocol = 6;
  pkt.gflow = flow;
  pkt.service = service;
  return pkt;
}

LapsConfig test_config(std::size_t services = 2) {
  LapsConfig cfg;
  cfg.num_services = services;
  cfg.high_thresh = 24;
  cfg.idle_th = from_us(100);
  cfg.afd.afc_entries = 4;
  cfg.afd.annex_entries = 32;
  cfg.afd.promote_threshold = 2;
  return cfg;
}

TEST(Laps, RejectsZeroServices) {
  LapsConfig cfg;
  cfg.num_services = 0;
  EXPECT_THROW(LapsScheduler{cfg}, std::invalid_argument);
}

TEST(Laps, RoutesWithinOwningService) {
  LapsScheduler laps(test_config(2));
  laps.attach(8);  // service 0: cores 0-3, service 1: cores 4-7
  FakeView view(8);
  for (std::uint32_t f = 0; f < 200; ++f) {
    const CoreId c0 = laps.schedule(make_packet(f, ServicePath::kVpnOut), view);
    EXPECT_LT(c0, 4u) << "service 0 packets stay on service 0 cores";
    const CoreId c1 =
        laps.schedule(make_packet(f + 1000, ServicePath::kIpForward), view);
    EXPECT_GE(c1, 4u);
  }
}

TEST(Laps, FlowAffinityIsStable) {
  LapsScheduler laps(test_config(1));
  laps.attach(4);
  FakeView view(4);
  std::map<std::uint32_t, CoreId> first;
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t f = 0; f < 100; ++f) {
      const CoreId c =
          laps.schedule(make_packet(f, ServicePath::kIpForward), view);
      const auto [it, inserted] = first.emplace(f, c);
      if (!inserted) {
        EXPECT_EQ(it->second, c) << "flow " << f;
      }
    }
  }
}

TEST(Laps, NonAggressiveFlowNotMigratedUnderImbalance) {
  LapsScheduler laps(test_config(1));
  laps.attach(4);
  FakeView view(4);
  const SimPacket pkt = make_packet(1, ServicePath::kIpForward);
  const CoreId home = laps.schedule(pkt, view);
  // Overload the home core; flow 1 is cold (1 AFD access), so no migration.
  view.cores_[home].queue_len = 32;
  const CoreId c = laps.schedule(pkt, view);
  EXPECT_EQ(c, home) << "cold flows ride out the imbalance";
}

TEST(Laps, AggressiveFlowMigratesToLeastLoaded) {
  LapsScheduler laps(test_config(1));
  laps.attach(4);
  FakeView view(4);
  const SimPacket pkt = make_packet(1, ServicePath::kIpForward);
  const CoreId home = laps.schedule(pkt, view);
  // Make the flow aggressive: enough accesses to pass annex -> AFC.
  for (int i = 0; i < 10; ++i) laps.schedule(pkt, view);
  ASSERT_TRUE(laps.afd().is_aggressive(pkt.flow_key()));

  view.cores_[home].queue_len = 30;  // overloaded
  CoreId expect_min = home == 2 ? 3 : 2;
  view.cores_[expect_min].queue_len = 0;
  for (CoreId c = 0; c < 4; ++c) {
    if (c != home && c != expect_min) view.cores_[c].queue_len = 10;
  }
  const CoreId migrated = laps.schedule(pkt, view);
  EXPECT_EQ(migrated, expect_min);
  // Listing 1: the AFC entry is invalidated after migration, and the pin
  // persists for subsequent packets.
  EXPECT_FALSE(laps.afd().is_aggressive(pkt.flow_key()));
  view.cores_[home].queue_len = 0;
  EXPECT_EQ(laps.schedule(pkt, view), expect_min)
      << "migration table overrides the hash path";
}

TEST(Laps, AllCoresOverloadedRequestsCore) {
  LapsScheduler laps(test_config(2));
  laps.attach(8);
  FakeView view(8);
  // Let service 1's cores idle long enough to be marked surplus.
  view.now_ = from_us(500);
  laps.schedule(make_packet(1, ServicePath::kVpnOut), view);  // marks 4-7
  // Now overload all of service 0's cores.
  for (CoreId c = 0; c < 4; ++c) {
    view.cores_[c].queue_len = 32;
    view.cores_[c].idle_since = -1;
  }
  const std::size_t before = laps.allocator().cores_of(0).size();
  laps.schedule(make_packet(2, ServicePath::kVpnOut), view);
  EXPECT_EQ(laps.allocator().cores_of(0).size(), before + 1)
      << "request_core() should steal a surplus core from service 1";
  EXPECT_EQ(laps.allocator().cores_of(1).size(), 3u);
  EXPECT_GT(laps.map_table(0).size(), before);
}

TEST(Laps, DispatchUnmarksSurplus) {
  LapsScheduler laps(test_config(2));
  laps.attach(8);
  FakeView view(8);
  view.now_ = from_us(500);  // all cores idle since 0 -> all marked
  const SimPacket pkt = make_packet(1, ServicePath::kVpnOut);
  const CoreId target = laps.schedule(pkt, view);
  EXPECT_FALSE(laps.allocator().is_surplus(target))
      << "the dispatched core must be reclaimed from the surplus list";
}

// Surplus marks are rescanned on a deadline, not on every decision; they
// must still equal what a scan on every decision produces. A core crosses
// idle_th between decisions and is marked at the first decision after the
// crossing; a dispatch that clears a mark while the view still shows the
// core idle (as if its packet never arrived) has it re-marked at once.
TEST(Laps, SurplusMarksMatchAScanOnEveryDecision) {
  LapsScheduler laps(test_config(1));  // idle_th = 100 us
  laps.attach(4);
  FakeView view(4);  // every core idle since t = 0
  const SimPacket pkt = make_packet(1, ServicePath::kIpForward);
  view.now_ = from_us(99);
  laps.schedule(pkt, view);
  EXPECT_EQ(laps.allocator().surplus_count(), 0u);
  view.now_ = from_us(100);
  const CoreId target = laps.schedule(pkt, view);
  EXPECT_EQ(laps.allocator().surplus_count(), 3u)
      << "all four cross at 100 us; the dispatch unmarks its target";
  EXPECT_FALSE(laps.allocator().is_surplus(target));

  std::uint32_t flow = 2;
  while (laps.map_table(0).core_for(
             make_packet(flow, ServicePath::kIpForward).tuple.crc16()) ==
         target) {
    ++flow;
  }
  laps.schedule(make_packet(flow, ServicePath::kIpForward), view);
  EXPECT_TRUE(laps.allocator().is_surplus(target))
      << "a cleared mark must be rescanned at the next decision";
}

TEST(Laps, ServiceIndexWrapsModulo) {
  // Single-service config (the Fig. 9 setup): any ServicePath lands on
  // service 0 and every core is usable.
  LapsScheduler laps(test_config(1));
  laps.attach(4);
  FakeView view(4);
  const CoreId c = laps.schedule(make_packet(1, ServicePath::kVpnInScan), view);
  EXPECT_LT(c, 4u);
}

TEST(Laps, StalePinIsDropped) {
  LapsScheduler laps(test_config(2));
  laps.attach(8);
  FakeView view(8);
  // Build an aggressive flow on service 0 and migrate it to a pin. With
  // now_ == 0 no surplus marking can happen yet (idle_th not reached).
  const SimPacket pkt = make_packet(7, ServicePath::kVpnOut);
  const CoreId home = laps.schedule(pkt, view);
  for (int i = 0; i < 10; ++i) laps.schedule(pkt, view);
  view.cores_[home].queue_len = 30;
  const CoreId pinned = laps.schedule(pkt, view);
  ASSERT_NE(pinned, home);
  view.cores_[home].queue_len = 0;

  // Make the *pinned* core the only idle-marked one, then overload all of
  // service 1 so its next packet steals exactly that core.
  view.now_ = from_us(500);
  for (CoreId c = 0; c < 4; ++c) {
    if (c != pinned) view.cores_[c].idle_since = -1;
  }
  for (CoreId c = 4; c < 8; ++c) {
    view.cores_[c].queue_len = 32;
    view.cores_[c].idle_since = -1;
  }
  laps.schedule(make_packet(900, ServicePath::kIpForward), view);
  ASSERT_EQ(laps.allocator().owner(pinned), 1u)
      << "the surplus grant must take the pinned core";
  // The flow must fall back to its hash path, not follow the stolen core.
  const CoreId after = laps.schedule(pkt, view);
  EXPECT_EQ(laps.allocator().owner(after), 0u);
  EXPECT_NE(after, pinned);
}

TEST(Laps, ExtraStatsExposeCounters) {
  LapsScheduler laps(test_config(1));
  laps.attach(4);
  FakeView view(4);
  laps.schedule(make_packet(1, ServicePath::kIpForward), view);
  const auto stats = laps.extra_stats();
  EXPECT_TRUE(stats.count("aggressive_migrations"));
  EXPECT_TRUE(stats.count("core_requests"));
  EXPECT_TRUE(stats.count("core_transfers"));
  EXPECT_TRUE(stats.count("afd_promotions"));
}

TEST(Laps, MinCoresPreventsStarvation) {
  LapsConfig cfg = test_config(2);
  cfg.min_cores_per_service = 2;
  LapsScheduler laps(cfg);
  laps.attach(4);  // 2 cores each; nothing may be donated
  FakeView view(4);
  view.now_ = from_us(1000);
  laps.schedule(make_packet(1, ServicePath::kVpnOut), view);  // mark all idle
  for (CoreId c = 0; c < 2; ++c) {
    view.cores_[c].queue_len = 32;
    view.cores_[c].idle_since = -1;
  }
  laps.schedule(make_packet(2, ServicePath::kVpnOut), view);
  EXPECT_EQ(laps.allocator().cores_of(1).size(), 2u);
  EXPECT_GE(laps.extra_stats().at("core_requests_denied"), 1.0);
}

}  // namespace
}  // namespace laps
