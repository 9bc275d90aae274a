// Tests for src/cache: the O(1) LFU cache, the Aggressive Flow Detector,
// the ElephantTrap baseline, Space-Saving, and the exact top-K truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "cache/afd.h"
#include "cache/elephant_trap.h"
#include "cache/lfu_cache.h"
#include "cache/space_saving.h"
#include "cache/topk.h"
#include "core/laps.h"
#include "trace/synthetic.h"
#include "util/crc.h"
#include "util/rng.h"
#include "util/samplers.h"

#ifndef LAPS_SOURCE_DIR
#error "LAPS_SOURCE_DIR must be defined to locate tests/golden/"
#endif

namespace laps {
namespace {

// ------------------------------------------------------------- LfuCache ---

TEST(LfuCache, RejectsZeroCapacity) {
  EXPECT_THROW(LfuCache<int>(0), std::invalid_argument);
}

TEST(LfuCache, InsertAndContains) {
  LfuCache<int> c(4);
  c.insert(1);
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_EQ(c.size(), 1u);
}

TEST(LfuCache, TouchIncrementsFrequency) {
  LfuCache<int> c(4);
  c.insert(1);
  EXPECT_EQ(c.freq_of(1), 1u);
  EXPECT_EQ(c.touch(1), 2u);
  EXPECT_EQ(c.touch(1), 3u);
  EXPECT_EQ(c.freq_of(1), 3u);
}

TEST(LfuCache, TouchMissReturnsNullopt) {
  LfuCache<int> c(4);
  EXPECT_FALSE(c.touch(9).has_value());
  EXPECT_EQ(c.size(), 0u);  // touch must not insert
}

TEST(LfuCache, EvictsLeastFrequent) {
  LfuCache<int> c(2);
  c.insert(1);
  c.insert(2);
  c.touch(1);  // 1 has freq 2, 2 has freq 1
  const auto victim = c.insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->key, 2);
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(3));
}

TEST(LfuCache, TieBrokenByLru) {
  LfuCache<int> c(2);
  c.insert(1);
  c.insert(2);
  // Both freq 1; 1 is older (least recently inserted/touched).
  const auto victim = c.insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->key, 1);
}

TEST(LfuCache, TouchRefreshesRecencyWithinFrequency) {
  LfuCache<int> c(2);
  c.insert(1);
  c.insert(2);
  c.touch(1);
  c.touch(2);  // both freq 2 now; 1 touched earlier -> LRU
  const auto victim = c.insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->key, 1);
}

TEST(LfuCache, InsertCarriesInitialFrequency) {
  LfuCache<int> c(2);
  c.insert(1, 100);
  c.insert(2, 1);
  const auto victim = c.insert(3, 1);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->key, 2) << "high-frequency entry must survive";
}

TEST(LfuCache, EraseRemoves) {
  LfuCache<int> c(4);
  c.insert(1);
  const auto gone = c.erase(1);
  ASSERT_TRUE(gone.has_value());
  EXPECT_EQ(gone->freq, 1u);
  EXPECT_FALSE(c.contains(1));
  EXPECT_FALSE(c.erase(1).has_value());
}

TEST(LfuCache, EntriesSortedByFrequencyDescending) {
  LfuCache<int> c(4);
  c.insert(1);
  c.insert(2);
  c.insert(3);
  c.touch(2);
  c.touch(2);
  c.touch(3);
  const auto entries = c.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, 2);
  EXPECT_EQ(entries[1].key, 3);
  EXPECT_EQ(entries[2].key, 1);
}

TEST(LfuCache, MinFreqTracksMinimum) {
  LfuCache<int> c(4);
  EXPECT_EQ(c.min_freq(), 0u);
  c.insert(1, 5);
  c.insert(2, 3);
  EXPECT_EQ(c.min_freq(), 3u);
  c.erase(2);
  EXPECT_EQ(c.min_freq(), 5u);
}

TEST(LfuCache, AgeHalvesCounters) {
  LfuCache<int> c(4);
  c.insert(1, 8);
  c.insert(2, 3);
  c.insert(3, 1);
  c.age_halve();
  EXPECT_EQ(c.freq_of(1), 4u);
  EXPECT_EQ(c.freq_of(2), 1u);
  EXPECT_EQ(c.freq_of(3), 1u);  // clamped at 1
  EXPECT_EQ(c.size(), 3u);
}

TEST(LfuCache, ClearEmpties) {
  LfuCache<int> c(4);
  c.insert(1);
  c.insert(2);
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.contains(1));
}

TEST(LfuCache, EvictOnEmptyThrows) {
  LfuCache<int> c(2);
  EXPECT_THROW(c.evict_lfu(), std::logic_error);
}

// Property: the cache behaves exactly like a straightforward reference LFU
// over random sequences of every public operation. The reference keeps an
// explicit last-use stamp per entry and finds the victim by a full scan for
// the lowest (frequency, last use); age_halve re-stamps entries in
// ascending (old frequency, old last use) order, so within each new tier
// the entry with the higher old count sits nearer the protected end.
// Capacity 1 is the degenerate cache, 16 the AFC, 512 the annex.
class LfuModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

struct RefLfu {
  struct Entry {
    std::uint64_t freq;
    std::uint64_t last_use;  // lower = older
  };
  std::map<int, Entry> entries;
  std::uint64_t tick = 0;

  std::map<int, Entry>::iterator victim() {
    auto best = entries.begin();
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->second.freq < best->second.freq ||
          (it->second.freq == best->second.freq &&
           it->second.last_use < best->second.last_use)) {
        best = it;
      }
    }
    return best;
  }

  std::uint64_t min_freq() const {
    std::uint64_t out = 0;
    for (const auto& [key, e] : entries) {
      if (out == 0 || e.freq < out) out = e.freq;
    }
    return out;
  }

  // Frequency descending, most recent first.
  std::vector<std::pair<int, std::uint64_t>> ordered() const {
    std::vector<std::pair<int, Entry>> all(entries.begin(), entries.end());
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.second.freq != b.second.freq) return a.second.freq > b.second.freq;
      return a.second.last_use > b.second.last_use;
    });
    std::vector<std::pair<int, std::uint64_t>> out;
    for (const auto& [key, e] : all) out.emplace_back(key, e.freq);
    return out;
  }

  void age_halve() {
    std::vector<std::pair<int, Entry>> all(entries.begin(), entries.end());
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.second.freq != b.second.freq) return a.second.freq < b.second.freq;
      return a.second.last_use < b.second.last_use;
    });
    for (const auto& [key, e] : all) {
      entries[key] = Entry{std::max<std::uint64_t>(e.freq / 2, 1), ++tick};
    }
  }
};

void run_lfu_model(std::size_t capacity, std::uint64_t seed) {
  LfuCache<int> fast(capacity);
  RefLfu ref;
  Rng rng(seed * 0x9E37 + capacity);
  const auto keys = static_cast<std::uint64_t>(2 * capacity + 4);
  const std::size_t steps = 4000 + 24 * capacity;

  // Installs `key` at `freq` in the reference; on a full cache the
  // reference victim must be exactly what the cache evicted.
  auto ref_install = [&](int key, std::uint64_t freq,
                         const std::optional<LfuCache<int>::Entry>& evicted,
                         std::size_t step) {
    if (ref.entries.size() == capacity) {
      const auto v = ref.victim();
      ASSERT_TRUE(evicted.has_value()) << "step " << step;
      ASSERT_EQ(evicted->key, v->first) << "step " << step;
      ASSERT_EQ(evicted->freq, v->second.freq) << "step " << step;
      ref.entries.erase(v);
    } else {
      ASSERT_FALSE(evicted.has_value()) << "step " << step;
    }
    ref.entries[key] = RefLfu::Entry{freq, ref.tick};
  };

  for (std::size_t step = 0; step < steps; ++step) {
    const int key = static_cast<int>(rng.below(keys));
    const auto it = ref.entries.find(key);
    const bool resident = it != ref.entries.end();
    ++ref.tick;
    const std::uint64_t op = rng.below(1000);
    if (op < 350) {  // access pattern: touch, insert on miss
      const auto hit = fast.touch(key);
      ASSERT_EQ(hit.has_value(), resident) << "step " << step;
      if (resident) {
        it->second.freq += 1;
        it->second.last_use = ref.tick;
        ASSERT_EQ(*hit, it->second.freq) << "step " << step;
      } else {
        ref_install(key, 1, fast.insert(key, 1), step);
      }
    } else if (op < 500) {  // insert at an explicit frequency
      const std::uint64_t freq = 1 + rng.below(12);
      const auto evicted = fast.insert(key, freq);
      if (resident) {  // overwrite (lower or higher), never evicts
        ASSERT_FALSE(evicted.has_value()) << "step " << step;
        it->second = RefLfu::Entry{freq, ref.tick};
      } else {
        ref_install(key, freq, evicted, step);
      }
    } else if (op < 600) {  // erase
      const auto gone = fast.erase(key);
      ASSERT_EQ(gone.has_value(), resident) << "step " << step;
      if (resident) {
        ASSERT_EQ(gone->key, key);
        ASSERT_EQ(gone->freq, it->second.freq) << "step " << step;
        ref.entries.erase(it);
      }
    } else if (op < 650) {  // evict_lfu
      if (ref.entries.empty()) {
        ASSERT_THROW(fast.evict_lfu(), std::logic_error);
      } else {
        const auto v = ref.victim();
        const auto out = fast.evict_lfu();
        ASSERT_EQ(out.key, v->first) << "step " << step;
        ASSERT_EQ(out.freq, v->second.freq) << "step " << step;
        ref.entries.erase(v);
      }
    } else if (op < 700) {
      ASSERT_EQ(fast.min_freq(), ref.min_freq()) << "step " << step;
    } else if (op < 750) {
      std::vector<std::pair<int, std::uint64_t>> got;
      for (const auto& e : fast.entries()) got.emplace_back(e.key, e.freq);
      ASSERT_EQ(got, ref.ordered()) << "step " << step;
    } else if (op < 770) {
      fast.age_halve();
      ref.age_halve();
    } else if (op < 772) {
      fast.clear();
      ref.entries.clear();
    } else {  // invariant audit
      ASSERT_EQ(fast.size(), ref.entries.size()) << "step " << step;
      ASSERT_EQ(fast.full(), ref.entries.size() == capacity);
      ASSERT_EQ(fast.contains(key), resident) << "step " << step;
      if (!resident) {
        ASSERT_FALSE(fast.freq_of(key).has_value());
      }
      for (const auto& [k, e] : ref.entries) {
        ASSERT_EQ(fast.freq_of(k), e.freq) << "step " << step;
      }
    }
  }
}

TEST_P(LfuModelCheck, MatchesReferenceModel) {
  for (const std::size_t capacity : {1u, 8u, 16u, 512u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    run_lfu_model(capacity, GetParam());
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LfuModelCheck,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------------------ AFD ---

AfdConfig small_afd() {
  AfdConfig cfg;
  cfg.afc_entries = 4;
  cfg.annex_entries = 16;
  cfg.promote_threshold = 3;
  return cfg;
}

TEST(Afd, ColdFlowEntersAnnexNotAfc) {
  Afd afd(small_afd());
  afd.access(7);
  EXPECT_FALSE(afd.is_aggressive(7));
  EXPECT_EQ(afd.annex_size(), 1u);
  EXPECT_EQ(afd.afc_size(), 0u);
}

TEST(Afd, PromotionRequiresThresholdCrossing) {
  Afd afd(small_afd());
  // threshold 3: counter must EXCEED 3, i.e. 4th access promotes.
  afd.access(7);  // insert, count 1
  afd.access(7);  // count 2
  afd.access(7);  // count 3 (== threshold, not promoted)
  EXPECT_FALSE(afd.is_aggressive(7));
  afd.access(7);  // count 4 > 3 -> promoted
  EXPECT_TRUE(afd.is_aggressive(7));
  EXPECT_EQ(afd.stats().promotions, 1u);
}

TEST(Afd, OnePacketMiceNeverReachAfc) {
  Afd afd(small_afd());
  for (std::uint64_t mouse = 100; mouse < 5000; ++mouse) {
    afd.access(mouse);
  }
  EXPECT_EQ(afd.afc_size(), 0u);
  EXPECT_EQ(afd.stats().promotions, 0u);
}

TEST(Afd, AfcVictimDemotedToAnnexWithCounter) {
  AfdConfig cfg = small_afd();
  cfg.afc_entries = 1;
  Afd afd(cfg);
  for (int i = 0; i < 4; ++i) afd.access(1);  // 1 promoted
  EXPECT_TRUE(afd.is_aggressive(1));
  for (int i = 0; i < 5; ++i) afd.access(2);  // 2 promoted, 1 demoted
  EXPECT_TRUE(afd.is_aggressive(2));
  EXPECT_FALSE(afd.is_aggressive(1));
  EXPECT_EQ(afd.stats().demotions, 1u);
  // Flow 1 sits in the annex with its old counter: one more access must
  // re-promote it immediately (counter already above threshold).
  afd.access(1);
  EXPECT_TRUE(afd.is_aggressive(1));
}

TEST(Afd, InvalidateRemovesFromAfc) {
  Afd afd(small_afd());
  for (int i = 0; i < 4; ++i) afd.access(1);
  ASSERT_TRUE(afd.is_aggressive(1));
  afd.invalidate(1);
  EXPECT_FALSE(afd.is_aggressive(1));
  EXPECT_EQ(afd.stats().invalidations, 1u);
  afd.invalidate(999);  // no-op
  EXPECT_EQ(afd.stats().invalidations, 1u);
}

TEST(Afd, IsAggressiveDoesNotPerturbCounters) {
  Afd afd(small_afd());
  afd.access(1);
  const auto before = afd.stats();
  for (int i = 0; i < 100; ++i) afd.is_aggressive(1);
  EXPECT_EQ(afd.stats().accesses, before.accesses);
  EXPECT_EQ(afd.stats().annex_hits, before.annex_hits);
}

TEST(Afd, ResetClearsEverything) {
  Afd afd(small_afd());
  for (int i = 0; i < 10; ++i) afd.access(1);
  afd.reset();
  EXPECT_EQ(afd.afc_size(), 0u);
  EXPECT_EQ(afd.annex_size(), 0u);
  EXPECT_EQ(afd.stats().accesses, 0u);
}

TEST(Afd, SamplingReducesSampledCount) {
  AfdConfig cfg = small_afd();
  cfg.sample_probability = 0.1;
  Afd afd(cfg);
  for (int i = 0; i < 20'000; ++i) afd.access(static_cast<std::uint64_t>(i));
  EXPECT_EQ(afd.stats().accesses, 20'000u);
  EXPECT_NEAR(static_cast<double>(afd.stats().sampled), 2'000.0, 300.0);
}

TEST(Afd, StatsAccounting) {
  Afd afd(small_afd());
  afd.access(1);  // annex insert
  afd.access(1);  // annex hit
  afd.access(2);  // annex insert
  EXPECT_EQ(afd.stats().annex_inserts, 2u);
  EXPECT_EQ(afd.stats().annex_hits, 1u);
  EXPECT_EQ(afd.stats().afc_hits, 0u);
  // Accesses 3 and 4: annex hits (count 4 > threshold 3 promotes); access 5
  // is the first AFC hit.
  for (int i = 0; i < 3; ++i) afd.access(1);
  EXPECT_EQ(afd.stats().promotions, 1u);
  EXPECT_EQ(afd.stats().afc_hits, 1u);
  afd.access(1);  // second AFC hit
  EXPECT_EQ(afd.stats().afc_hits, 2u);
}

// ------------------------------------------------------ AFD golden digest ---

// End-to-end pin of the detector, including the aging and sampling paths the
// scheduler-equivalence grid never enables: 200k keys of a CAIDA-like and an
// Auckland-like trace replayed through the AFD under six configurations.
// Each cell's digest is a CRC32 over the AFC contents sampled every 4096
// accesses plus the final AfdStats, recorded in tests/golden/afd_digest.tsv.
// Regenerate (only when a change *intends* to alter detector behaviour) with
// LAPS_REGEN_GOLDEN=1 ./cache_test --gtest_filter='AfdGolden.Regenerate'.
const char* kAfdGoldenPath = LAPS_SOURCE_DIR "/tests/golden/afd_digest.tsv";

// gtest has no printer for AfdDigestCell, so --gtest_list_tests shows each
// case's raw object bytes and gtest_discover_tests copies that text into
// the ctest name. With two std::string members the names carried a heap
// pointer and changed on every run under ASLR, so every byte is now a
// zero-filled member. `name_tag` holds the pointer value, and
// `config_size` the length, that reproduce the prefix the grid's names
// were first registered under; the record keeps its 64-byte image.
struct AfdDigestCell {
  std::uint64_t name_tag = 0x000055F8DE820510;
  std::uint64_t config_size = 0;
  char config[24] = {};  // NUL-terminated
  char trace[24] = {};   // NUL-terminated
};
static_assert(sizeof(AfdDigestCell) == 64 &&
                  std::has_unique_object_representations_v<AfdDigestCell>,
              "AfdDigestCell must stay a 64-byte record without padding");

std::vector<AfdDigestCell> afd_digest_grid() {
  std::vector<AfdDigestCell> cells;
  for (const char* config : {"default", "laps", "aging4096", "sample0.5",
                             "afc4_annex64", "afc64_annex1024"}) {
    for (const char* trace : {"caida1", "auck1"}) {
      AfdDigestCell cell{};
      cell.config_size = std::strlen(config);
      std::strncpy(cell.config, config, sizeof cell.config - 1);
      std::strncpy(cell.trace, trace, sizeof cell.trace - 1);
      cells.push_back(cell);
    }
  }
  return cells;
}

AfdConfig afd_digest_config(const std::string& name) {
  if (name == "laps") return LapsConfig::make_default_afd();
  AfdConfig cfg;
  if (name == "aging4096") cfg.aging_period = 4096;
  if (name == "sample0.5") cfg.sample_probability = 0.5;
  if (name == "afc4_annex64") {
    cfg.afc_entries = 4;
    cfg.annex_entries = 64;
  }
  if (name == "afc64_annex1024") {
    cfg.afc_entries = 64;
    cfg.annex_entries = 1024;
  }
  return cfg;
}

std::string afd_digest_line(const AfdDigestCell& cell) {
  constexpr int kAccesses = 200'000;
  constexpr int kSampleEvery = 4096;
  Afd afd(afd_digest_config(cell.config));
  const auto trace = make_trace(cell.trace);
  std::ostringstream digest;
  for (int i = 1; i <= kAccesses; ++i) {
    afd.access(trace->next()->tuple.key64());
    if (i % kSampleEvery == 0) {
      digest << i << ':';
      for (std::uint64_t key : afd.aggressive_flows()) digest << ' ' << key;
      digest << '\n';
    }
  }
  const AfdStats& s = afd.stats();
  std::ostringstream stats;
  stats << s.accesses << '\t' << s.sampled << '\t' << s.afc_hits << '\t'
        << s.annex_hits << '\t' << s.annex_inserts << '\t' << s.promotions
        << '\t' << s.demotions << '\t' << s.invalidations;
  digest << stats.str();
  const std::string bytes = digest.str();
  const std::uint32_t crc = crc32_ieee(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  return std::string(cell.config) + "|" + cell.trace + '\t' +
         std::to_string(crc) + '\t' + stats.str();
}

bool afd_regen_requested() {
  const char* env = std::getenv("LAPS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(AfdGolden, Regenerate) {
  if (!afd_regen_requested()) {
    GTEST_SKIP() << "set LAPS_REGEN_GOLDEN=1 to rewrite " << kAfdGoldenPath;
  }
  std::ofstream out(kAfdGoldenPath, std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << kAfdGoldenPath;
  out << "# AFD golden digests: config|trace, CRC32(AFC every 4096 accesses + "
         "final stats), accesses, sampled, afc_hits, annex_hits, "
         "annex_inserts, promotions, demotions, invalidations\n"
      << "# regenerate with: LAPS_REGEN_GOLDEN=1 ./cache_test "
         "--gtest_filter='AfdGolden.Regenerate'\n";
  for (const AfdDigestCell& cell : afd_digest_grid()) {
    out << afd_digest_line(cell) << "\n";
  }
  ASSERT_TRUE(out.good());
}

class AfdDigest : public ::testing::TestWithParam<AfdDigestCell> {};

TEST_P(AfdDigest, MatchesGolden) {
  if (afd_regen_requested()) {
    GTEST_SKIP() << "regeneration run; comparisons are meaningless";
  }
  const AfdDigestCell& cell = GetParam();
  const std::string key = std::string(cell.config) + "|" + cell.trace;
  std::ifstream in(kAfdGoldenPath);
  std::string golden;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key + '\t', 0) == 0) golden = line;
  }
  ASSERT_FALSE(golden.empty())
      << "no golden entry for '" << key << "' in " << kAfdGoldenPath;
  EXPECT_EQ(golden, afd_digest_line(cell))
      << "AFD behaviour diverged from the golden digest for '" << key << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AfdDigest, ::testing::ValuesIn(afd_digest_grid()),
    [](const ::testing::TestParamInfo<AfdDigestCell>& info) {
      std::string name =
          std::string(info.param.config) + "_" + info.param.trace;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// The headline property (paper Fig. 8a): on a heavy-tailed stream, the AFD
// identifies the true top flows with high accuracy, and a bigger annex only
// helps.
class AfdAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AfdAccuracy, FindsTopFlowsOnZipfStream) {
  AfdConfig cfg;
  cfg.afc_entries = 16;
  cfg.annex_entries = 512;
  cfg.promote_threshold = 8;
  Afd afd(cfg);
  ExactTopK truth;

  ZipfSampler zipf(20'000, 1.25);
  Rng rng(GetParam());
  for (int i = 0; i < 400'000; ++i) {
    const std::uint64_t flow = mix64(zipf.sample(rng) + 1);
    afd.access(flow);
    truth.access(flow);
  }
  const auto acc = score_detector(truth, afd.aggressive_flows(), 16);
  EXPECT_EQ(acc.claimed, 16u);
  // Paper reports 100% for Auckland-like skew at 512 entries; allow a
  // single miss for seed robustness.
  EXPECT_LE(acc.false_positives, 1u) << "fpr=" << acc.false_positive_ratio();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AfdAccuracy, ::testing::Values(11, 22, 33, 44));

TEST(AfdAccuracy, LargerAnnexIsMoreAccurateOnFlatStream) {
  // CAIDA-like regime: flat head, many active flows. Average FPR over
  // several seeds must not increase when the annex grows 64 -> 1024.
  auto run = [](std::size_t annex, std::uint64_t seed) {
    AfdConfig cfg;
    cfg.afc_entries = 16;
    cfg.annex_entries = annex;
    cfg.promote_threshold = 8;
    Afd afd(cfg);
    ExactTopK truth;
    ZipfSampler zipf(100'000, 1.03);
    Rng rng(seed);
    for (int i = 0; i < 300'000; ++i) {
      const std::uint64_t flow = mix64(zipf.sample(rng) + 1);
      afd.access(flow);
      truth.access(flow);
    }
    return score_detector(truth, afd.aggressive_flows(), 16)
        .false_positive_ratio();
  };
  double small = 0, large = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    small += run(64, seed);
    large += run(1024, seed);
  }
  EXPECT_LE(large, small + 1e-9);
}

// ----------------------------------------------------------- ElephantTrap ---

TEST(ElephantTrap, RejectsBadTopK) {
  EXPECT_THROW(ElephantTrap(8, 0), std::invalid_argument);
  EXPECT_THROW(ElephantTrap(8, 9), std::invalid_argument);
}

TEST(ElephantTrap, TracksHeavyFlow) {
  ElephantTrap trap(8, 2);
  for (int i = 0; i < 100; ++i) trap.access(42);
  trap.access(1);
  EXPECT_TRUE(trap.is_elephant(42));
}

TEST(ElephantTrap, SingleCacheSuffersMiceChurn) {
  // The failure mode the AFD fixes: a 16-entry single cache flooded by
  // one-packet mice loses elephants that the two-level AFD keeps.
  ElephantTrap trap(16, 16);
  AfdConfig cfg;
  cfg.afc_entries = 16;
  cfg.annex_entries = 256;
  cfg.promote_threshold = 4;
  Afd afd(cfg);
  ExactTopK truth;

  ZipfSampler zipf(50'000, 1.1);
  Rng rng(99);
  for (int i = 0; i < 300'000; ++i) {
    const std::uint64_t flow = mix64(zipf.sample(rng) + 1);
    trap.access(flow);
    afd.access(flow);
    truth.access(flow);
  }
  const auto trap_acc = score_detector(truth, trap.elephants(), 16);
  const auto afd_acc = score_detector(truth, afd.aggressive_flows(), 16);
  EXPECT_LT(afd_acc.false_positive_ratio(), trap_acc.false_positive_ratio());
}

TEST(ElephantTrap, ResetClears) {
  ElephantTrap trap(4, 2);
  trap.access(1);
  trap.reset();
  EXPECT_EQ(trap.size(), 0u);
  EXPECT_EQ(trap.accesses(), 0u);
}

// ------------------------------------------------------------ SpaceSaving ---

TEST(SpaceSaving, RejectsZeroCapacity) {
  EXPECT_THROW(SpaceSaving(0), std::invalid_argument);
}

TEST(SpaceSaving, ExactBelowCapacity) {
  SpaceSaving ss(8);
  for (int i = 0; i < 5; ++i) ss.access(1);
  for (int i = 0; i < 3; ++i) ss.access(2);
  EXPECT_EQ(ss.estimate(1), 5u);
  EXPECT_EQ(ss.estimate(2), 3u);
  const auto top = ss.top_k(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 1u);
  EXPECT_EQ(top[1].key, 2u);
}

TEST(SpaceSaving, OverestimatesNeverUnderestimates) {
  SpaceSaving ss(16);
  std::map<std::uint64_t, std::uint64_t> exact;
  ZipfSampler zipf(500, 1.2);
  Rng rng(4);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t flow = zipf.sample(rng);
    ss.access(flow);
    ++exact[flow];
  }
  for (const auto& c : ss.top_k(16)) {
    const std::uint64_t truth = exact[c.key];
    EXPECT_GE(c.count, truth) << "key " << c.key;
    EXPECT_LE(c.count - c.error, truth) << "key " << c.key;
  }
}

TEST(SpaceSaving, GuaranteedHeavyHitterIsMonitored) {
  // Space-Saving guarantee: any flow with count > N/capacity is present.
  SpaceSaving ss(10);
  constexpr int kHeavy = 5000;
  ZipfSampler zipf(1000, 1.01);
  Rng rng(6);
  for (int i = 0; i < kHeavy; ++i) ss.access(777'777);
  for (int i = 0; i < 20'000; ++i) ss.access(mix64(zipf.sample(rng)) % 997);
  for (int i = 0; i < kHeavy; ++i) ss.access(777'777);
  EXPECT_GE(ss.estimate(777'777), static_cast<std::uint64_t>(2 * kHeavy));
}

TEST(SpaceSaving, TotalCountsAllAccesses) {
  SpaceSaving ss(4);
  for (int i = 0; i < 100; ++i) ss.access(static_cast<std::uint64_t>(i));
  EXPECT_EQ(ss.total(), 100u);
  EXPECT_EQ(ss.size(), 4u);
}

TEST(SpaceSaving, ResetClears) {
  SpaceSaving ss(4);
  ss.access(1);
  ss.reset();
  EXPECT_EQ(ss.total(), 0u);
  EXPECT_EQ(ss.size(), 0u);
  EXPECT_EQ(ss.estimate(1), 0u);
}

// -------------------------------------------------------------- ExactTopK ---

TEST(ExactTopK, CountsAndRanks) {
  ExactTopK t;
  for (int i = 0; i < 5; ++i) t.access(10);
  for (int i = 0; i < 3; ++i) t.access(20);
  t.access(30);
  EXPECT_EQ(t.count(10), 5u);
  EXPECT_EQ(t.count(99), 0u);
  EXPECT_EQ(t.distinct(), 3u);
  EXPECT_EQ(t.total(), 9u);
  const auto top = t.top_k(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 10u);
  EXPECT_EQ(top[1], 20u);
}

TEST(ExactTopK, TopKLargerThanPopulation) {
  ExactTopK t;
  t.access(1);
  EXPECT_EQ(t.top_k(16).size(), 1u);
}

TEST(ExactTopK, DeterministicTieBreak) {
  ExactTopK t;
  t.access(5);
  t.access(3);
  t.access(9);
  const auto top = t.top_k(3);
  EXPECT_EQ(top, (std::vector<std::uint64_t>{3, 5, 9}));
}

TEST(ScoreDetector, CountsFalsePositives) {
  ExactTopK truth;
  for (int i = 0; i < 10; ++i) truth.access(1);
  for (int i = 0; i < 9; ++i) truth.access(2);
  truth.access(3);

  const auto acc = score_detector(truth, {1, 999}, 2);
  EXPECT_EQ(acc.claimed, 2u);
  EXPECT_EQ(acc.true_positives, 1u);
  EXPECT_EQ(acc.false_positives, 1u);
  EXPECT_DOUBLE_EQ(acc.false_positive_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(acc.recall(2), 0.5);
}

TEST(ScoreDetector, EmptyClaimIsZeroFpr) {
  ExactTopK truth;
  truth.access(1);
  const auto acc = score_detector(truth, {}, 16);
  EXPECT_DOUBLE_EQ(acc.false_positive_ratio(), 0.0);
}

}  // namespace
}  // namespace laps
