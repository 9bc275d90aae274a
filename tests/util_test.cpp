// Tests for src/util: CRC, flow tuples, RNG, samplers, histogram, flags,
// table printing, atomic file writes.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/crc.h"
#include "util/fileio.h"
#include "util/flags.h"
#include "util/flow.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/samplers.h"
#include "util/tableio.h"
#include "util/time.h"

namespace laps {
namespace {

// ---------------------------------------------------------------- CRC16 ---

TEST(Crc16, KnownVector123456789) {
  // CRC16-CCITT (0xFFFF init, "false" reflect) of "123456789" is 0x29B1.
  const std::string s = "123456789";
  const auto* data = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(crc16_ccitt({data, s.size()}), 0x29B1);
}

TEST(Crc16, EmptyInputReturnsInit) {
  EXPECT_EQ(crc16_ccitt({}, 0xFFFF), 0xFFFF);
  EXPECT_EQ(crc16_ccitt({}, 0x1234), 0x1234);
}

TEST(Crc16, SingleByteDiffersFromInit) {
  const std::uint8_t b = 0x00;
  EXPECT_NE(crc16_ccitt({&b, 1}), 0xFFFF);
}

TEST(Crc16, SensitiveToByteOrder) {
  const std::uint8_t ab[] = {0xAB, 0xCD};
  const std::uint8_t ba[] = {0xCD, 0xAB};
  EXPECT_NE(crc16_ccitt({ab, 2}), crc16_ccitt({ba, 2}));
}

TEST(Crc32, KnownVector123456789) {
  // CRC32 (IEEE) of "123456789" is 0xCBF43926.
  const std::string s = "123456789";
  const auto* data = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(crc32_ieee({data, s.size()}), 0xCBF43926u);
}

TEST(Crc16, SpreadsFlowTuplesUniformly) {
  // The reason the paper picks CRC16: hashing IP 5-tuples should spread
  // close to uniformly across buckets. Chi-squared sanity check over 16
  // buckets with 40k distinct tuples.
  constexpr int kBuckets = 16;
  constexpr int kTuples = 40'000;
  std::vector<int> hist(kBuckets, 0);
  for (int i = 0; i < kTuples; ++i) {
    FiveTuple t;
    t.src_ip = 0x0A000000u + static_cast<std::uint32_t>(i);
    t.dst_ip = 0xC0A80001u;
    t.src_port = static_cast<std::uint16_t>(1024 + i % 60000);
    t.dst_port = 443;
    t.protocol = 6;
    ++hist[t.crc16() % kBuckets];
  }
  const double expected = static_cast<double>(kTuples) / kBuckets;
  double chi2 = 0;
  for (int c : hist) chi2 += (c - expected) * (c - expected) / expected;
  // 15 dof, p=0.001 critical value is 37.7; generous margin for stability.
  EXPECT_LT(chi2, 60.0);
}

// FiveTuple::crc16() is a table form of crc16_ccitt over the 13 wire
// bytes; these differential tests hold it to the byte-serial reference.

// Pinned at compile time: the tuple of FiveTuple.WireBytesLayout, whose
// wire bytes 01 02 03 04 05 06 07 08 11 22 33 44 11 have CRC16 0x768B.
static_assert(FiveTuple{0x01020304, 0x05060708, 0x1122, 0x3344, 17}.crc16() ==
              0x768B);

FiveTuple tuple_from_wire(const std::array<std::uint8_t, 13>& b) {
  auto be = [&](int at, int n) {
    std::uint32_t v = 0;
    for (int i = 0; i < n; ++i) v = (v << 8) | b[at + i];
    return v;
  };
  return FiveTuple{be(0, 4), be(4, 4), static_cast<std::uint16_t>(be(8, 2)),
                   static_cast<std::uint16_t>(be(10, 2)), b[12]};
}

std::uint16_t reference_crc16(const FiveTuple& t) {
  return crc16_ccitt(t.wire_bytes());
}

TEST(Crc16Tuple, PinnedTupleMatchesReference) {
  const FiveTuple t{0x01020304, 0x05060708, 0x1122, 0x3344, 17};
  EXPECT_EQ(reference_crc16(t), 0x768B);
  EXPECT_EQ(t.crc16(), 0x768B);
}

TEST(Crc16Tuple, AllZeroAndAllOnesMatchReference) {
  const FiveTuple zeros{};
  const FiveTuple ones{0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFF, 0xFFFF, 0xFF};
  EXPECT_EQ(zeros.crc16(), reference_crc16(zeros));
  EXPECT_EQ(ones.crc16(), reference_crc16(ones));
}

TEST(Crc16Tuple, EverySingleBitTupleMatchesReference) {
  for (int bit = 0; bit < 13 * 8; ++bit) {
    std::array<std::uint8_t, 13> wire{};
    wire[bit / 8] = static_cast<std::uint8_t>(0x80u >> (bit % 8));
    const FiveTuple t = tuple_from_wire(wire);
    ASSERT_EQ(t.wire_bytes(), wire) << "bit " << bit;
    EXPECT_EQ(t.crc16(), reference_crc16(t)) << "bit " << bit;
  }
}

TEST(Crc16Tuple, SeededRandomTuplesMatchReference) {
  Rng rng(0xC12C16);
  for (int i = 0; i < 65'536; ++i) {
    const std::uint64_t a = rng.next();
    const std::uint64_t b = rng.next();
    const FiveTuple t{static_cast<std::uint32_t>(a),
                      static_cast<std::uint32_t>(a >> 32),
                      static_cast<std::uint16_t>(b),
                      static_cast<std::uint16_t>(b >> 16),
                      static_cast<std::uint8_t>(b >> 32)};
    ASSERT_EQ(t.crc16(), reference_crc16(t)) << t.to_string();
  }
}

TEST(Mix64, IsDeterministicAndDispersive) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // Nearby inputs should differ in many bits.
  const std::uint64_t d = mix64(1000) ^ mix64(1001);
  EXPECT_GT(std::popcount(d), 16);
}

// ------------------------------------------------------------ FiveTuple ---

TEST(FiveTuple, WireBytesLayout) {
  FiveTuple t{0x01020304, 0x05060708, 0x1122, 0x3344, 17};
  const auto bytes = t.wire_bytes();
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[3], 0x04);
  EXPECT_EQ(bytes[4], 0x05);
  EXPECT_EQ(bytes[7], 0x08);
  EXPECT_EQ(bytes[8], 0x11);
  EXPECT_EQ(bytes[9], 0x22);
  EXPECT_EQ(bytes[10], 0x33);
  EXPECT_EQ(bytes[11], 0x44);
  EXPECT_EQ(bytes[12], 17);
}

TEST(FiveTuple, EqualityAndOrdering) {
  FiveTuple a{1, 2, 3, 4, 6};
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  b.dst_port = 5;
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

TEST(FiveTuple, Key64CollisionFreeOnPopulation) {
  std::set<std::uint64_t> keys;
  constexpr int kFlows = 100'000;
  for (int i = 0; i < kFlows; ++i) {
    FiveTuple t;
    t.src_ip = 0x0A000000u + static_cast<std::uint32_t>(i);
    t.dst_ip = static_cast<std::uint32_t>(mix64(i) >> 32);
    t.src_port = static_cast<std::uint16_t>(i * 7);
    t.dst_port = 80;
    t.protocol = 6;
    keys.insert(t.key64());
  }
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(kFlows));
}

TEST(FiveTuple, ToStringFormats) {
  FiveTuple t{0xC0A80101, 0x08080808, 1234, 53, 17};
  EXPECT_EQ(t.to_string(), "192.168.1.1:1234 -> 8.8.8.8:53/17");
}

TEST(Ipv4ToString, Corners) {
  EXPECT_EQ(ipv4_to_string(0), "0.0.0.0");
  EXPECT_EQ(ipv4_to_string(0xFFFFFFFF), "255.255.255.255");
  EXPECT_EQ(ipv4_to_string(0x7F000001), "127.0.0.1");
}

// ------------------------------------------------------------------ RNG ---

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, StreamsAreIndependent) {
  Rng base(7);
  Rng s0 = base.stream(0);
  Rng s1 = base.stream(1);
  EXPECT_NE(s0.next(), s1.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, BelowIsUnbiased) {
  Rng rng(5);
  constexpr std::uint64_t n = 7;
  std::vector<int> hist(n, 0);
  for (int i = 0; i < 70'000; ++i) ++hist[rng.below(n)];
  for (std::uint64_t k = 0; k < n; ++k) {
    EXPECT_NEAR(hist[k], 10'000, 400) << "bucket " << k;
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

// ------------------------------------------------------------- Samplers ---

TEST(ZipfSampler, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 0.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler z(1000, 1.1);
  double sum = 0;
  for (std::size_t k = 0; k < z.size(); ++k) sum += z.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, PmfIsMonotoneDecreasing) {
  ZipfSampler z(100, 1.3);
  for (std::size_t k = 1; k < z.size(); ++k) {
    EXPECT_LE(z.pmf(k), z.pmf(k - 1)) << "rank " << k;
  }
}

TEST(ZipfSampler, EmpiricalMatchesPmfAtHead) {
  ZipfSampler z(10'000, 1.2);
  Rng rng(42);
  constexpr int kDraws = 200'000;
  std::vector<int> hist(16, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::size_t r = z.sample(rng);
    if (r < hist.size()) ++hist[r];
  }
  for (std::size_t k = 0; k < hist.size(); ++k) {
    const double expected = z.pmf(k) * kDraws;
    EXPECT_NEAR(hist[k], expected, 5 * std::sqrt(expected) + 5)
        << "rank " << k;
  }
}

TEST(ZipfSampler, HigherAlphaConcentratesHead) {
  Rng rng1(1), rng2(1);
  ZipfSampler flat(10'000, 1.0), steep(10'000, 1.6);
  int head_flat = 0, head_steep = 0;
  for (int i = 0; i < 50'000; ++i) {
    head_flat += flat.sample(rng1) < 16;
    head_steep += steep.sample(rng2) < 16;
  }
  EXPECT_GT(head_steep, head_flat);
}

// The guided search against the plain one it replaces: std::lower_bound
// over the whole CDF. Probed where a bracket could be off by one (every
// guide edge j/G and the doubles either side of it), at both ends of
// Rng::uniform()'s range, and on a million seeded draws, for sizes from a
// single rank to a caida-sized population.
std::size_t full_search(const ZipfSampler& z, double u) {
  const std::vector<double>& cdf = z.cdf();
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

TEST(ZipfRank, MatchesFullSearchAtGuideEdgesEndsAndSeededDraws) {
  const double last_uniform = 1.0 - 0x1.0p-53;  // largest Rng::uniform()
  for (const std::size_t n : {1u, 2u, 3u, 17u, 1000u, 300'000u}) {
    for (const double alpha : {1.02, 1.3}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " alpha=" +
                   std::to_string(alpha));
      const ZipfSampler z(n, alpha);
      const std::size_t slices = z.guide_slices();
      ASSERT_EQ(slices & (slices - 1), 0u);  // a power of two
      ASSERT_EQ(z.cdf().back(), 1.0);
      for (std::size_t j = 0; j <= slices; ++j) {
        const double edge = static_cast<double>(j) / slices;
        for (const double u : {std::nextafter(edge, 0.0), edge,
                               std::nextafter(edge, 1.0)}) {
          if (u < 0.0 || u > last_uniform) continue;
          ASSERT_EQ(z.rank(u), full_search(z, u)) << "u=" << u << " j=" << j;
        }
      }
      for (const double u : {0.0, last_uniform}) {
        ASSERT_EQ(z.rank(u), full_search(z, u)) << "u=" << u;
      }
      Rng rng(mix64(n) ^ 0x5EED);
      Rng same(mix64(n) ^ 0x5EED);
      for (int i = 0; i < 1'000'000; ++i) {
        const double u = same.uniform();
        ASSERT_EQ(z.sample(rng), full_search(z, u)) << "draw " << i;
      }
    }
  }
}

TEST(Exponential, MeanMatchesRate) {
  Rng rng(3);
  const double rate = 4.0;
  double sum = 0;
  for (int i = 0; i < 100'000; ++i) sum += sample_exponential(rng, rate);
  EXPECT_NEAR(sum / 100'000, 1.0 / rate, 0.01);
}

TEST(Exponential, RejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(sample_exponential(rng, 0.0), std::invalid_argument);
  EXPECT_THROW(sample_exponential(rng, -1.0), std::invalid_argument);
}

TEST(BoundedPareto, StaysInBounds) {
  Rng rng(8);
  for (int i = 0; i < 10'000; ++i) {
    const double x = sample_bounded_pareto(rng, 1.2, 1.0, 1000.0);
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 1000.0);
  }
}

TEST(BoundedPareto, RejectsBadParameters) {
  Rng rng(8);
  EXPECT_THROW(sample_bounded_pareto(rng, 0, 1, 10), std::invalid_argument);
  EXPECT_THROW(sample_bounded_pareto(rng, 1, 0, 10), std::invalid_argument);
  EXPECT_THROW(sample_bounded_pareto(rng, 1, 10, 5), std::invalid_argument);
}

TEST(Gaussian, MeanZeroAndSigma) {
  Rng rng(21);
  double sum = 0, sq = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = sample_gaussian(rng, 2.0);
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(std::sqrt(sq / kN), 2.0, 0.03);
}

TEST(DiscreteSampler, RejectsBadWeights) {
  EXPECT_THROW(DiscreteSampler({}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({1.0, -0.5}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), std::invalid_argument);
}

TEST(DiscreteSampler, MatchesWeights) {
  DiscreteSampler d({0.5, 0.25, 0.25});
  Rng rng(77);
  std::vector<int> hist(3, 0);
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) ++hist[d.sample(rng)];
  EXPECT_NEAR(hist[0] / static_cast<double>(kN), 0.50, 0.01);
  EXPECT_NEAR(hist[1] / static_cast<double>(kN), 0.25, 0.01);
  EXPECT_NEAR(hist[2] / static_cast<double>(kN), 0.25, 0.01);
}

TEST(DiscreteSampler, SingleOutcome) {
  DiscreteSampler d({3.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 0u);
}

TEST(DiscreteSampler, ZeroWeightNeverSampled) {
  DiscreteSampler d({1.0, 0.0, 1.0});
  Rng rng(2);
  for (int i = 0; i < 10'000; ++i) EXPECT_NE(d.sample(rng), 1u);
}

// ------------------------------------------------------------ Histogram ---

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.quantile(0.5), 0);
}

TEST(Histogram, ExactForSmallValues) {
  Histogram h;
  for (int i = 0; i < 32; ++i) h.record(i);
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.max(), 31);
  EXPECT_EQ(h.quantile(1.0), 31);
  EXPECT_EQ(h.quantile(0.0), 0);
}

TEST(Histogram, QuantilesWithinRelativeError) {
  Histogram h;
  for (int i = 1; i <= 100'000; ++i) h.record(i);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 50'000, 50'000 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 99'000, 99'000 * 0.04);
  EXPECT_EQ(h.max(), 100'000);
  EXPECT_NEAR(h.mean(), 50'000.5, 0.1);
}

TEST(Histogram, QuantileErrorStaysWithinBucketBound) {
  // Pins the advertised <= 1/32 relative error of bucket-bound quantiles
  // against a ground-truth sorted sample set (deterministic LCG draw).
  Histogram h;
  std::vector<std::int64_t> values;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::int64_t v = static_cast<std::int64_t>((x >> 33) % 1'000'000'000) + 1000;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    // Mirror Histogram::quantile's rank: target = max(1, floor(q * count)).
    std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(values.size()));
    if (target == 0) target = 1;
    const std::int64_t truth = values[target - 1];
    const std::int64_t approx = h.quantile(q);
    EXPECT_GE(approx, truth) << "q=" << q;
    EXPECT_LE(approx - truth, truth / 32) << "q=" << q;
  }
}

TEST(Histogram, NegativeClampedToZero) {
  Histogram h;
  h.record(-100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_EQ(a.sum(), 1010);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.record(5);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, SummaryMentionsCount) {
  Histogram h;
  h.record(42);
  EXPECT_NE(h.summary().find("count=1"), std::string::npos);
}

TEST(Histogram, BucketsEmptyHistogram) {
  Histogram h;
  EXPECT_TRUE(h.buckets().empty());
}

TEST(Histogram, BucketsSingleSample) {
  Histogram h;
  h.record(42);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].count, 1u);
  // The sample must fall inside its bucket: upper bound at or above it,
  // and within the documented 1/32 relative bucket error.
  EXPECT_GE(buckets[0].upper_bound, 42);
  EXPECT_LE(buckets[0].upper_bound, 42 + 42 / 32 + 1);
}

TEST(Histogram, BucketsSumToCountAndStaySorted) {
  Histogram h;
  for (int i = 1; i <= 10'000; ++i) h.record(i * 7);
  const auto buckets = h.buckets();
  std::uint64_t total = 0;
  std::int64_t prev = -1;
  for (const auto& b : buckets) {
    EXPECT_GT(b.upper_bound, prev);
    prev = b.upper_bound;
    total += b.count;
  }
  EXPECT_EQ(total, h.count());
}

TEST(Histogram, BucketsAfterMerge) {
  Histogram a, b;
  a.record(10);
  a.record(10);
  b.record(10);
  b.record(5'000);
  a.merge(b);
  const auto buckets = a.buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].upper_bound, 10);  // exact low range
  EXPECT_EQ(buckets[0].count, 3u);        // 2 from a + 1 from b
  EXPECT_EQ(buckets[1].count, 1u);
  EXPECT_GE(buckets[1].upper_bound, 5'000);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  const std::int64_t big = 3'000'000'000'000LL;  // ~50 min in ns
  h.record(big);
  EXPECT_EQ(h.max(), big);
  const double q = static_cast<double>(h.quantile(1.0));
  EXPECT_NEAR(q, static_cast<double>(big), static_cast<double>(big) * 0.04);
}

// ---------------------------------------------------------------- Flags ---

// No binary reads an argument that is not a flag, so finish() names each
// one: a bare `seconds=0.5` must not leave the default horizon in force.
TEST(Flags, ParsesForms) {
  const char* argv[] = {"prog",      "--seconds=2.5", "--full",
                        "--cores=8", "seconds=0.5",   "-jobs=4"};
  Flags f(6, argv);
  EXPECT_DOUBLE_EQ(f.get_double("seconds", 1.0), 2.5);
  EXPECT_TRUE(f.get_bool("full", false));
  EXPECT_EQ(f.get_int("cores", 16), 8);
  try {
    f.finish();
    ADD_FAILURE() << "stray arguments were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "stray argument(s): 'seconds=0.5', '-jobs=4'; flags take "
                 "the form --name=value");
  }
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags f(1, argv);
  EXPECT_EQ(f.get_string("trace", "caida1"), "caida1");
  EXPECT_EQ(f.get_int("k", 16), 16);
  EXPECT_FALSE(f.get_bool("full", false));
  f.finish();
}

TEST(Flags, FinishRejectsUnknown) {
  const char* argv[] = {"prog", "--tpyo=1"};
  Flags f(2, argv);
  EXPECT_THROW(f.finish(), std::runtime_error);
}

TEST(Flags, BoolExplicitValues) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=true", "--d=1"};
  Flags f(5, argv);
  EXPECT_FALSE(f.get_bool("a", true));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_TRUE(f.get_bool("d", false));
  f.finish();
}

TEST(Flags, HexIntegers) {
  const char* argv[] = {"prog", "--seed=0xff"};
  Flags f(2, argv);
  EXPECT_EQ(f.get_int("seed", 0), 255);
  f.finish();
}

// Reading `--jobs=<value>` with `get` must throw std::invalid_argument that
// names the flag and quotes the value, instead of running a different
// experiment.
void expect_rejected(const std::string& value, const std::string& expected,
                     const std::function<void(Flags&)>& get) {
  const std::string arg = "--jobs=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  Flags f(2, argv);
  try {
    get(f);
    ADD_FAILURE() << arg << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(),
              "--jobs: expected " + expected + ", got '" + value + "'");
  }
}

TEST(Flags, MalformedIntegersAreRejected) {
  for (const char* value :
       {"two", "", "5x", " 5", "0x", "1e6", "99999999999999999999"}) {
    expect_rejected(value, "an integer",
                    [](Flags& f) { f.get_int("jobs", 1); });
  }
}

TEST(Flags, UintRejectsNegativeValues) {
  for (const char* value : {"-1", "-0x10", "eight"}) {
    expect_rejected(value, "a non-negative integer",
                    [](Flags& f) { f.get_uint("jobs", 1); });
  }
  const char* argv[] = {"prog", "--a=0", "--b=0x10", "--c=12"};
  Flags f(4, argv);
  EXPECT_EQ(f.get_uint("a", 5), 0u);
  EXPECT_EQ(f.get_uint("b", 5), 16u);
  EXPECT_EQ(f.get_uint("c", 5), 12u);
  EXPECT_EQ(f.get_uint("absent", 5), 5u);
  f.finish();
}

TEST(Flags, MalformedAndNonFiniteDoublesAreRejected) {
  for (const char* value :
       {"0.002x", "1O", "", " 1", "abc", "inf", "-inf", "nan", "1e999"}) {
    expect_rejected(value, "a finite number",
                    [](Flags& f) { f.get_double("jobs", 1.0); });
  }
  const char* argv[] = {"prog", "--a=10.0", "--b=.5", "--c=2e-3", "--d=-1"};
  Flags f(5, argv);
  EXPECT_DOUBLE_EQ(f.get_double("a", 0), 10.0);
  EXPECT_DOUBLE_EQ(f.get_double("b", 0), 0.5);
  EXPECT_DOUBLE_EQ(f.get_double("c", 0), 0.002);
  EXPECT_DOUBLE_EQ(f.get_double("d", 0), -1.0);
  f.finish();
}

TEST(Flags, BoolRejectsUnknownSpellings) {
  for (const char* value : {"yse", "2", "TRUE", "n"}) {
    expect_rejected(value, "true/false, 1/0, yes/no or on/off",
                    [](Flags& f) { f.get_bool("jobs", false); });
  }
  const char* argv[] = {"prog", "--a=yes", "--b=no", "--c=on", "--d=off"};
  Flags f(5, argv);
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
  f.finish();
}

TEST(Flags, ListExpandsAllKeepsOrderAndRejectsUnknownNames) {
  const std::vector<std::string> valid = {"T1", "T2", "T5"};
  const char* argv[] = {"prog", "--a=T5,,T1", "--b=all", "--c=T1,T9",
                        "--d=", "--e=,"};
  Flags f(6, argv);
  EXPECT_EQ(f.get_list("a", "T1", valid),
            (std::vector<std::string>{"T5", "T1"}));
  EXPECT_EQ(f.get_list("b", "T1", valid), valid);
  EXPECT_EQ(f.get_list("absent", "T2,T1", valid),
            (std::vector<std::string>{"T2", "T1"}));
  try {
    f.get_list("c", "T1", valid);
    ADD_FAILURE() << "an unknown name was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--c: unknown value 'T9'; valid: T1 T2 T5 (or all)");
  }
  // A list that names nothing would run an empty grid.
  for (const char* name : {"d", "e"}) {
    try {
      f.get_list(name, "T1", valid);
      ADD_FAILURE() << "--" << name << " named nothing and was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), std::string("--") + name +
                              ": empty list; valid: T1 T2 T5 (or all)");
    }
  }
  f.finish();
}

// A repeated flag would keep only one of its values: `--scenarios=T1
// --scenarios=T5` ran T5 alone. Every spelling of a repeat is refused,
// naming the flag, before any getter runs.
TEST(Flags, RepeatedFlagIsRejectedByName) {
  const std::vector<std::vector<const char*>> repeats = {
      {"prog", "--scenarios=T1", "--scenarios=T5"},
      {"prog", "--jobs=1", "--seconds=2", "--jobs=3"},
      {"prog", "--flight-dump", "--flight-dump=false"},
      {"prog", "--resume", "--resume"},
  };
  for (const auto& argv : repeats) {
    const std::string name =
        std::string(argv.back()).substr(0, std::string(argv.back()).find('='));
    try {
      Flags f(static_cast<int>(argv.size()), argv.data());
      ADD_FAILURE() << name << " was accepted twice";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), name + " given more than once; give it once");
    }
  }
  // Distinct flags parse; an argument equal to a flag's value is no flag,
  // and finish() names it.
  const char* argv[] = {"prog", "--scenarios=T1", "--scheduler=laps", "T1"};
  Flags f(4, argv);
  EXPECT_EQ(f.get_string("scenarios", ""), "T1");
  EXPECT_EQ(f.get_string("scheduler", ""), "laps");
  try {
    f.finish();
    ADD_FAILURE() << "stray argument T1 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "stray argument(s): 'T1'; flags take the form --name=value");
  }
}

// ---------------------------------------------------------------- Table ---

TEST(Table, RejectsEmptyHeadersAndBadRows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(1234567)), "1,234,567");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(-1234)), "-1,234");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(999)), "999");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

// ----------------------------------------------------------------- Time ---

TEST(Time, Conversions) {
  EXPECT_EQ(from_us(1.0), 1'000);
  EXPECT_EQ(from_us(0.5), 500);
  EXPECT_EQ(from_us(3.53), 3'530);
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_us(1'500), 1.5);
}

// --------------------------------------------------------------- FileIo ---

// A writer killed mid-write leaves `<path>.tmp.<pid>.<n>` behind. The next
// write of that path removes it once the pid is gone, and leaves alone a
// temp whose writer is alive and the temps of other paths.
TEST(WriteFileAtomic, RemovesTempsOfDeadWritersOnly) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("laps_fileio_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);  // reaped: its pid is dead

  const std::string path = (dir / "artifact.json").string();
  const std::string dead = path + ".tmp." + std::to_string(child) + ".0";
  // A sequence number this process's own write will not reach.
  const std::string live =
      path + ".tmp." + std::to_string(::getpid()) + ".999999";
  const std::string other =
      (dir / "other.json.tmp.").string() + std::to_string(child) + ".0";
  for (const std::string& temp : {dead, live, other}) {
    std::ofstream(temp) << "partial";
  }
  util::write_file_atomic(path, "whole", "test artifact");

  EXPECT_FALSE(fs::exists(dead)) << "temp of a dead writer stayed";
  EXPECT_TRUE(fs::exists(live)) << "temp of a live writer was removed";
  EXPECT_TRUE(fs::exists(other)) << "temp of another path was removed";
  std::ostringstream written;
  written << std::ifstream(path).rdbuf();
  EXPECT_EQ(written.str(), "whole");
  fs::remove_all(dir);
}

// Appended pieces land in order on commit; a writer dropped before commit
// (an exception mid-render) leaves neither its temp nor the destination.
TEST(AtomicFileWriter, CommitsAppendsAndDropsUncommittedTemps) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("laps_appender_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "out.jsonl").string();
  const std::string big(3 << 20, 'x');  // many stdio buffers' worth
  {
    util::AtomicFileWriter out(path, "test artifact");
    out.append("a\n");
    out.append(big);
    out.append("b\n");
    out.commit();
  }
  std::ostringstream written;
  written << std::ifstream(path).rdbuf();
  EXPECT_EQ(written.str(), "a\n" + big + "b\n");

  const std::string dropped = (dir / "dropped.json").string();
  {
    util::AtomicFileWriter out(dropped, "test artifact");
    out.append("partial");
  }
  EXPECT_FALSE(fs::exists(dropped));
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "a temp was left behind";
  fs::remove_all(dir);
}

// A missing directory fails the up-front check with the flag's name, and
// the writer's own open error names the destination, not its temp.
TEST(WriteFileAtomic, UnwritableDirectoryIsNamedBeforeAndAtOpen) {
  const std::string path = "/no/such/dir/x.json";
  try {
    util::require_writable_dir("--json", path);
    ADD_FAILURE() << "a missing directory passed the check";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("--json: cannot write '/no/such/dir/x.json': "
                         "directory '/no/such/dir'",
                         0),
              0u)
        << what;
  }
  EXPECT_NO_THROW(util::require_writable_dir(
      "--json", (std::filesystem::temp_directory_path() / "x.json").string()));
  EXPECT_NO_THROW(util::require_writable_dir("--json", "relative.json"));
  try {
    util::write_file_atomic(path, "x", "JSON artifact");
    ADD_FAILURE() << "a write into a missing directory succeeded";
  } catch (const util::IoError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(std::string(e.what()).find(".tmp."), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace laps
