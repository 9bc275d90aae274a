// Tests for src/traffic: Holt-Winters rate model (Eq. 1 / Table IV), the
// processing-delay model (Eqs. 3-5 / Table III), the multi-service packet
// generator, and the generator golden (tests/golden/generator_digest.tsv).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scenarios.h"
#include "trace/synthetic.h"
#include "traffic/generator.h"
#include "traffic/holt_winters.h"
#include "traffic/workload.h"
#include "util/crc.h"
#include "util/rng.h"

#ifndef LAPS_SOURCE_DIR
#error "LAPS_SOURCE_DIR must be defined to locate tests/golden/"
#endif

namespace laps {
namespace {

// ----------------------------------------------------------- HoltWinters ---

TEST(HoltWinters, Table4HasBothSets) {
  const auto set1 = table4_params(1);
  const auto set2 = table4_params(2);
  ASSERT_EQ(set1.size(), kNumServices);
  ASSERT_EQ(set2.size(), kNumServices);
  EXPECT_DOUBLE_EQ(set1[0].a, 1.0);
  EXPECT_DOUBLE_EQ(set1[1].a, 1.8);
  EXPECT_DOUBLE_EQ(set2[0].a, 1.5);
  EXPECT_DOUBLE_EQ(set2[3].m, 200.0);
  EXPECT_THROW(table4_params(3), std::invalid_argument);
}

TEST(HoltWinters, MeanRateFollowsComponents) {
  HoltWintersParams p{2.0, 0.1, 0.0, 10.0, 0.0};
  HoltWintersRate rate(p, 1);
  EXPECT_DOUBLE_EQ(rate.mean_rate_mpps(0.0), 2.0);
  EXPECT_DOUBLE_EQ(rate.mean_rate_mpps(10.0), 3.0);  // +b*t
}

TEST(HoltWinters, SeasonalComponentIsPeriodic) {
  HoltWintersParams p{1.0, 0.0, 0.5, 4.0, 0.0};
  HoltWintersRate rate(p, 1);
  for (double t : {0.3, 1.1, 2.7}) {
    EXPECT_NEAR(rate.mean_rate_mpps(t), rate.mean_rate_mpps(t + 4.0), 1e-9);
    EXPECT_NEAR(rate.mean_rate_mpps(t), rate.mean_rate_mpps(t + 8.0), 1e-9);
  }
  // Peak at quarter period.
  EXPECT_NEAR(rate.mean_rate_mpps(1.0), 1.5, 1e-9);
}

TEST(HoltWinters, NoiseIsDeterministicPureFunction) {
  HoltWintersParams p{1.0, 0.0, 0.0, 10.0, 0.3};
  HoltWintersRate a(p, 42), b(p, 42);
  for (double t : {0.0, 0.05, 1.23, 17.7}) {
    EXPECT_DOUBLE_EQ(a.rate_mpps(t), b.rate_mpps(t));
  }
  HoltWintersRate c(p, 43);
  EXPECT_NE(a.rate_mpps(1.23), c.rate_mpps(1.23));
}

TEST(HoltWinters, NoisePiecewiseConstantWithinInterval) {
  HoltWintersParams p{1.0, 0.0, 0.0, 10.0, 0.5};
  HoltWintersRate rate(p, 7, /*noise_interval=*/0.1);
  EXPECT_DOUBLE_EQ(rate.rate_mpps(0.51), rate.rate_mpps(0.59));
  // Across interval boundaries the noise redraws (almost surely different).
  EXPECT_NE(rate.rate_mpps(0.59), rate.rate_mpps(0.61));
}

// The generator reads each curve's noise through one NoiseMemo. Evaluated
// at times shuffled across 30 noise intervals (so the memo is re-keyed
// backwards as well as forwards, and on both sides of every boundary), the
// memo must give a fresh curve's value at every point, bit for bit.
TEST(HoltWintersNoiseMemo, ShuffledTimesMatchAFreshCurve) {
  std::vector<double> times;
  Rng rng(2013);
  for (int i = 0; i < 3000; ++i) times.push_back(3.0 * rng.uniform());
  for (int k = 0; k <= 30; ++k) {
    const double boundary = 0.1 * k;
    times.push_back(boundary);
    times.push_back(std::nextafter(boundary, 0.0));
    times.push_back(std::nextafter(boundary, 4.0));
  }
  std::shuffle(times.begin(), times.end(), rng);
  for (int set : {1, 2}) {
    for (const HoltWintersParams& p : table4_params(set)) {
      const HoltWintersRate curve(p, 77);
      HoltWintersRate::NoiseMemo memo;
      for (const double t : times) {
        ASSERT_EQ(curve.rate_mpps(t, memo), HoltWintersRate(p, 77).rate_mpps(t))
            << "set " << set << " t=" << t;
      }
    }
  }
}

// accepts() decides `u < rate_mpps(t, memo) / bound` from the curve's
// bounds and evaluates the curve only inside their band. It must agree
// with the quotient everywhere: at random (t, u), and at u on the exact
// quotient and one or two ulps either side, where only the squeeze's margin
// keeps the band's edges exact. The times include every seasonal peak and
// trough, where the rate sits on the band's edge. Curves: every Table IV
// curve scaled by 0.05 to 1.4, with and without its seasonal term (without
// it the band is one value wide), the flat single-service curve, and curves
// that sit at floor_mpps always, at times, or by the inner clamp alone.
TEST(HoltWintersSqueeze, AcceptsEqualsTheQuotientDecision) {
  std::vector<HoltWintersParams> curves;
  for (int set : {1, 2}) {
    for (const HoltWintersParams& p : table4_params(set)) {
      for (const double k : {0.05, 0.1, 0.25, 0.5, 0.8, 1.0, 1.2, 1.4}) {
        HoltWintersParams scaled{k * p.a, k * p.b, k * p.c, p.m, k * p.sigma};
        curves.push_back(scaled);
        scaled.c = 0.0;
        curves.push_back(scaled);
      }
    }
  }
  for (const double k : {0.05, 0.3, 1.0, 1.4}) {
    curves.push_back({k, 0.0, 0.0, 60.0, 0.0});  // make_single_service_scenario
  }
  curves.push_back({0.005, 0.0, 0.002, 1.0, 0.0});  // always at the floor
  curves.push_back({0.02, 0.0, 0.05, 2.0, 0.01});   // below it each trough
  curves.push_back({0.5, -0.02, 0.3, 7.0, 0.2});    // trend falls below it
  curves.push_back({-0.5, 0.0, 0.2, 3.0, 0.6});     // a + |C| < floor

  constexpr double kHorizon = 60.0;
  Rng rng(36);
  std::uint64_t decisions = 0;
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const HoltWintersParams& p = curves[i];
    SCOPED_TRACE("curve " + std::to_string(i) + " a=" + std::to_string(p.a) +
                 " c=" + std::to_string(p.c));
    const HoltWintersRate curve(p, mix64(i + 1));
    const double bound = curve.rate_bound_mpps(kHorizon);
    ASSERT_GT(bound, 0.0);
    std::vector<double> times;
    for (double peak = p.m / 4; peak < kHorizon; peak += p.m / 2) {
      times.push_back(peak);
    }
    for (int n = 0; n < 4000; ++n) times.push_back(kHorizon * rng.uniform());
    HoltWintersRate::NoiseMemo memo;
    for (const double t : times) {
      const double rate = curve.rate_mpps(t);
      std::vector<double> probes = {rng.uniform(), rate / bound};
      double below = probes.back();
      double above = probes.back();
      for (int ulps = 1; ulps <= 2; ++ulps) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, 2.0);
        probes.push_back(below);
        probes.push_back(above);
      }
      for (const double u : probes) {
        ASSERT_EQ(curve.accepts(t, u, bound, memo), u < rate / bound)
            << "t=" << t << " u=" << u;
        ++decisions;
      }
    }
  }
  EXPECT_GT(decisions, 3'000'000u);
}

TEST(HoltWinters, RateNeverBelowFloor) {
  HoltWintersParams p{0.0, -1.0, 0.0, 10.0, 0.0};  // strongly negative trend
  HoltWintersRate rate(p, 1);
  EXPECT_GE(rate.rate_mpps(100.0), HoltWintersRate::floor_mpps);
}

TEST(HoltWinters, BoundDominatesRate) {
  for (int set : {1, 2}) {
    for (const auto& p : table4_params(set)) {
      HoltWintersRate rate(p, 3);
      const double bound = rate.rate_bound_mpps(60.0);
      for (double t = 0; t < 60.0; t += 0.37) {
        ASSERT_LE(rate.rate_mpps(t), bound) << "set " << set << " t=" << t;
      }
    }
  }
}

TEST(HoltWinters, RejectsBadConstruction) {
  HoltWintersParams p;
  EXPECT_THROW(HoltWintersRate(p, 1, 0.0), std::invalid_argument);
  p.m = 0.0;
  EXPECT_THROW(HoltWintersRate(p, 1), std::invalid_argument);
}

// ------------------------------------------------------------ DelayModel ---

TEST(DelayModel, PaperConstants) {
  DelayModel d;
  // Path 2 (IP forwarding): 0.5 us flat.
  EXPECT_EQ(d.proc_time(ServicePath::kIpForward, 64), from_us(0.5));
  EXPECT_EQ(d.proc_time(ServicePath::kIpForward, 1500), from_us(0.5));
  // Path 3 (scan): 3.53 us flat.
  EXPECT_EQ(d.proc_time(ServicePath::kMalwareScan, 64), from_us(3.53));
  // Path 1 (Eq. 4): 3.7 + (size/64)*0.23 us.
  EXPECT_EQ(d.proc_time(ServicePath::kVpnOut, 64), from_us(3.7 + 0.23));
  EXPECT_EQ(d.proc_time(ServicePath::kVpnOut, 640), from_us(3.7 + 2.3));
  // Path 4 (Eq. 5): 5.8 + (size/64)*0.21 us.
  EXPECT_EQ(d.proc_time(ServicePath::kVpnInScan, 128), from_us(5.8 + 0.42));
}

TEST(DelayModel, PenaltiesAreAdditive) {
  DelayModel d;
  const TimeNs base = d.proc_time(ServicePath::kIpForward, 64);
  EXPECT_EQ(d.packet_delay(ServicePath::kIpForward, 64, false, false), base);
  EXPECT_EQ(d.packet_delay(ServicePath::kIpForward, 64, true, false),
            base + from_us(0.8));
  EXPECT_EQ(d.packet_delay(ServicePath::kIpForward, 64, false, true),
            base + from_us(10.0));
  EXPECT_EQ(d.packet_delay(ServicePath::kIpForward, 64, true, true),
            base + from_us(10.8));
}

TEST(DelayModel, MeanProcTimeWeightsSizes) {
  DelayModel d;
  const double mean =
      d.mean_proc_time_us(ServicePath::kVpnOut, {64, 128}, {0.5, 0.5});
  EXPECT_NEAR(mean, 0.5 * (3.7 + 0.23) + 0.5 * (3.7 + 0.46), 1e-6);
  EXPECT_THROW(d.mean_proc_time_us(ServicePath::kVpnOut, {64}, {0.5, 0.5}),
               std::invalid_argument);
}

TEST(ServiceName, AllPathsNamed) {
  std::set<std::string> names;
  for (std::size_t s = 0; s < kNumServices; ++s) {
    names.insert(service_name(static_cast<ServicePath>(s)));
  }
  EXPECT_EQ(names.size(), kNumServices);
}

// -------------------------------------------------------- PacketGenerator ---

std::vector<ServiceTraffic> one_service(double mpps, double seconds_unused = 0) {
  static_cast<void>(seconds_unused);
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{mpps, 0.0, 0.0, 10.0, 0.0};
  SyntheticTraceSpec spec;
  spec.num_flows = 1000;
  spec.seed = 3;
  s.trace = std::make_shared<SyntheticTrace>(spec);
  return {s};
}

TEST(PacketGenerator, RejectsBadInput) {
  EXPECT_THROW(PacketGenerator({}, 1, 1.0), std::invalid_argument);
  auto services = one_service(1.0);
  EXPECT_THROW(PacketGenerator(services, 1, 0.0), std::invalid_argument);
  services[0].trace = nullptr;
  EXPECT_THROW(PacketGenerator(services, 1, 1.0), std::invalid_argument);
}

TEST(PacketGenerator, TimesAreNondecreasingAndBounded) {
  PacketGenerator gen(one_service(0.5), 7, 0.01);
  TimeNs prev = 0;
  int n = 0;
  while (const auto pkt = gen.next()) {
    ASSERT_GE(pkt->time, prev);
    ASSERT_LE(pkt->time, from_seconds(0.01));
    prev = pkt->time;
    ++n;
  }
  EXPECT_GT(n, 0);
}

TEST(PacketGenerator, RateMatchesPoissonMean) {
  // 2 Mpps over 20 ms -> expected 40k packets, sd ~200.
  PacketGenerator gen(one_service(2.0), 11, 0.02);
  int n = 0;
  while (gen.next()) ++n;
  EXPECT_NEAR(n, 40'000, 1'200);
}

TEST(PacketGenerator, DeterministicForSeed) {
  PacketGenerator a(one_service(1.0), 5, 0.005);
  PacketGenerator b(one_service(1.0), 5, 0.005);
  while (true) {
    const auto pa = a.next();
    const auto pb = b.next();
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (!pa) break;
    ASSERT_EQ(pa->time, pb->time);
    ASSERT_EQ(pa->gflow, pb->gflow);
  }
}

TEST(PacketGenerator, SeedChangesArrivals) {
  PacketGenerator a(one_service(1.0), 5, 0.002);
  PacketGenerator b(one_service(1.0), 6, 0.002);
  const auto pa = a.next();
  const auto pb = b.next();
  ASSERT_TRUE(pa && pb);
  EXPECT_NE(pa->time, pb->time);
}

TEST(PacketGenerator, MultiServiceGlobalFlowsDisjoint) {
  std::vector<ServiceTraffic> services;
  for (int i = 0; i < 4; ++i) {
    ServiceTraffic s;
    s.path = static_cast<ServicePath>(i);
    s.rate = HoltWintersParams{0.5, 0.0, 0.0, 10.0, 0.0};
    SyntheticTraceSpec spec;
    spec.num_flows = 100;
    spec.seed = 50 + static_cast<std::uint64_t>(i);
    s.trace = std::make_shared<SyntheticTrace>(spec);
    services.push_back(std::move(s));
  }
  PacketGenerator gen(services, 8, 0.01);
  EXPECT_EQ(gen.total_flows(), 400u);

  std::vector<std::set<std::uint32_t>> flows(4);
  while (const auto pkt = gen.next()) {
    flows[static_cast<std::size_t>(pkt->service)].insert(pkt->gflow);
  }
  // Each service's gflow range is its own 100-wide window.
  for (int i = 0; i < 4; ++i) {
    ASSERT_FALSE(flows[i].empty()) << "service " << i;
    EXPECT_GE(*flows[i].begin(), static_cast<std::uint32_t>(i * 100));
    EXPECT_LT(*flows[i].rbegin(), static_cast<std::uint32_t>((i + 1) * 100));
  }
}

// Hint-less traces (every registry trace churns) get global flow ids in
// order of first appearance from one pool shared by all services. Checked
// packet by packet against a std::map keyed by (service, local id).
TEST(GeneratorFlowIds, ChurnedServicesMatchFirstAppearanceReference) {
  std::vector<ServiceTraffic> services;
  const auto params = table4_params(1);
  for (int i = 0; i < 4; ++i) {
    ServiceTraffic s;
    s.path = static_cast<ServicePath>(i);
    s.rate = params[i];
    SyntheticTraceSpec spec;
    spec.num_flows = 2000;
    spec.churn_per_packet = 0.1;
    spec.seed = 90 + static_cast<std::uint64_t>(i);
    s.trace = std::make_shared<SyntheticTrace>(spec);
    ASSERT_EQ(s.trace->flow_count_hint(), 0u);
    services.push_back(std::move(s));
  }
  PacketGenerator gen(services, 5, 0.02);
  std::map<std::pair<ServicePath, std::uint32_t>, std::uint32_t> reference;
  std::size_t packets = 0;
  while (const auto pkt = gen.next()) {
    const auto key = std::make_pair(pkt->service, pkt->record.flow_id);
    const auto next = static_cast<std::uint32_t>(reference.size());
    const std::uint32_t expected = reference.emplace(key, next).first->second;
    ASSERT_EQ(pkt->gflow, expected) << "packet " << packets;
    ++packets;
  }
  EXPECT_GT(packets, 10'000u);
  EXPECT_GT(reference.size(), 2'000u);  // churn made new flows
  EXPECT_EQ(gen.total_flows(), reference.size());
}

TEST(PacketGenerator, WrapsFiniteTraces) {
  // A tiny 3-packet pcap-like vector trace, wrapped many times.
  class TinyTrace final : public TraceSource {
   public:
    std::optional<PacketRecord> next() override {
      if (i_ == 3) return std::nullopt;
      PacketRecord rec;
      rec.flow_id = i_++;
      rec.tuple.src_ip = rec.flow_id + 1;
      return rec;
    }
    void reset() override { i_ = 0; }
    std::size_t flow_count_hint() const override { return 3; }
    std::string name() const override { return "tiny"; }

   private:
    std::uint32_t i_ = 0;
  };
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{1.0, 0.0, 0.0, 10.0, 0.0};
  s.trace = std::make_shared<TinyTrace>();
  PacketGenerator gen({s}, 2, 0.001);
  int n = 0;
  while (const auto pkt = gen.next()) {
    ASSERT_LT(pkt->gflow, 3u);
    ++n;
  }
  EXPECT_GT(n, 100);  // ~1000 expected; the trace wrapped repeatedly
}

// ---------------------------------------------------- Load calibration ---

TEST(LoadCalibration, OfferedLoadMatchesHandComputation) {
  // One service, 1 Mpps flat, all 64 B packets on IP forwarding (0.5 us):
  // 1e6 pkt/s * 0.5e-6 s = 0.5 core-equivalents; on 16 cores -> 0.03125.
  auto services = one_service(1.0);
  auto spec = SyntheticTraceSpec{};
  spec.num_flows = 100;
  spec.size_bytes = {64};
  spec.size_weights = {1.0};
  services[0].trace = std::make_shared<SyntheticTrace>(spec);
  DelayModel delay;
  EXPECT_NEAR(mean_offered_load(services, delay, 16, 1.0), 0.5 / 16.0, 1e-6);
}

TEST(LoadCalibration, ScaleToLoadHitsTarget) {
  std::vector<ServiceTraffic> services;
  const auto params = table4_params(1);
  for (int i = 0; i < 4; ++i) {
    ServiceTraffic s;
    s.path = static_cast<ServicePath>(i);
    s.rate = params[i];
    s.trace = make_trace(trace_registry_names()[i]);
    services.push_back(std::move(s));
  }
  DelayModel delay;
  const auto scaled = scale_to_load(services, delay, 16, 10.0, 0.85);
  EXPECT_NEAR(mean_offered_load(scaled, delay, 16, 10.0), 0.85, 1e-6);
  // Relative service mix is preserved.
  EXPECT_NEAR(scaled[0].rate.a / scaled[1].rate.a,
              params[0].a / params[1].a, 1e-9);
}

TEST(LoadCalibration, RejectsBadArguments) {
  auto services = one_service(1.0);
  DelayModel delay;
  EXPECT_THROW(mean_offered_load(services, delay, 0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(mean_offered_load(services, delay, 16, 0.0),
               std::invalid_argument);
}

// ------------------------------------------------------- ReplayStream fork ---

std::vector<GeneratedPacket> drain(ArrivalStream& s) {
  std::vector<GeneratedPacket> out;
  while (const auto pkt = s.next()) out.push_back(*pkt);
  return out;
}

bool same_packets(const std::vector<GeneratedPacket>& a,
                  const std::vector<GeneratedPacket>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].gflow != b[i].gflow ||
        a[i].service != b[i].service ||
        a[i].record.flow_id != b[i].record.flow_id ||
        !(a[i].record.tuple == b[i].record.tuple)) {
      return false;
    }
  }
  return true;
}

// The multi-consumer contract the cluster layer depends on: forks share one
// immutable recording but advance independent cursors, so N shards (or N
// grid rows) can each replay the identical stream with no re-recording and
// no cross-talk.
TEST(ReplayFork, ForksAreIndependentDeterministicCursors) {
  PacketGenerator gen(one_service(2.0), 11, 0.005);
  ReplayStream original = ReplayStream::record(gen);
  const std::vector<GeneratedPacket> golden = drain(original);
  ASSERT_FALSE(golden.empty());

  // Two forks, drained with interleaved next() calls, each see the full
  // sequence from the start.
  ReplayStream a = original.fork();
  ReplayStream b = original.fork();
  std::vector<GeneratedPacket> from_a;
  std::vector<GeneratedPacket> from_b;
  for (;;) {
    const auto pa = a.next();
    const auto pb = b.next();
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (!pa) break;
    from_a.push_back(*pa);
    from_b.push_back(*pb);
  }
  EXPECT_TRUE(same_packets(from_a, golden));
  EXPECT_TRUE(same_packets(from_b, golden));
  EXPECT_EQ(a.total_flows(), original.total_flows());

  // Forking a partially-consumed stream still starts at packet 0, and does
  // not disturb the parent's cursor.
  original.rewind();
  for (int i = 0; i < 3; ++i) original.next();
  ReplayStream fresh = original.fork();
  EXPECT_TRUE(same_packets(drain(fresh), golden));
  std::vector<GeneratedPacket> rest = drain(original);
  ASSERT_EQ(rest.size(), golden.size() - 3);
  EXPECT_EQ(rest.front().time, golden[3].time);

  // rewind() still restarts the parent after forks exist.
  original.rewind();
  EXPECT_TRUE(same_packets(drain(original), golden));
}

// ----------------------------------------------------- ReplayStream chunks ---

/// `n` packets whose every compared field differs from its neighbours', so
/// a recording can end anywhere relative to a chunk boundary.
class CountingStream final : public ArrivalStream {
 public:
  explicit CountingStream(std::size_t n) : n_(n) {}
  std::optional<GeneratedPacket> next() override {
    if (i_ == n_) return std::nullopt;
    GeneratedPacket pkt;
    pkt.time = static_cast<TimeNs>(3 * i_);
    pkt.service = i_ % 2 == 0 ? ServicePath::kIpForward : ServicePath::kVpnOut;
    pkt.record.tuple.src_ip = static_cast<std::uint32_t>(mix64(i_));
    pkt.record.flow_id = static_cast<std::uint32_t>(i_);
    pkt.gflow = static_cast<std::uint32_t>(i_ % 101);
    ++i_;
    return pkt;
  }
  std::size_t total_flows() const override { return 101; }

 private:
  std::size_t n_;
  std::size_t i_ = 0;
};

// Recordings of 0, 1, C-1, C, C+1 and 3C+7 packets (C = kChunkPackets)
// each replay their source packet for packet: drained, rewound, forked,
// and from copies and moves of a cursor stopped one short of a chunk
// boundary and on it. Two forks advance independently.
TEST(ReplayChunks, RecordingsAroundChunkBoundariesReplayTheirSource) {
  EXPECT_EQ(ReplayStream{}.size(), 0u);
  EXPECT_FALSE(ReplayStream{}.next().has_value());
  constexpr std::size_t C = ReplayStream::kChunkPackets;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, C - 1, C, C + 1,
                              3 * C + 7}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    CountingStream reference(n);
    const std::vector<GeneratedPacket> want = drain(reference);
    ASSERT_EQ(want.size(), n);
    CountingStream source(n);
    ReplayStream replay = ReplayStream::record(source);
    EXPECT_EQ(replay.size(), n);
    EXPECT_EQ(replay.total_flows(), source.total_flows());
    EXPECT_TRUE(same_packets(drain(replay), want));
    EXPECT_FALSE(replay.next().has_value());
    replay.rewind();
    EXPECT_TRUE(same_packets(drain(replay), want));

    for (const std::size_t at : {std::min(n, C - 1), std::min(n, C)}) {
      SCOPED_TRACE("stopped at " + std::to_string(at));
      replay.rewind();
      for (std::size_t i = 0; i < at; ++i) ASSERT_TRUE(replay.next());
      const std::vector<GeneratedPacket> rest(want.begin() + at, want.end());
      ReplayStream copy = replay;
      ReplayStream moved = std::move(copy);
      ReplayStream copy_again = moved;
      ReplayStream fork = replay.fork();
      EXPECT_TRUE(same_packets(drain(moved), rest));
      EXPECT_TRUE(same_packets(drain(copy_again), rest));
      EXPECT_TRUE(same_packets(drain(fork), want));
      EXPECT_TRUE(same_packets(drain(replay), rest));
      EXPECT_EQ(fork.size(), n);
      EXPECT_EQ(fork.total_flows(), source.total_flows());
    }

    // a takes two packets for each one b takes.
    ReplayStream a = replay.fork();
    ReplayStream b = replay.fork();
    std::vector<GeneratedPacket> from_a;
    std::vector<GeneratedPacket> from_b;
    for (bool more = true; more;) {
      more = false;
      for (int i = 0; i < 2; ++i) {
        if (const auto pkt = a.next()) {
          from_a.push_back(*pkt);
          more = true;
        }
      }
      if (const auto pkt = b.next()) {
        from_b.push_back(*pkt);
        more = true;
      }
    }
    EXPECT_TRUE(same_packets(from_a, want));
    EXPECT_TRUE(same_packets(from_b, want));
  }
}

// ------------------------------------------------------- generator golden ---

// Pins every generated packet: for each cell, the packet count, the final
// total_flows() and a CRC32 over each packet's time, service, gflow, tuple,
// trace flow_id and size (little-endian, in that order). The cells are the
// paper's T1-T8 mixes over 50 ms, every registry trace as a single-service
// scenario over 5 ms (its flat rate at 1.05 load is ~34 Mpps), and T1/T5 at
// 5% load over 350 ms, whose arrivals cross three 0.1 s Holt-Winters noise
// intervals; each at seeds 2013 and 7. Regenerate (only when a change
// intends to alter the generated traffic) with
// LAPS_REGEN_GOLDEN=1 ./traffic_test --gtest_filter='GeneratorGolden.Regenerate'.
const char* kGeneratorGoldenPath =
    LAPS_SOURCE_DIR "/tests/golden/generator_digest.tsv";

struct GeneratorCell {
  std::string scenario;  // "T1".."T8", or a registry trace name
  double seconds;
  double load;  // calibrated offered load; 0 = the builder's default
  std::uint64_t seed;
};

std::vector<GeneratorCell> generator_grid() {
  std::vector<GeneratorCell> cells;
  for (const std::uint64_t seed : {std::uint64_t{2013}, std::uint64_t{7}}) {
    for (const std::string& id : paper_scenario_ids()) {
      cells.push_back({id, 0.05, 0.0, seed});
    }
    for (const std::string& trace : trace_registry_names()) {
      cells.push_back({trace, 0.005, 0.0, seed});
    }
    for (const char* id : {"T1", "T5"}) cells.push_back({id, 0.35, 0.05, seed});
  }
  return cells;
}

template <typename T>
void put_le(std::vector<std::uint8_t>& out, T value) {
  const auto bits = static_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

std::string generator_digest_line(const GeneratorCell& cell) {
  ScenarioOptions options;
  options.seconds = cell.seconds;
  options.seed = cell.seed;
  if (cell.load > 0) options.load_set1 = options.load_set2 = cell.load;
  const ScenarioConfig config =
      cell.scenario[0] == 'T'
          ? make_paper_scenario(cell.scenario, options)
          : make_single_service_scenario(cell.scenario, options);
  PacketGenerator gen(config.services, config.seed, config.seconds);
  std::uint64_t packets = 0;
  std::uint32_t crc = 0xFFFFFFFF;
  std::vector<std::uint8_t> bytes;
  while (const auto pkt = gen.next()) {
    bytes.clear();
    put_le(bytes, pkt->time);
    put_le(bytes, static_cast<std::uint8_t>(pkt->service));
    put_le(bytes, pkt->gflow);
    put_le(bytes, pkt->record.tuple.src_ip);
    put_le(bytes, pkt->record.tuple.dst_ip);
    put_le(bytes, pkt->record.tuple.src_port);
    put_le(bytes, pkt->record.tuple.dst_port);
    put_le(bytes, pkt->record.tuple.protocol);
    put_le(bytes, pkt->record.flow_id);
    put_le(bytes, pkt->record.size_bytes);
    crc = ~crc32_ieee(bytes, crc);
    ++packets;
  }
  std::ostringstream line;
  line << cell.scenario << '|' << cell.seconds << "s|";
  if (cell.load > 0) line << "load=" << cell.load << '|';
  line << cell.seed << '\t' << packets << '\t' << gen.total_flows() << '\t'
       << ~crc;
  return line.str();
}

bool generator_regen_requested() {
  const char* env = std::getenv("LAPS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(GeneratorGolden, Regenerate) {
  if (!generator_regen_requested()) {
    GTEST_SKIP() << "set LAPS_REGEN_GOLDEN=1 to rewrite "
                 << kGeneratorGoldenPath;
  }
  std::ofstream out(kGeneratorGoldenPath, std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << kGeneratorGoldenPath;
  out << "# generator goldens: scenario|seconds|[load|]seed, packets, "
         "total_flows, CRC32(time, service, gflow, tuple, flow_id, size)\n"
         "# regenerate with: LAPS_REGEN_GOLDEN=1 ./traffic_test "
         "--gtest_filter='GeneratorGolden.Regenerate'\n";
  for (const GeneratorCell& cell : generator_grid()) {
    out << generator_digest_line(cell) << "\n";
  }
  ASSERT_TRUE(out.good());
}

TEST(GeneratorGolden, StreamsMatchGolden) {
  if (generator_regen_requested()) {
    GTEST_SKIP() << "regeneration run; comparisons are meaningless";
  }
  std::ifstream in(kGeneratorGoldenPath);
  ASSERT_TRUE(in) << "cannot read " << kGeneratorGoldenPath;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  }
  const std::vector<GeneratorCell> cells = generator_grid();
  ASSERT_EQ(golden.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // Each line starts with its cell's key, so a mismatch names the cell.
    EXPECT_EQ(golden[i], generator_digest_line(cells[i]))
        << "diverged from " << kGeneratorGoldenPath;
  }
}

}  // namespace
}  // namespace laps
