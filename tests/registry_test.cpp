// Tests for the string-spec SchedulerRegistry (src/exp/scheduler_registry):
// fail-fast errors for malformed and unknown specs, hand-written and fuzzed
// specs that must build and run, spellings of one configuration that must
// decide alike, and the aggressive_snapshot() read-only contract.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "exp/dispatcher_registry.h"
#include "exp/scheduler_registry.h"
#include "traffic/generator.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/time.h"

namespace laps {
namespace {

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

SimPacket make_packet(std::uint32_t flow) {
  SimPacket pkt;
  pkt.tuple.src_ip = 0x0A000000u + flow;
  pkt.tuple.dst_ip = static_cast<std::uint32_t>(mix64(flow) >> 32) | 1u;
  pkt.tuple.src_port = static_cast<std::uint16_t>(1024 + flow % 60000);
  pkt.tuple.dst_port = 80;
  pkt.tuple.protocol = 6;
  pkt.gflow = flow;
  pkt.service = ServicePath::kIpForward;
  return pkt;
}

/// The message a bad spec dies with, or "" if the spec parsed.
std::string error_of(const std::string& spec) {
  try {
    make_scheduler(spec);
    return "";
  } catch (const SchedulerSpecError& e) {
    return e.what();
  }
}

// ---------------------------------------------------- fail-fast errors ---

TEST(SchedulerSpecErrors, UnknownSchedulerListsEveryValidName) {
  const std::string msg = error_of("bogus");
  ASSERT_FALSE(msg.empty()) << "unknown scheduler must throw";
  EXPECT_NE(msg.find("bogus"), std::string::npos)
      << "error must name the offending token: " << msg;
  for (const std::string& name : scheduler_names()) {
    EXPECT_NE(msg.find(name), std::string::npos)
        << "error must list valid scheduler '" << name << "': " << msg;
  }
}

TEST(SchedulerSpecErrors, UnknownParameterListsValidKeys) {
  const std::string msg = error_of("laps:zzz=1");
  ASSERT_FALSE(msg.empty());
  EXPECT_NE(msg.find("zzz"), std::string::npos) << msg;
  for (const char* key : {"afc", "power", "idle_th", "services", "pins"}) {
    EXPECT_NE(msg.find(key), std::string::npos)
        << "error must list valid key '" << key << "': " << msg;
  }
}

TEST(SchedulerSpecErrors, MalformedSpecsAllThrow) {
  for (const char* spec : {
           "",                    // empty spec
           ":afc=1",              // empty scheduler name
           "laps:",               // empty parameter list
           "laps:afc",            // parameter without '='
           "laps:=5",             // empty key
           "laps:afc=",           // empty value
           "laps:afc=abc",        // non-numeric size
           "laps:afc=64,afc=32",  // duplicate key
           "laps:sample=lots",    // non-numeric double
           "laps:power=maybe",    // non-boolean
           "laps:idle_th=5furlongs",  // unknown duration suffix
           "fcfs:afc=1",          // parameter on a parameterless scheduler
           "afs:high_th=4294967297",   // 32-bit parameters do not wrap
           "batch:batch=4294967296",
           "laps:high_th=4294967320",
           "laps:idle_th=nan",    // durations are finite and fit TimeNs
           "laps:idle_th=inf",
           "laps:idle_th=1e30s",
           "laps:sample=nan",     // decimals are finite
           "laps:sample=inf",
           "adaptive:slack=nan",
           "laps:sample=-3",      // sampling is a probability in [0, 1]
           "hash-migrate:sample=2",
       }) {
    EXPECT_THROW(make_scheduler(spec), SchedulerSpecError) << spec;
    EXPECT_THROW(make_scheduler_spec(spec), SchedulerSpecError) << spec;
  }
}

TEST(SchedulerSpecErrors, ListRejectsEmptySegments) {
  EXPECT_THROW(parse_scheduler_list("fcfs;;afs"), SchedulerSpecError);
  EXPECT_THROW(parse_scheduler_list(";fcfs"), SchedulerSpecError);
  EXPECT_TRUE(parse_scheduler_list("").empty());
  const auto specs = parse_scheduler_list("fcfs;laps:afc=64");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "FCFS");
  EXPECT_EQ(specs[1].name, "LAPS");
}

// ------------------------------------------------------ specs that run ---

/// Drives `n` packets of a skewed flow population through `s` and returns
/// the decision sequence. The view carries mild load skew and an advancing
/// clock so load-sensitive and time-sensitive paths (AFS shifts, FCFS scan,
/// power gating) all execute.
std::vector<CoreId> decisions(Scheduler& s, std::size_t cores, int n) {
  s.attach(cores);
  FakeView view(cores);
  std::vector<CoreId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    view.now_ += 1'000;  // 1 us per packet
    for (std::size_t c = 0; c < cores; ++c) {
      view.cores_[c].queue_len = static_cast<std::uint32_t>((i + c) % 40);
    }
    // Zipf-ish: flow 0 dominates, a few mid flows, a long tail.
    const std::uint32_t flow =
        i % 3 == 0 ? 0u : (i % 7 == 0 ? 1u + i % 5 : 100u + i % 97);
    out.push_back(s.schedule(make_packet(flow), view));
  }
  return out;
}

/// Builds `spec` through make_scheduler_spec, the path every grid takes,
/// and drives the instance it makes: every decision lands on a core.
void check_runs(const std::string& spec) {
  SCOPED_TRACE(spec);
  const SchedulerSpec table_row = make_scheduler_spec(spec);
  auto scheduler = table_row.make();
  EXPECT_EQ(scheduler->name(), table_row.name);
  for (const CoreId core : decisions(*scheduler, 8, 400)) {
    EXPECT_LT(core, 8u);
  }
}

/// Two spellings of one configuration must decide alike.
void check_same_decisions(const std::string& a, const std::string& b) {
  SCOPED_TRACE(a + " vs " + b);
  auto x = make_scheduler(a);
  auto y = make_scheduler(b);
  EXPECT_EQ(x->name(), y->name());
  EXPECT_EQ(decisions(*x, 8, 400), decisions(*y, 8, 400));
  EXPECT_EQ(x->extra_stats(), y->extra_stats());
}

// A zero table size or count could only fail at attach(), in every cell of
// the grid, with an error that names no key (`MapTable: needs at least one
// core`, `LfuCache: capacity 0`). The spec rejects it by key and range.
TEST(SchedulerSpecErrors, ZeroSizesAreRejectedByKey) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"laps", "services"},     {"laps", "entries"},
      {"laps", "pins"},         {"laps", "min_cores"},
      {"laps", "afc"},          {"laps", "annex"},
      {"hash-migrate", "afc"},  {"hash-migrate", "annex"},
      {"hash-migrate", "pins"}, {"adaptive-afd", "afc"},
      {"adaptive-afd", "annex"}, {"adaptive-afd", "pins"},
  };
  for (const auto& [kind, key] : cases) {
    const std::string spec = kind + ":" + key + "=0";
    EXPECT_EQ(error_of(spec), "scheduler '" + kind + "': parameter '" + key +
                                  "' wants an integer >= 1, got '0'");
    EXPECT_THROW(make_scheduler_spec(spec), SchedulerSpecError) << spec;
    check_runs(kind + ":" + key + "=1");
  }
}

// The registry does not know the run's core count, so more services than
// cores passes the spec and fails when the scheduler is attached.
TEST(SchedulerSpecErrors, ServicesAboveTheCoreCountFailAtAttach) {
  const SchedulerSpec spec = make_scheduler_spec("laps:services=64");
  EXPECT_THROW(spec.make()->attach(16), std::invalid_argument);
}

TEST(RegistryRoundTrip, HandWrittenSpecs) {
  for (const char* spec : {
           "fcfs",
           "hash",
           "hash:buckets=128",
           "afs",
           "afs:high_th=16,cooldown=512",
           "adaptive",
           "adaptive:period=500,slack=0.25,moves=2",
           "adaptive-afd",
           "adaptive-afd:afc=8,promote=4,beat_min=0",
           "batch",
           "batch:batch=8",
           "oracle",
           "oracle:k=8,refresh=1024",
           "laps",
           "laps:services=1",
           "laps:afc=64,idle_th=5us,power=1",
           "laps:power=1,sleep_after=20us,consolidate_window=512",
           "hash-migrate",
           "hash-migrate:high_th=12,pins=64,afc=32",
           "afs-power",
           "afs-power:idle_th=2us,wake_wm=8,min_unparked=2",
       }) {
    check_runs(spec);
  }
}

TEST(RegistryRoundTrip, RestatedDefaultsDecideAsTheBareSpec) {
  check_same_decisions("laps:services=4", "laps");
  check_same_decisions("batch:batch=32", "batch");
}

TEST(RegistryRoundTrip, DurationSuffixesNormalize) {
  // 5 us == 5000 ns == 5000 (bare durations are nanoseconds).
  check_same_decisions("laps:idle_th=5us", "laps:idle_th=5000ns");
  check_same_decisions("laps:idle_th=5000", "laps:idle_th=5000ns");
  check_runs("laps:idle_th=5us");
}

/// One fuzzable parameter: key plus a generator kind with a safe range.
struct FuzzKey {
  const char* key;
  enum Kind { kSize, kDouble01, kBool, kDuration } kind;
  std::uint64_t lo = 1, hi = 64;
};

struct FuzzScheduler {
  const char* name;
  std::vector<FuzzKey> keys;
};

const std::vector<FuzzScheduler>& fuzz_catalog() {
  using K = FuzzKey;
  static const std::vector<FuzzKey> kAfd = {
      {"afc", K::kSize, 2, 64},        {"annex", K::kSize, 64, 512},
      {"promote", K::kSize, 1, 16},    {"sample", K::kDouble01},
      {"aging", K::kSize, 1000, 100000}, {"beat_min", K::kBool},
  };
  static const std::vector<FuzzScheduler> catalog = [] {
    std::vector<FuzzScheduler> c;
    c.push_back({"fcfs", {}});
    c.push_back({"hash", {{"buckets", K::kSize, 16, 1024}}});
    c.push_back({"afs",
                 {{"high_th", K::kSize, 4, 31},
                  {"buckets", K::kSize, 16, 1024},
                  {"cooldown", K::kSize, 1, 5000}}});
    c.push_back({"adaptive",
                 {{"period", K::kSize, 100, 10000},
                  {"slack", K::kDouble01},
                  {"moves", K::kSize, 1, 8},
                  {"buckets", K::kSize, 16, 1024}}});
    FuzzScheduler combined{"adaptive-afd",
                           {{"period", K::kSize, 100, 10000},
                            {"slack", K::kDouble01},
                            {"moves", K::kSize, 1, 8},
                            {"buckets", K::kSize, 16, 1024},
                            {"high_th", K::kSize, 4, 31},
                            {"pins", K::kSize, 16, 4096}}};
    combined.keys.insert(combined.keys.end(), kAfd.begin(), kAfd.end());
    c.push_back(std::move(combined));
    c.push_back({"batch", {{"batch", K::kSize, 1, 64}}});
    c.push_back({"oracle",
                 {{"k", K::kSize, 1, 32},
                  {"high_th", K::kSize, 4, 31},
                  {"refresh", K::kSize, 128, 65536},
                  {"buckets", K::kSize, 16, 1024}}});
    FuzzScheduler laps{"laps",
                       {{"services", K::kSize, 1, 4},
                        {"high_th", K::kSize, 4, 31},
                        {"idle_th", K::kDuration},
                        {"pins", K::kSize, 16, 4096},
                        {"min_cores", K::kSize, 1, 2},
                        {"power", K::kBool},
                        {"sleep_after", K::kDuration},
                        {"wake_wm", K::kSize, 1, 32},
                        {"consolidate_window", K::kSize, 128, 65536},
                        {"consolidate_wm", K::kSize, 1, 16},
                        {"consolidate_backoff", K::kDuration},
                        {"entries", K::kSize, 16, 128}}};
    laps.keys.insert(laps.keys.end(), kAfd.begin(), kAfd.end());
    c.push_back(std::move(laps));
    FuzzScheduler hm{"hash-migrate",
                     {{"buckets", K::kSize, 16, 1024},
                      {"high_th", K::kSize, 4, 31},
                      {"pins", K::kSize, 16, 4096}}};
    hm.keys.insert(hm.keys.end(), kAfd.begin(), kAfd.end());
    c.push_back(std::move(hm));
    c.push_back({"afs-power",
                 {{"high_th", K::kSize, 4, 31},
                  {"buckets", K::kSize, 16, 1024},
                  {"cooldown", K::kSize, 1, 5000},
                  {"idle_th", K::kDuration},
                  {"wake_wm", K::kSize, 1, 32},
                  {"sleep_after", K::kDuration},
                  {"consolidate_window", K::kSize, 128, 65536},
                  {"consolidate_wm", K::kSize, 1, 16},
                  {"consolidate_backoff", K::kDuration},
                  {"min_unparked", K::kSize, 1, 4}}});
    return c;
  }();
  return catalog;
}

std::string random_value(const FuzzKey& k, std::mt19937_64& rng) {
  switch (k.kind) {
    case FuzzKey::kSize: {
      std::uniform_int_distribution<std::uint64_t> d(k.lo, k.hi);
      return std::to_string(d(rng));
    }
    case FuzzKey::kDouble01: {
      static const char* kChoices[] = {"0.125", "0.25", "0.5", "0.75", "1"};
      return kChoices[rng() % 5];
    }
    case FuzzKey::kBool: {
      static const char* kChoices[] = {"1",    "0",   "true", "false",
                                       "on",   "off", "yes",  "no"};
      return kChoices[rng() % 8];
    }
    case FuzzKey::kDuration: {
      static const char* kSuffix[] = {"", "ns", "us", "ms"};
      std::uniform_int_distribution<std::uint64_t> d(1, 100);
      return std::to_string(d(rng)) + kSuffix[rng() % 4];
    }
  }
  return "1";
}

TEST(RegistryRoundTrip, FuzzedSpecs) {
  std::mt19937_64 rng(20250808);
  const auto& catalog = fuzz_catalog();
  for (int iter = 0; iter < 300; ++iter) {
    const FuzzScheduler& fs = catalog[rng() % catalog.size()];
    // A random subset of keys, in catalog order (duplicates are illegal).
    std::string spec = fs.name;
    bool first = true;
    for (const FuzzKey& k : fs.keys) {
      if (rng() % 2 == 0) continue;
      spec += first ? ":" : ",";
      first = false;
      spec += std::string(k.key) + "=" + random_value(k, rng);
    }
    SCOPED_TRACE("iter " + std::to_string(iter));
    check_runs(spec);
  }
}

// --------------------------------------------- snapshot no-perturbation ---

/// aggressive_snapshot() must be read-only: a scheduler polled between
/// packets must make exactly the decisions of an unpolled twin.
void check_snapshot_is_pure(const std::string& spec) {
  SCOPED_TRACE(spec);
  auto polled = make_scheduler(spec);
  auto control = make_scheduler(spec);
  polled->attach(8);
  control->attach(8);
  FakeView view(8);
  for (int i = 0; i < 4000; ++i) {
    view.now_ += 500;
    for (std::size_t c = 0; c < 8; ++c) {
      view.cores_[c].queue_len = static_cast<std::uint32_t>((i + c) % 40);
    }
    // Heavy repetition so flows actually promote into the AFC.
    const std::uint32_t flow = i % 2 == 0 ? i % 4 : 50u + i % 400;
    const SimPacket pkt = make_packet(flow);
    if (i % 100 == 0) {
      // Two consecutive polls must agree *and* not disturb what follows.
      EXPECT_EQ(polled->aggressive_snapshot(), polled->aggressive_snapshot());
    }
    ASSERT_EQ(polled->schedule(pkt, view), control->schedule(pkt, view))
        << "packet " << i << ": polling aggressive_snapshot() changed a "
        << "scheduling decision";
  }
  EXPECT_EQ(polled->aggressive_snapshot(), control->aggressive_snapshot());
  EXPECT_EQ(polled->extra_stats(), control->extra_stats());
}

TEST(AggressiveSnapshot, DoesNotPerturbDetectorState) {
  for (const char* spec :
       {"laps:services=1", "adaptive-afd", "hash-migrate"}) {
    check_snapshot_is_pure(spec);
  }
  // Detector-less schedulers report an empty set.
  EXPECT_TRUE(make_scheduler("fcfs")->aggressive_snapshot().empty());
  EXPECT_TRUE(make_scheduler("hash")->aggressive_snapshot().empty());
}

// =================================================== dispatcher registry ===
// The --dispatch grammar shares exp/spec_lang.h with the scheduler specs;
// these pin the dispatcher side of the fail-fast and run contracts.

std::string dispatch_error_of(const std::string& spec) {
  try {
    make_dispatcher(spec);
    return "";
  } catch (const DispatcherSpecError& e) {
    return e.what();
  }
}

TEST(DispatcherSpecErrors, UnknownDispatcherListsEveryValidName) {
  const std::string msg = dispatch_error_of("bogus");
  ASSERT_FALSE(msg.empty()) << "unknown dispatcher must throw";
  EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
  for (const std::string& name : dispatcher_names()) {
    EXPECT_NE(msg.find(name), std::string::npos)
        << "error must list valid dispatcher '" << name << "': " << msg;
  }
}

TEST(DispatcherSpecErrors, UnknownParameterListsValidKeys) {
  const std::string msg = dispatch_error_of("affinity:zzz=1");
  ASSERT_FALSE(msg.empty());
  EXPECT_NE(msg.find("zzz"), std::string::npos) << msg;
  for (const char* key : {"th", "drain"}) {
    EXPECT_NE(msg.find(key), std::string::npos)
        << "error must list valid key '" << key << "': " << msg;
  }
}

TEST(DispatcherSpecErrors, MalformedSpecsAllThrow) {
  for (const char* spec : {
           "",                   // empty spec
           ":shard=1",           // empty dispatcher name
           "fdir:",              // empty parameter list
           "fdir:slots",         // parameter without '='
           "fdir:=5",            // empty key
           "fdir:slots=",        // empty value
           "fdir:slots=abc",     // non-numeric size
           "fdir:slots=0",       // zero-slot table
           "fdir:slots=64,slots=32",  // duplicate key
           "affinity:drain=maybe",    // non-boolean
           "rss:slots=64",       // parameter on a parameterless dispatcher
           "pass:shard=4294967296",   // 32-bit parameters do not wrap
       }) {
    EXPECT_THROW(make_dispatcher(spec), DispatcherSpecError) << spec;
    EXPECT_THROW(make_dispatcher_spec(spec), DispatcherSpecError) << spec;
  }
}

TEST(DispatcherSpecErrors, ListRejectsEmptySegments) {
  EXPECT_THROW(parse_dispatcher_list("rss;;rr"), DispatcherSpecError);
  EXPECT_THROW(parse_dispatcher_list(";rss"), DispatcherSpecError);
  EXPECT_TRUE(parse_dispatcher_list("").empty());
  const auto specs = parse_dispatcher_list("rss;fdir:slots=512");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].display, "RSS");
  EXPECT_EQ(specs[1].display, "FlowDirector");
}

/// Drives `n` synthetic packets (a skewed flow population, drifting shard
/// loads, periodic completion feedback) through `d` and returns the pick
/// sequence — the dispatcher-side analogue of decisions() above.
std::vector<ShardId> dispatch_decisions(Dispatcher& d, std::size_t shards,
                                        int n) {
  d.attach(shards);
  std::vector<ShardGauge> gauges(shards);
  ClusterView view;
  view.shards = {gauges.data(), gauges.size()};
  std::vector<ShardId> picks;
  std::vector<std::uint32_t> completed;
  picks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    view.now = static_cast<TimeNs>(i) * 500;
    GeneratedPacket pkt;
    pkt.time = view.now;
    pkt.gflow = i % 2 == 0 ? i % 4 : 50u + i % 400;
    pkt.record.tuple.src_ip = 0x0A000000u + pkt.gflow;
    pkt.record.tuple.dst_ip =
        static_cast<std::uint32_t>(mix64(pkt.gflow) >> 32) | 1u;
    pkt.record.tuple.src_port =
        static_cast<std::uint16_t>(1024 + pkt.gflow % 60000);
    pkt.record.tuple.dst_port = 80;
    pkt.record.tuple.protocol = 6;
    const ShardId pick = d.pick(pkt, view);
    picks.push_back(pick);
    ++gauges[pick].dispatched;
    completed.push_back(pkt.gflow);
    if (i % 16 == 15) {
      // Barrier: the oldest packets complete on whichever shard has them.
      for (std::size_t s = 0; s < shards; ++s) {
        gauges[s].delivered = gauges[s].dispatched -
                              std::min<std::uint64_t>(gauges[s].dispatched,
                                                      2 + s);
      }
      d.on_sync(view, {completed.data(), completed.size()});
      completed.clear();
    }
  }
  return picks;
}

/// Builds `spec` through make_dispatcher_spec, the path every cluster grid
/// takes, and drives the instance it makes: every pick lands on a shard.
void check_dispatcher_runs(const std::string& spec) {
  SCOPED_TRACE(spec);
  const DispatcherSpec row = make_dispatcher_spec(spec);
  auto dispatcher = row.make();
  EXPECT_EQ(dispatcher->name(), row.display);
  for (const ShardId shard : dispatch_decisions(*dispatcher, 4, 2000)) {
    EXPECT_LT(shard, 4u);
  }
}

/// Two spellings of one configuration must pick alike.
void check_same_picks(const std::string& a, const std::string& b) {
  SCOPED_TRACE(a + " vs " + b);
  auto x = make_dispatcher(a);
  auto y = make_dispatcher(b);
  EXPECT_EQ(x->name(), y->name());
  EXPECT_EQ(dispatch_decisions(*x, 4, 2000), dispatch_decisions(*y, 4, 2000));
  EXPECT_EQ(x->extra_stats(), y->extra_stats());
}

TEST(DispatcherRoundTrip, HandWrittenSpecs) {
  for (const char* spec : {
           "pass", "pass:shard=0", "pass:shard=2", "rr", "rss", "fdir",
           "fdir:slots=4096", "fdir:slots=64", "affinity",
           "affinity:th=32,drain=1", "affinity:th=8,drain=0",
           "affinity:drain=off", "load", "load:th=32", "load:th=1",
       }) {
    check_dispatcher_runs(spec);
  }
}

TEST(DispatcherRoundTrip, RestatedDefaultsPickAsTheBareSpec) {
  check_same_picks("pass:shard=0", "pass");
  check_same_picks("fdir:slots=4096", "fdir");
  check_same_picks("affinity:th=32,drain=true", "affinity");
}

TEST(DispatcherRoundTrip, FuzzedSpecs) {
  const auto u64_val = [](std::uint64_t lo, std::uint64_t hi) {
    return [lo, hi](std::mt19937_64& rng) {
      std::uniform_int_distribution<std::uint64_t> d(lo, hi);
      return std::to_string(d(rng));
    };
  };
  const auto bool_val = [](std::mt19937_64& rng) {
    static const char* kChoices[] = {"1",  "0",   "true", "false",
                                     "on", "off", "yes",  "no"};
    return std::string(kChoices[rng() % 8]);
  };
  struct FuzzEntry {
    const char* name;
    std::vector<std::pair<const char*,
                          std::function<std::string(std::mt19937_64&)>>>
        keys;
  };
  const std::vector<FuzzEntry> catalog = {
      {"pass", {{"shard", u64_val(0, 3)}}},
      {"rr", {}},
      {"rss", {}},
      {"fdir", {{"slots", u64_val(1, 512)}}},
      {"affinity", {{"th", u64_val(0, 128)}, {"drain", bool_val}}},
      {"load", {{"th", u64_val(0, 128)}}},
  };
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 300; ++iter) {
    const FuzzEntry& fe = catalog[rng() % catalog.size()];
    std::string spec = fe.name;
    bool first = true;
    for (const auto& [key, value] : fe.keys) {
      if (rng() % 2 == 0) continue;
      spec += first ? ":" : ",";
      first = false;
      spec += std::string(key) + "=" + value(rng);
    }
    SCOPED_TRACE("iter " + std::to_string(iter));
    check_dispatcher_runs(spec);
  }
}

}  // namespace
}  // namespace laps
