// Tests for the flow-audit observability subsystem: FlowAuditTable /
// FlowAuditProbe (exact per-flow attribution, deferred-fold event log),
// AfdAccuracyProbe (online Fig. 8 scoring), FlightRecorderProbe (anomaly-
// triggered postmortem ring), plus JSON-validity pinning for every probe
// artifact (including hostile scenario names through ChromeTraceProbe).
//
// The load-bearing assertion is GoldenGridTotals: on the same grid the
// golden determinism suite uses, the audit table's per-flow columns must
// sum *exactly* to the ReportProbe aggregates — the audit is a
// decomposition of the report, not a parallel approximation.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "baselines/afs.h"
#include "baselines/fcfs.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "sim/afd_accuracy.h"
#include "sim/engine.h"
#include "sim/flight_recorder.h"
#include "sim/flow_audit.h"
#include "sim/probes.h"
#include "sim/runner.h"
#include "trace/synthetic.h"

namespace laps {
namespace {

// ------------------------------------------------- minimal JSON validator ---

// A strict recursive-descent JSON checker (no values retained). Probe
// artifacts promise to be valid JSON whatever run labels contain; this
// validator is how the tests pin that promise without external parsers.
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    c.skip_ws();
    if (!c.value()) return false;
    c.skip_ws();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker::valid(R"({"a":[1,-2.5e3,true,null,"x\n\"y\""]})"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a":1)"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\":\"raw\nnewline\"}"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a":"bad\q"})"));
  EXPECT_FALSE(JsonChecker::valid(R"([1,2,]trailing)"));
}

// ------------------------------------------------------------ test helpers ---

ScenarioConfig golden_scenario(const std::string& trace, std::uint64_t seed,
                               double load_mpps, bool restore_order) {
  ScenarioConfig cfg;
  cfg.name = "golden." + trace;
  cfg.num_cores = 4;
  cfg.queue_capacity = 8;
  cfg.seconds = 0.002;
  cfg.seed = seed;
  cfg.restore_order = restore_order;
  SyntheticTraceSpec spec;
  spec.name = trace;
  spec.num_flows = 4096;
  spec.seed = seed * 31 + 7;
  if (trace == "churny") {
    spec.churn_per_packet = 0.01;
    spec.zipf_alpha = 1.2;
  }
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{load_mpps, 0.0, 0.0, 10.0, 0.0};
  s.trace = std::make_shared<SyntheticTrace>(spec);
  cfg.services = {s};
  return cfg;
}

std::unique_ptr<Scheduler> make_sched(const std::string& name) {
  if (name == "FCFS") return std::make_unique<FcfsScheduler>();
  if (name == "StaticHash") return std::make_unique<StaticHashScheduler>();
  if (name == "AFS") return std::make_unique<AfsScheduler>();
  LapsConfig cfg;
  cfg.num_services = 1;
  return std::make_unique<LapsScheduler>(cfg);
}

SimPacket packet_for(std::uint32_t gflow, TimeNs arrival) {
  SimPacket pkt;
  pkt.arrival = arrival;
  pkt.gflow = gflow;
  pkt.tuple.src_ip = 0x0A000000u + gflow;
  pkt.tuple.dst_ip = 0xC0A80001u;
  pkt.tuple.src_port = static_cast<std::uint16_t>(1000 + gflow % 50'000);
  pkt.tuple.dst_port = 80;
  pkt.tuple.protocol = 6;
  return pkt;
}

// ----------------------------------------------------------- FlowAuditTable ---

TEST(FlowAuditTable, InsertFindAndMiss) {
  FlowAuditTable t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(7), nullptr);
  t.find_or_insert(7).packets = 3;
  t.find_or_insert(9).packets = 5;
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(7), nullptr);
  EXPECT_EQ(t.find(7)->packets, 3u);
  EXPECT_EQ(t.find(9)->packets, 5u);
  EXPECT_EQ(t.find(8), nullptr);
  // Re-finding must not duplicate.
  ++t.find_or_insert(7).packets;
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(7)->packets, 4u);
}

TEST(FlowAuditTable, GrowthPreservesEveryRecord) {
  FlowAuditTable t;
  // Well past the initial 1024 slots so the table rehashes several times.
  constexpr std::uint64_t kFlows = 3000;
  for (std::uint64_t k = 1; k <= kFlows; ++k) {
    FlowAuditTable::Entry& e = t.find_or_insert(k * 0x9E3779B9ULL);
    e.packets = k;
    e.out_of_order = static_cast<std::uint32_t>(k % 7);
  }
  EXPECT_EQ(t.size(), kFlows);
  for (std::uint64_t k = 1; k <= kFlows; ++k) {
    const FlowAuditTable::Entry* e = t.find(k * 0x9E3779B9ULL);
    ASSERT_NE(e, nullptr) << k;
    EXPECT_EQ(e->packets, k);
    EXPECT_EQ(e->out_of_order, k % 7);
  }
  EXPECT_EQ(t.entries().size(), kFlows);
}

TEST(FlowAuditTable, ClearIsEpochReset) {
  FlowAuditTable t;
  for (std::uint64_t k = 1; k <= 500; ++k) t.find_or_insert(k).packets = k;
  const std::uint64_t gen_before = t.generation();
  t.clear();
  EXPECT_GT(t.generation(), gen_before);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_TRUE(t.entries().empty());
  // Reclaimed slots must come back zeroed, not with stale-epoch residue.
  FlowAuditTable::Entry& e = t.find_or_insert(1);
  EXPECT_EQ(e.packets, 0u);
  EXPECT_EQ(e.out_of_order, 0u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowAuditTable, LatencyBucketEdges) {
  // Bucket 0 is everything below 2^kLatencyShift; bucket b covers
  // [2^(b+kLatencyShift-1), 2^(b+kLatencyShift)).
  EXPECT_EQ(FlowAuditTable::latency_bucket(-5), 0u);
  EXPECT_EQ(FlowAuditTable::latency_bucket(0), 0u);
  EXPECT_EQ(FlowAuditTable::latency_bucket(511), 0u);
  EXPECT_EQ(FlowAuditTable::latency_bucket(512), 1u);
  EXPECT_EQ(FlowAuditTable::latency_bucket(1023), 1u);
  EXPECT_EQ(FlowAuditTable::latency_bucket(1024), 2u);
  EXPECT_EQ(FlowAuditTable::latency_bucket(std::int64_t{1} << 62),
            FlowAuditTable::kLatencyBuckets - 1);
  // Bounds are the exclusive upper edges of those ranges and monotonic.
  EXPECT_EQ(FlowAuditTable::latency_bucket_bound(0), 512);
  EXPECT_EQ(FlowAuditTable::latency_bucket_bound(1), 1024);
  for (std::size_t b = 0; b + 1 < FlowAuditTable::kLatencyBuckets; ++b) {
    EXPECT_LT(FlowAuditTable::latency_bucket_bound(b),
              FlowAuditTable::latency_bucket_bound(b + 1));
  }
}

// ----------------------------------------------------------- FlowAuditProbe ---

struct AuditTotals {
  std::uint64_t packets = 0, delivered = 0, dropped = 0, migrations = 0,
                ooo = 0, fm = 0, cold = 0, histo = 0;
  std::int64_t latency_sum = 0, latency_max = 0;
};

AuditTotals sum_table(const FlowAuditProbe& probe) {
  AuditTotals t;
  for (const auto& e : probe.table().entries()) {
    t.packets += e.packets;
    t.delivered += e.delivered;
    t.dropped += e.dropped;
    t.migrations += e.migrations;
    t.ooo += e.out_of_order;
    t.fm += e.fm_penalties;
    t.cold += e.cold_cache;
    t.latency_sum += e.latency_sum;
    t.latency_max = std::max(t.latency_max, e.latency_max);
    for (const std::uint32_t c : e.latency_log2) t.histo += c;
  }
  return t;
}

// The acceptance bar of the tentpole: on every cell of the golden grid the
// audit table is an exact decomposition of the run report.
TEST(FlowAuditProbe, GoldenGridTotalsMatchReport) {
  const std::vector<std::string> traces = {"plain", "churny"};
  const std::vector<std::string> sched_names = {"FCFS", "StaticHash", "AFS",
                                                "LAPS"};
  for (const std::string& trace : traces) {
    for (const std::string& sched_name : sched_names) {
      for (std::uint64_t seed : {1ull, 42ull}) {
        const ScenarioConfig cfg = golden_scenario(trace, seed, 12.0, false);
        auto sched = make_sched(sched_name);
        FlowAuditProbe audit;
        const SimReport report =
            run_scenario(cfg, *sched, ProbeSet{&audit});
        const AuditTotals t = sum_table(audit);
        const std::string ctx =
            trace + "/" + sched_name + "/" + std::to_string(seed);
        EXPECT_EQ(t.packets, report.offered) << ctx;
        EXPECT_EQ(t.delivered, report.delivered) << ctx;
        EXPECT_EQ(t.dropped, report.dropped) << ctx;
        EXPECT_EQ(t.migrations, report.flow_migrations) << ctx;
        EXPECT_EQ(t.ooo, report.out_of_order) << ctx;
        EXPECT_EQ(t.fm, report.fm_penalties) << ctx;
        EXPECT_EQ(t.cold, report.cold_cache_events) << ctx;
        EXPECT_EQ(t.latency_sum, report.latency_ns.sum()) << ctx;
        EXPECT_EQ(t.latency_max, report.latency_ns.max()) << ctx;
        // Every delivered packet lands in exactly one per-flow bucket.
        EXPECT_EQ(t.histo, report.delivered) << ctx;
      }
    }
  }
}

TEST(FlowAuditProbe, ReuseAcrossRunsIsClean) {
  // The same probe instance over two different runs: the second run's
  // totals must match its own report exactly (epoch-based clear + memo
  // resync leave no residue from run one).
  FlowAuditProbe audit;
  {
    const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0, false);
    auto sched = make_sched("AFS");
    run_scenario(cfg, *sched, ProbeSet{&audit});
    EXPECT_GT(audit.table().size(), 0u);
  }
  const ScenarioConfig cfg = golden_scenario("churny", 42, 12.0, false);
  auto sched = make_sched("LAPS");
  const SimReport report = run_scenario(cfg, *sched, ProbeSet{&audit});
  const AuditTotals t = sum_table(audit);
  EXPECT_EQ(t.packets, report.offered);
  EXPECT_EQ(t.delivered, report.delivered);
  EXPECT_EQ(t.dropped, report.dropped);
}

TEST(FlowAuditProbe, SummaryAttributionIsConsistent) {
  const ScenarioConfig cfg = golden_scenario("churny", 1, 12.0, false);
  auto sched = make_sched("LAPS");
  FlowAuditProbe audit;
  const SimReport report = run_scenario(cfg, *sched, ProbeSet{&audit});
  const FlowAuditSummary s = audit.summary();
  EXPECT_EQ(s.flows, audit.table().size());
  EXPECT_EQ(s.ooo_total, report.out_of_order);
  EXPECT_LE(s.migrated_flows, s.flows);
  EXPECT_LE(s.ooo_flows, s.flows);
  EXPECT_GE(s.ooo_migrated_share, 0.0);
  EXPECT_LE(s.ooo_migrated_share, 1.0);
  EXPECT_GE(s.ooo_topk_migrated_share, 0.0);
  EXPECT_LE(s.ooo_topk_migrated_share, 1.0);
  EXPECT_GT(s.topk_packet_share, 0.0);
  EXPECT_LE(s.topk_packet_share, 1.0);
  EXPECT_EQ(s.top_k, 16u);
  // Idempotent: the deferred fold ran once; asking again changes nothing.
  const FlowAuditSummary again = audit.summary();
  EXPECT_EQ(again.flows, s.flows);
  EXPECT_EQ(again.ooo_total, s.ooo_total);
}

TEST(FlowAuditProbe, SortedEntriesArePacketsDescending) {
  const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0, false);
  auto sched = make_sched("StaticHash");
  FlowAuditProbe audit;
  run_scenario(cfg, *sched, ProbeSet{&audit});
  const auto sorted = audit.sorted_entries();
  ASSERT_GT(sorted.size(), 1u);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const bool ordered =
        sorted[i - 1].packets > sorted[i].packets ||
        (sorted[i - 1].packets == sorted[i].packets &&
         sorted[i - 1].key < sorted[i].key);
    EXPECT_TRUE(ordered) << "at " << i;
  }
}

TEST(FlowAuditProbe, ArtifactIsValidJsonAndCapsExplicitly) {
  const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0, false);
  {
    auto sched = make_sched("AFS");
    FlowAuditProbe::Options opts;
    opts.max_rows = 2;
    FlowAuditProbe audit(opts);
    run_scenario(cfg, *sched, ProbeSet{&audit});
    const std::string doc = audit.to_json();
    EXPECT_TRUE(JsonChecker::valid(doc));
    EXPECT_NE(doc.find("\"rows_emitted\": 2"), std::string::npos);
    EXPECT_NE(doc.find("\"flows_total\": "), std::string::npos);
  }
  {
    auto sched = make_sched("AFS");
    FlowAuditProbe::Options opts;
    opts.max_rows = 0;  // 0 = emit every flow
    FlowAuditProbe audit(opts);
    run_scenario(cfg, *sched, ProbeSet{&audit});
    const std::string doc = audit.to_json();
    EXPECT_TRUE(JsonChecker::valid(doc));
    const std::string total = std::to_string(audit.table().size());
    EXPECT_NE(doc.find("\"flows_total\": " + total), std::string::npos);
    EXPECT_NE(doc.find("\"rows_emitted\": " + total), std::string::npos);
  }
}

TEST(FlowAuditProbe, RejectsZeroTopK) {
  FlowAuditProbe::Options opts;
  opts.top_k = 0;
  EXPECT_THROW(FlowAuditProbe{opts}, std::invalid_argument);
}

TEST(FlowAuditProbe, DepartureWithoutDispatchFailsLoudly) {
  // Departures log no flow key (the dispatch seeds the slot memo); a
  // departure for a never-dispatched flow is a probe-ordering bug and must
  // not be silently misattributed.
  FlowAuditProbe audit;
  audit.on_run_begin(RunInfo{});
  audit.on_departure(1000, packet_for(5, 100), 0, 0);
  EXPECT_THROW(audit.summary(), std::logic_error);
}

// ----------------------------------------------------------- AfdAccuracy ---

TEST(AfdAccuracyProbe, LapsStreamsSamplesAtEpochs) {
  const ScenarioConfig cfg = golden_scenario("churny", 1, 12.0, false);
  auto sched = make_sched("LAPS");
  AfdAccuracyProbe acc(*sched, 16);
  const SimReport report =
      run_scenario(cfg, *sched, ProbeSet{&acc}, from_us(100.0));
  // 2 ms of simulated time at 100 us epochs plus the final sample.
  ASSERT_GE(acc.samples().size(), 10u);
  EXPECT_EQ(acc.truth().total(), report.offered);
  TimeNs prev = -1;
  for (const auto& s : acc.samples()) {
    EXPECT_GE(s.t, prev);  // run-end sample may coincide with the last epoch
    prev = s.t;
    EXPECT_GE(s.precision, 0.0);
    EXPECT_LE(s.precision, 1.0);
    EXPECT_GE(s.recall, 0.0);
    EXPECT_LE(s.recall, 1.0);
    EXPECT_GE(s.weighted_recall, 0.0);
    EXPECT_LE(s.weighted_recall, 1.0);
    EXPECT_EQ(s.true_positives + s.false_positives, s.claimed);
    EXPECT_LE(s.true_positives, 16u);
  }
  // Under sustained overload the LAPS AFC holds aggressive flows by the
  // end of the run — the probe must actually see the live snapshot.
  EXPECT_GT(acc.samples().back().claimed, 0u);
  EXPECT_TRUE(JsonChecker::valid(acc.to_json()));
}

TEST(AfdAccuracyProbe, FinalSampleWithoutEpochs) {
  const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0, false);
  auto sched = make_sched("LAPS");
  AfdAccuracyProbe acc(*sched);
  run_scenario(cfg, *sched, ProbeSet{&acc}, /*epoch_ns=*/0);
  // No epochs fired; the run-end sample alone must be present.
  ASSERT_EQ(acc.samples().size(), 1u);
  EXPECT_GT(acc.samples()[0].distinct_flows, 0u);
}

TEST(AfdAccuracyProbe, SchedulerWithoutSnapshotClaimsNothing) {
  const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0, false);
  auto sched = make_sched("FCFS");  // default aggressive_snapshot(): empty
  AfdAccuracyProbe acc(*sched);
  run_scenario(cfg, *sched, ProbeSet{&acc}, from_us(200.0));
  ASSERT_FALSE(acc.samples().empty());
  for (const auto& s : acc.samples()) {
    EXPECT_EQ(s.claimed, 0u);
    EXPECT_EQ(s.precision, 0.0);
    EXPECT_EQ(s.recall, 0.0);
  }
}

TEST(LapsScheduler, AggressiveSnapshotMatchesAfcExtraStats) {
  const ScenarioConfig cfg = golden_scenario("churny", 42, 12.0, false);
  auto sched = make_sched("LAPS");
  run_scenario(cfg, *sched);
  // The snapshot is the AFC contents; it can never exceed the AFC size and
  // is non-empty after an overloaded run with promotions.
  const auto snap = sched->aggressive_snapshot();
  EXPECT_LE(snap.size(), 16u);
  EXPECT_GT(snap.size(), 0u);
}

// --------------------------------------------------------- FlightRecorder ---

FlightRecorderConfig small_ring(std::uint64_t drop_storm = 0,
                                std::uint64_t ooo_spike = 0) {
  FlightRecorderConfig cfg;
  cfg.capacity = 8;
  cfg.drop_storm = drop_storm;
  cfg.ooo_spike = ooo_spike;
  cfg.window_ns = from_us(1000.0);
  return cfg;
}

TEST(FlightRecorderProbe, DropStormTriggersAndFreezes) {
  FlightRecorderProbe rec(small_ring(/*drop_storm=*/4));
  rec.on_run_begin(RunInfo{});
  for (std::uint32_t i = 0; i < 4; ++i) {
    rec.on_drop(100 + i, packet_for(i, 100), 0);
  }
  EXPECT_TRUE(rec.triggered());
  EXPECT_EQ(rec.trigger_reason(), "drop_storm");
  EXPECT_TRUE(rec.should_dump());
  // After the trigger the ring records capacity/2 = 4 more events and then
  // freezes: later events must not overwrite the lead-up.
  for (std::uint32_t i = 0; i < 32; ++i) {
    rec.on_service_start(200 + i, packet_for(i, 100), 0, 10, false, false);
  }
  EXPECT_LE(rec.num_events(), 8u);
  const std::string doc = rec.to_json();
  EXPECT_TRUE(JsonChecker::valid(doc));
  EXPECT_NE(doc.find("drop_storm"), std::string::npos);
}

TEST(FlightRecorderProbe, OooSpikeTriggers) {
  FlightRecorderProbe rec(small_ring(0, /*ooo_spike=*/5));
  rec.on_run_begin(RunInfo{});
  rec.on_departure(500, packet_for(1, 100), 0, /*new_ooo=*/5);
  EXPECT_TRUE(rec.triggered());
  EXPECT_EQ(rec.trigger_reason(), "ooo_spike");
}

TEST(FlightRecorderProbe, NoAnomalyNoDumpUnlessForced) {
  FlightRecorderProbe quiet(small_ring());
  quiet.on_run_begin(RunInfo{});
  quiet.on_drop(100, packet_for(1, 50), 0);
  EXPECT_FALSE(quiet.triggered());
  EXPECT_FALSE(quiet.should_dump());

  FlightRecorderConfig forced = small_ring();
  forced.always_dump = true;
  FlightRecorderProbe always(forced);
  always.on_run_begin(RunInfo{});
  EXPECT_FALSE(always.triggered());
  EXPECT_TRUE(always.should_dump());
  EXPECT_TRUE(JsonChecker::valid(always.to_json()));
}

TEST(FlightRecorderProbe, RingKeepsMostRecentEvents) {
  FlightRecorderConfig cfg = small_ring();
  cfg.capacity = 4;
  FlightRecorderProbe rec(cfg);
  rec.on_run_begin(RunInfo{});
  for (std::uint32_t i = 0; i < 10; ++i) {
    rec.on_drop(from_us(1.0) * (i + 1), packet_for(i, 0), 0);
  }
  EXPECT_EQ(rec.num_events(), 4u);
  const std::string doc = rec.to_json();
  EXPECT_TRUE(JsonChecker::valid(doc));
  // Only the four most recent drops (at 7, 8, 9, 10 us) survive, oldest
  // first in the dump.
  EXPECT_EQ(doc.find("\"ts\":6.000"), std::string::npos);
  std::size_t p7 = doc.find("\"ts\":7.000");
  std::size_t p10 = doc.find("\"ts\":10.000");
  EXPECT_NE(p7, std::string::npos);
  EXPECT_NE(p10, std::string::npos);
  EXPECT_LT(p7, p10);
}

TEST(FlightRecorderProbe, TriggersInsideRealOverloadRun) {
  const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0, false);
  auto sched = make_sched("FCFS");
  FlightRecorderConfig rc;
  rc.drop_storm = 16;
  rc.window_ns = from_us(100.0);
  FlightRecorderProbe rec(rc);
  const SimReport report = run_scenario(cfg, *sched, ProbeSet{&rec});
  ASSERT_GT(report.dropped, 0u);  // 12 Mpps on 8 Mpps capacity must drop
  EXPECT_TRUE(rec.triggered());
  EXPECT_EQ(rec.trigger_reason(), "drop_storm");
  EXPECT_GT(rec.num_events(), 0u);
  EXPECT_TRUE(JsonChecker::valid(rec.to_json()));
}

// ------------------------------------- ChromeTrace JSON escaping (pinned) ---

TEST(ChromeTraceProbe, HostileRunLabelsStayValidJson) {
  // Scenario names flow into the trace's process_name metadata verbatim;
  // quotes, backslashes, and control characters must come out escaped.
  ScenarioConfig cfg = golden_scenario("plain", 1, 10.0, false);
  cfg.name = "quo\"ted\\back\nslash\ttab";
  auto sched = make_sched("StaticHash");
  ChromeTraceProbe trace;
  run_scenario(cfg, *sched, ProbeSet{&trace});
  ASSERT_GT(trace.num_events(), 0u);
  const std::string doc = trace.to_json();
  EXPECT_TRUE(JsonChecker::valid(doc));
  EXPECT_NE(doc.find("quo\\\"ted\\\\back\\nslash\\ttab"), std::string::npos);
}

TEST(ChromeTraceProbe, GoldenRunProducesValidJson) {
  const ScenarioConfig cfg = golden_scenario("churny", 42, 12.0, false);
  auto sched = make_sched("LAPS");
  ChromeTraceProbe trace;
  run_scenario(cfg, *sched, ProbeSet{&trace});
  EXPECT_TRUE(JsonChecker::valid(trace.to_json()));
}

}  // namespace
}  // namespace laps
