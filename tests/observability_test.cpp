// Tests for the flow-audit observability subsystem: FlowAuditProbe (exact
// per-flow attribution, deferred-fold event log), AfdAccuracyProbe (online
// Fig. 8 scoring), FlightRecorderProbe (anomaly-triggered postmortem ring),
// plus JSON-validity pinning for every probe artifact (including hostile
// scenario names through the whole-run trace recorder).
//
// The load-bearing assertions are GoldenGridTotalsMatchReport and
// RowsMatchAPerFlowReference: on the same grid the golden determinism suite
// uses, the audit's per-flow columns sum *exactly* to the ReportProbe
// aggregates, and every row equals a per-flow reference that updates a
// std::map in each hook — the audit is a decomposition of the report, not
// a parallel approximation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cctype>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/afs.h"
#include "baselines/fcfs.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "sim/afd_accuracy.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/flight_recorder.h"
#include "sim/flow_audit.h"
#include "sim/probes.h"
#include "sim/runner.h"
#include "sim/scenarios.h"
#include "trace/synthetic.h"
#include "util/fileio.h"

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

// ----------------------------------------------------------- FlowAuditProbe ---

struct AuditTotals {
  std::uint64_t packets = 0, delivered = 0, dropped = 0, migrations = 0,
                ooo = 0, fm = 0, cold = 0, histo = 0;
  std::int64_t latency_sum = 0, latency_max = 0;
};

AuditTotals sum_rows(const FlowAuditProbe& probe) {
  AuditTotals t;
  for (const auto& e : probe.rows()) {
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

// On every cell of the golden grid the audit rows are an exact
// decomposition of the run report.
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
        const AuditTotals t = sum_rows(audit);
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
  // totals must match its own report exactly (on_run_begin leaves no row
  // or index entry of run one behind).
  FlowAuditProbe audit;
  {
    const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0, false);
    auto sched = make_sched("AFS");
    run_scenario(cfg, *sched, ProbeSet{&audit});
    EXPECT_GT(audit.rows().size(), 0u);
  }
  const ScenarioConfig cfg = golden_scenario("churny", 42, 12.0, false);
  auto sched = make_sched("LAPS");
  const SimReport report = run_scenario(cfg, *sched, ProbeSet{&audit});
  const AuditTotals t = sum_rows(audit);
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
  EXPECT_EQ(s.flows, audit.rows().size());
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
    const std::string total = std::to_string(audit.rows().size());
    EXPECT_NE(doc.find("\"flows_total\": " + total), std::string::npos);
    EXPECT_NE(doc.find("\"rows_emitted\": " + total), std::string::npos);
  }
}

// The obviously-correct audit: each hook updates its flow's row in a
// std::map keyed by the 5-tuple key, at once — no log, no fold, no index.
class ReferenceAudit final : public SimProbe {
 public:
  struct Row {
    std::uint64_t packets = 0, delivered = 0, dropped = 0, migrations = 0,
                  out_of_order = 0, fm_penalties = 0, cold_cache = 0;
    std::int64_t latency_sum = 0, latency_max = 0;
    std::array<std::uint32_t, FlowAuditProbe::kLatencyBuckets>
        latency_log2{};
  };

  std::map<std::uint64_t, Row> rows;

  void on_run_begin(const RunInfo&) override { rows.clear(); }
  void on_drop(TimeNs, const SimPacket& pkt, CoreId) override {
    Row& r = rows[pkt.flow_key()];
    ++r.packets;
    ++r.dropped;
  }
  void on_dispatch(TimeNs, const SimPacket& pkt, CoreId,
                   bool migrated) override {
    Row& r = rows[pkt.flow_key()];
    ++r.packets;
    if (migrated) ++r.migrations;
  }
  void on_service_start(TimeNs, const SimPacket& pkt, CoreId, TimeNs,
                        bool fm_penalty, bool cold_cache) override {
    Row& r = rows[pkt.flow_key()];
    if (fm_penalty) ++r.fm_penalties;
    if (cold_cache) ++r.cold_cache;
  }
  void on_departure(TimeNs now, const SimPacket& pkt, CoreId,
                    std::uint32_t new_ooo) override {
    Row& r = rows[pkt.flow_key()];
    const TimeNs latency = now - pkt.arrival;
    ++r.delivered;
    r.out_of_order += new_ooo;
    r.latency_sum += latency;
    r.latency_max = std::max(r.latency_max, latency);
    ++r.latency_log2[FlowAuditProbe::latency_bucket(latency)];
  }
};

bool same_row(const FlowAuditProbe::Entry& e, const ReferenceAudit::Row& r) {
  return e.packets == r.packets && e.delivered == r.delivered &&
         e.dropped == r.dropped && e.migrations == r.migrations &&
         e.out_of_order == r.out_of_order &&
         e.fm_penalties == r.fm_penalties && e.cold_cache == r.cold_cache &&
         e.latency_sum == r.latency_sum && e.latency_max == r.latency_max &&
         e.latency_log2 == r.latency_log2;
}

// Every audit row equals the reference row of its key in every counter and
// latency bucket, and the two hold the same set of flows.
void expect_rows_match(const FlowAuditProbe& audit, const ReferenceAudit& ref,
                       const std::string& ctx) {
  const std::vector<FlowAuditProbe::Entry>& rows = audit.rows();
  EXPECT_EQ(rows.size(), ref.rows.size()) << ctx;
  std::set<std::uint64_t> seen;
  std::size_t differing = 0;
  std::string first;
  for (const FlowAuditProbe::Entry& e : rows) {
    const auto it = ref.rows.find(e.key);
    const bool found = it != ref.rows.end();
    if (found && seen.insert(e.key).second && same_row(e, it->second)) {
      continue;
    }
    if (differing++ > 0) continue;
    first = "key " + std::to_string(e.key) + ": audit " +
            std::to_string(e.packets) + " packets, " +
            std::to_string(e.out_of_order) + " ooo; reference " +
            (found ? std::to_string(it->second.packets) + " packets, " +
                         std::to_string(it->second.out_of_order) + " ooo"
                   : std::string("has no such flow"));
  }
  EXPECT_EQ(differing, 0u) << ctx << " (first: " << first << ")";
}

TEST(FlowAuditProbe, RowsMatchAPerFlowReference) {
  // The 16 cells of GoldenGridTotalsMatchReport.
  for (const std::string trace : {"plain", "churny"}) {
    for (const std::string sched_name : {"FCFS", "StaticHash", "AFS", "LAPS"}) {
      for (std::uint64_t seed : {1ull, 42ull}) {
        const ScenarioConfig cfg = golden_scenario(trace, seed, 12.0, false);
        auto sched = make_sched(sched_name);
        FlowAuditProbe audit;
        ReferenceAudit ref;
        run_scenario(cfg, *sched, ProbeSet{&audit, &ref});
        expect_rows_match(audit, ref,
                          trace + "/" + sched_name + "/" +
                              std::to_string(seed));
      }
    }
  }

  // Fig. 9's single-service AFS cell on caida1 at 5 ms: tens of thousands
  // of flows, so the rows and their gflow index grow many times while the
  // log is folded.
  {
    ScenarioOptions options;
    options.seconds = 0.005;
    options.seed = 99;
    const ScenarioConfig cfg =
        make_single_service_scenario("caida1", options, 1.05);
    AfsScheduler sched;
    FlowAuditProbe audit;
    ReferenceAudit ref;
    run_scenario(cfg, sched, ProbeSet{&audit, &ref});
    EXPECT_GT(audit.rows().size(), 30'000u);
    expect_rows_match(audit, ref, "caida1/AFS/99");
  }

  // The hooks driven directly with more than kMaxPending events, so push()
  // folds the log mid-run with flows in flight across the fold.
  FlowAuditProbe audit;
  ReferenceAudit ref;
  SimProbe* const probes[] = {&audit, &ref};
  std::uint64_t events = 0;
  const auto each = [&](const auto& hook) {
    for (SimProbe* p : probes) hook(*p);
    ++events;
  };
  for (SimProbe* p : probes) p->on_run_begin(RunInfo{});
  std::deque<SimPacket> in_flight;
  std::uint64_t x = 12345;
  const auto depart = [&](TimeNs now, std::uint32_t new_ooo) {
    const SimPacket pkt = in_flight.front();
    in_flight.pop_front();
    each([&](SimProbe& p) { p.on_departure(now, pkt, 0, new_ooo); });
  };
  for (std::uint32_t i = 0; i < 1'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const TimeNs now = TimeNs{100} * i;
    const SimPacket pkt =
        packet_for(static_cast<std::uint32_t>((x >> 33) % 20'000), now);
    if (i % 17 == 0) {
      each([&](SimProbe& p) { p.on_drop(now, pkt, 0); });
    } else {
      each([&](SimProbe& p) { p.on_dispatch(now, pkt, 0, i % 13 == 0); });
      if (i % 5 == 0 || i % 7 == 0) {
        each([&](SimProbe& p) {
          p.on_service_start(now, pkt, 0, 0, i % 5 == 0, i % 7 == 0);
        });
      }
      in_flight.push_back(pkt);
    }
    if (in_flight.size() > 64) {
      depart(now + static_cast<TimeNs>((x >> 20) % 1'000'000),
             i % 11 == 0 ? 1u : 0u);
    }
  }
  while (!in_flight.empty()) depart(TimeNs{200'000'000}, 0);
  ASSERT_GT(events, FlowAuditProbe::kMaxPending);
  expect_rows_match(audit, ref, "direct drive");
}

TEST(FlowAuditProbe, LatencyBucketEdges) {
  // Bucket 0 is everything below 2^kLatencyShift; bucket b covers
  // [2^(b+kLatencyShift-1), 2^(b+kLatencyShift)).
  EXPECT_EQ(FlowAuditProbe::latency_bucket(-5), 0u);
  EXPECT_EQ(FlowAuditProbe::latency_bucket(0), 0u);
  EXPECT_EQ(FlowAuditProbe::latency_bucket(511), 0u);
  EXPECT_EQ(FlowAuditProbe::latency_bucket(512), 1u);
  EXPECT_EQ(FlowAuditProbe::latency_bucket(1023), 1u);
  EXPECT_EQ(FlowAuditProbe::latency_bucket(1024), 2u);
  EXPECT_EQ(FlowAuditProbe::latency_bucket(std::int64_t{1} << 62),
            FlowAuditProbe::kLatencyBuckets - 1);
  // Bounds are the exclusive upper edges of those ranges and monotonic.
  EXPECT_EQ(FlowAuditProbe::latency_bucket_bound(0), 512);
  EXPECT_EQ(FlowAuditProbe::latency_bucket_bound(1), 1024);
  for (std::size_t b = 0; b + 1 < FlowAuditProbe::kLatencyBuckets; ++b) {
    EXPECT_LT(FlowAuditProbe::latency_bucket_bound(b),
              FlowAuditProbe::latency_bucket_bound(b + 1));
  }
}

TEST(FlowAuditProbe, RejectsZeroTopK) {
  FlowAuditProbe::Options opts;
  opts.top_k = 0;
  EXPECT_THROW(FlowAuditProbe{opts}, std::invalid_argument);
}

TEST(FlowAuditProbe, DepartureWithoutDispatchFailsLoudly) {
  // Departures log no flow key (the flow's dispatch opens its row); a
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

// ------------------------------------------------- the whole-run trace ---

// One event line of a recorder dump, reduced to the fields the reference
// below can predict.
struct TraceLine {
  char ph = 0;
  std::string name;
  std::int64_t tid = -1;
  std::optional<std::uint64_t> flow_key, seq, count;
};

std::optional<std::uint64_t> uint_field(const std::string& line,
                                        const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nullopt;
  return std::stoull(line.substr(at + key.size() + 3));
}

std::vector<TraceLine> event_lines(const std::string& doc) {
  std::vector<TraceLine> out;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"ph\":\"", 0) != 0 || line[7] == 'M') continue;
    TraceLine t;
    t.ph = line[7];
    const std::size_t name = line.find("\"name\":\"") + 8;
    t.name = line.substr(name, line.find('"', name) - name);
    t.tid = static_cast<std::int64_t>(*uint_field(line, "tid"));
    t.flow_key = uint_field(line, "flow_key");
    t.seq = uint_field(line, "seq");
    t.count = uint_field(line, "count");
    out.push_back(std::move(t));
  }
  return out;
}

using EventKey = std::tuple<std::int64_t, std::uint64_t, std::uint64_t>;

// Counts each hook the recorder renders, as (row, flow_key, seq|count).
class CountingReference final : public SimProbe {
 public:
  std::multiset<EventKey> spans, drops, ooo;
  std::map<std::string, std::size_t> sched;
  std::uint64_t flushed = 0;

  void on_drop(TimeNs, const SimPacket& pkt, CoreId core) override {
    drops.emplace(core, pkt.flow_key(), pkt.seq);
  }
  void on_service_start(TimeNs, const SimPacket& pkt, CoreId core, TimeNs,
                        bool, bool) override {
    spans.emplace(core, pkt.flow_key(), pkt.seq);
  }
  void on_departure(TimeNs, const SimPacket& pkt, CoreId core,
                    std::uint32_t new_ooo) override {
    if (new_ooo != 0) ooo.emplace(core, pkt.flow_key(), new_ooo);
  }
  void on_sched_event(TimeNs, const SchedEvent& event) override {
    ++sched[SchedEvent::kind_name(event.kind)];
  }
  void on_fault(TimeNs, const FaultEvent&, std::uint32_t n) override {
    flushed += n;
  }
};

// The --trace-out recorder keeps every event: one span per service start,
// one drop instant per drop (fault flushes and dead-route drops included),
// OOO instants that sum to the report, one scheduler-row instant per
// scheduler event, and only flow keys the run's audit knows.
TEST(FlightRecorderProbe, WholeRunTraceMatchesACountingReference) {
  struct Cell {
    std::string trace, sched;
    std::uint64_t seed;
    std::string faults;
  };
  const std::vector<Cell> cells = {
      {"plain", "FCFS", 1, ""},
      {"churny", "AFS", 42, ""},
      {"churny", "LAPS", 1, ""},
      {"plain", "LAPS", 42, "down:1@500us;down:2@700us;up:1@1500us"},
  };
  for (const Cell& c : cells) {
    const std::string ctx = c.trace + "/" + c.sched + "/" +
                            std::to_string(c.seed) + "/" + c.faults;
    ScenarioConfig cfg = golden_scenario(c.trace, c.seed, 12.0, false);
    if (!c.faults.empty()) {
      cfg.faults = std::make_shared<const FaultPlan>(parse_fault_plan(c.faults));
    }
    auto sched = make_sched(c.sched);
    FlightRecorderProbe trace(FlightRecorderConfig::whole_run());
    CountingReference ref;
    FlowAuditProbe audit(FlowAuditProbe::Options{16, 0});
    const SimReport report =
        run_scenario(cfg, *sched, ProbeSet{&trace, &ref, &audit});

    std::set<std::uint64_t> audit_keys;
    for (const auto& row : audit.rows()) audit_keys.insert(row.key);
    std::multiset<EventKey> spans, drops, ooo;
    std::map<std::string, std::size_t> sched_rows;
    std::uint64_t ooo_total = 0;
    std::size_t unknown_keys = 0;
    const std::int64_t sched_row = static_cast<std::int64_t>(cfg.num_cores);
    for (const TraceLine& t : event_lines(trace.to_json())) {
      if (t.tid == sched_row) {
        ++sched_rows[t.name];
        continue;
      }
      ASSERT_TRUE(t.flow_key.has_value()) << ctx << ": " << t.name;
      if (audit_keys.count(*t.flow_key) == 0) ++unknown_keys;
      if (t.ph == 'X') {
        spans.emplace(t.tid, *t.flow_key, t.seq.value_or(~0ull));
      } else if (t.name == "drop") {
        drops.emplace(t.tid, *t.flow_key, t.seq.value_or(~0ull));
      } else {
        ASSERT_EQ(t.name, "ooo") << ctx;
        ooo.emplace(t.tid, *t.flow_key, t.count.value_or(0));
        ooo_total += t.count.value_or(0);
      }
    }
    EXPECT_GT(spans.size(), 0u) << ctx;
    EXPECT_EQ(spans, ref.spans) << ctx;
    EXPECT_EQ(drops.size(), report.dropped) << ctx;
    EXPECT_EQ(drops, ref.drops) << ctx;
    EXPECT_EQ(ooo_total, report.out_of_order) << ctx;
    EXPECT_EQ(ooo, ref.ooo) << ctx;
    EXPECT_EQ(sched_rows, ref.sched) << ctx;
    EXPECT_EQ(unknown_keys, 0u) << ctx;
    if (!c.faults.empty()) {
      EXPECT_GT(ref.flushed, 0u) << ctx << ": the faults flushed nothing";
      EXPECT_EQ(sched_rows["core_down"], 2u) << ctx;
    }
  }
}

// write() streams the to_json() bytes, for the whole-run trace (counter
// tracks included) and for a ring that triggered and froze; a write that
// fails leaves no temp behind.
TEST(FlightRecorderProbe, StreamedWriteMatchesToJson) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("laps_recorder_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto written = [&](const FlightRecorderProbe& rec) {
    const std::string path = (dir / "trace.json").string();
    rec.write(path);
    std::ostringstream bytes;
    bytes << std::ifstream(path).rdbuf();
    return bytes.str();
  };

  const ScenarioConfig cfg = golden_scenario("churny", 1, 12.0, false);
  auto laps = make_sched("LAPS");
  FlightRecorderProbe whole(FlightRecorderConfig::whole_run());
  run_scenario(cfg, *laps, ProbeSet{&whole});
  whole.add_counter(from_us(50.0), "queue_depth", "{\"total\":3,\"max\":2}");
  const std::string doc = whole.to_json();
  EXPECT_TRUE(JsonChecker::valid(doc));
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(written(whole), doc);

  FlightRecorderConfig rc;
  rc.capacity = 64;
  rc.drop_storm = 16;
  FlightRecorderProbe ring(rc);
  auto fcfs = make_sched("FCFS");
  run_scenario(golden_scenario("plain", 1, 12.0, false), *fcfs,
               ProbeSet{&ring});
  ASSERT_TRUE(ring.triggered());
  EXPECT_EQ(ring.num_events(), 64u);
  EXPECT_EQ(written(ring), ring.to_json());

  // Renaming onto a directory fails after every line was written.
  fs::create_directories(dir / "taken.json");
  EXPECT_THROW(whole.write((dir / "taken.json").string()), util::IoError);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
  fs::remove_all(dir);
}

// ------------------------------------- Chrome trace JSON escaping (pinned) ---

TEST(FlightRecorderProbe, HostileRunLabelsStayValidJson) {
  // Scenario names flow into the trace's process_name metadata verbatim;
  // quotes, backslashes, and control characters must come out escaped.
  ScenarioConfig cfg = golden_scenario("plain", 1, 10.0, false);
  cfg.name = "quo\"ted\\back\nslash\ttab";
  auto sched = make_sched("StaticHash");
  FlightRecorderProbe trace(FlightRecorderConfig::whole_run());
  run_scenario(cfg, *sched, ProbeSet{&trace});
  ASSERT_GT(trace.num_events(), 0u);
  const std::string doc = trace.to_json();
  EXPECT_TRUE(JsonChecker::valid(doc));
  EXPECT_NE(doc.find("quo\\\"ted\\\\back\\nslash\\ttab"), std::string::npos);
}

TEST(FlightRecorderProbe, GoldenRunProducesValidJson) {
  const ScenarioConfig cfg = golden_scenario("churny", 42, 12.0, false);
  auto sched = make_sched("LAPS");
  FlightRecorderProbe trace(FlightRecorderConfig::whole_run());
  run_scenario(cfg, *sched, ProbeSet{&trace});
  EXPECT_TRUE(JsonChecker::valid(trace.to_json()));
}

}  // namespace
}  // namespace laps
