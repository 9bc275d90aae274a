// Tests for the live-telemetry subsystem: MetricsRegistry (plain cells
// owned by one thread, freeze once a cell pointer is handed out, reset),
// TelemetryProbe (epoch snapshots, exact end-of-run reconciliation,
// per-policy gauge discovery, reuse across runs), the JSONL windowed series
// and its golden digest, the golden bytes of the JSONL exporter, the
// Chrome-trace counter tracks, the shared duration grammar, and
// PerfCounterScope's graceful degradation.
//
// The load-bearing assertions are:
//  * GoldenGridFinalSnapshotMatchesReport — on the golden determinism grid
//    the probe's final snapshot must equal the SimReport *exactly* (the
//    telemetry stream is the report, sliced in time, not an approximation),
//  * GoldenTelemetryOnDoesNotPerturbTheRun — attaching the probe (with
//    epochs on) leaves the physics byte-identical,
//  * SeriesGolden — the per-window rows rebuilt from the JSONL stream match
//    tests/golden/series_digest.tsv,
//  * TelemetryBytesGolden — the JSONL bytes of the same cells match
//    tests/golden/telemetry_bytes.tsv,
//  * FinalLineCarriesExactLatencyAggregates — the JSONL final line carries
//    the report's exact latency count/sum/max next to the <= 1/32-error
//    bucket quantiles.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/afs.h"
#include "baselines/fcfs.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "exp/scheduler_registry.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/flight_recorder.h"
#include "sim/probes.h"
#include "sim/report_json.h"
#include "sim/runner.h"
#include "sim/scenarios.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/perf_counters.h"
#include "telemetry/probe.h"
#include "trace/synthetic.h"
#include "util/crc.h"
#include "util/duration.h"
#include "util/histogram.h"

#ifndef LAPS_SOURCE_DIR
#error "LAPS_SOURCE_DIR must be defined to locate tests/golden/"
#endif

namespace laps {
namespace {

using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;
using telemetry::TelemetryConfig;
using telemetry::TelemetryProbe;

// ------------------------------------------------------------ test helpers ---

// Same golden scenario the determinism and flow-audit suites pin: small
// enough to run a 16-cell grid in seconds, busy enough to exercise drops,
// reordering, and migrations.
ScenarioConfig golden_scenario(const std::string& trace, std::uint64_t seed,
                               double load_mpps) {
  ScenarioConfig cfg;
  cfg.name = "golden." + trace;
  cfg.num_cores = 4;
  cfg.queue_capacity = 8;
  cfg.seconds = 0.002;
  cfg.seed = seed;
  cfg.restore_order = false;
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

std::size_t index_of(const std::vector<std::string>& names,
                     const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << "instrument not registered: " << name;
  return static_cast<std::size_t>(it - names.begin());
}

std::uint64_t counter_value(const TelemetryProbe& probe,
                            const MetricsSnapshot& snap,
                            const std::string& name) {
  return snap.counters[index_of(probe.registry().counter_names(), name)];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The JSONL series of a finished run, written through a file as the
// harness writes it.
std::string jsonl_of(const TelemetryProbe& probe) {
  // Per process: ctest runs each test in its own process, several at once,
  // and a shared name let one test read or remove another's file.
  const std::string path = testing::TempDir() + "telemetry_exports." +
                           std::to_string(::getpid()) + ".jsonl";
  telemetry::write_telemetry_jsonl(path, probe);
  std::string out = read_file(path);
  std::remove(path.c_str());
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Extracts the integer following `"key":` in a JSON line. The exporter
// emits flat numeric fields, so scanning is enough for the tests.
std::uint64_t json_uint(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing " << key << " in: " << line;
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

// One window of the JSONL series: the line at t_ns closes [previous t_ns,
// t_ns), and the final line closes the rest of the run. Counts are
// differences of consecutive lines. Queue depths are the closing line's
// epoch sample; the final line closes no epoch, so its row keeps
// qdepth_mean -1 and qdepth_max 0.
struct SeriesRow {
  std::uint64_t start_ns = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t drops = 0;
  std::uint64_t departures = 0;
  std::uint64_t migrations = 0;
  std::uint64_t ooo = 0;
  double qdepth_mean = -1.0;
  std::uint64_t qdepth_max = 0;
  std::uint64_t core_grants = 0;
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t afd_promotions = 0;
};

std::vector<SeriesRow> series_rows(const std::vector<std::string>& lines) {
  std::vector<SeriesRow> rows;
  if (lines.empty()) return rows;
  const double cores =
      static_cast<double>(json_uint(lines.back(), "num_cores"));
  const std::string* prev = nullptr;
  for (const std::string& line : lines) {
    const auto delta = [&](const char* key) {
      return json_uint(line, key) - (prev ? json_uint(*prev, key) : 0);
    };
    SeriesRow row;
    row.start_ns = prev ? json_uint(*prev, "t_ns") : 0;
    row.arrivals = delta("engine.offered");
    row.dispatches = delta("engine.dispatched");
    row.drops = delta("engine.dropped");
    row.departures = delta("engine.delivered");
    row.migrations = delta("engine.flow_migrations");
    row.ooo = delta("engine.out_of_order");
    row.core_grants = delta("sched.core_grants");
    row.parks = delta("sched.parks");
    row.wakes = delta("sched.wakes");
    row.afd_promotions = delta("sched.afd_promotions");
    if (&line != &lines.back()) {
      row.qdepth_mean =
          static_cast<double>(json_uint(line, "engine.queue_depth_total")) /
          cores;
      row.qdepth_max = json_uint(line, "engine.queue_depth_max");
    }
    rows.push_back(row);
    prev = &line;
  }
  return rows;
}

// ----------------------------------------------------------- MetricsRegistry ---

TEST(MetricsRegistry, RegistrationIsIdempotentAndOrdered) {
  MetricsRegistry reg;
  const auto a = reg.counter("alpha");
  const auto b = reg.counter("beta");
  const auto a2 = reg.counter("alpha");
  EXPECT_EQ(a.index, a2.index) << "re-registering a name must return its id";
  EXPECT_NE(a.index, b.index);
  const auto g = reg.gauge("alpha");  // separate namespace per kind
  EXPECT_EQ(g.index, 0u);
  const auto h = reg.histogram("lat");
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(reg.counter_names(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(reg.gauge_names(), (std::vector<std::string>{"alpha"}));
  EXPECT_EQ(reg.histogram_names(), (std::vector<std::string>{"lat"}));
}

TEST(MetricsRegistry, FreezesNewNamesOnceACellIsHandedOut) {
  MetricsRegistry reg;
  const auto a = reg.counter("alpha");
  *reg.counter_cell(a) += 3;
  // Existing names still resolve; a new name would reallocate the cells
  // under the pointer just handed out, so it throws.
  EXPECT_EQ(reg.counter("alpha").index, a.index);
  EXPECT_THROW(reg.counter("fresh"), std::logic_error);
  EXPECT_THROW(reg.gauge("fresh"), std::logic_error);
  EXPECT_THROW(reg.histogram("fresh"), std::logic_error);
  EXPECT_EQ(reg.snapshot(0).counters[a.index], 3u);
}

TEST(MetricsRegistry, GaugeIsLastWriteWins) {
  MetricsRegistry reg;
  const auto g = reg.gauge("depth");
  reg.set(g, 41);
  reg.set(g, -7);
  EXPECT_EQ(reg.snapshot(0).gauges[g.index], -7);
}

TEST(MetricsRegistry, SnapshotSequenceIsMonotone) {
  MetricsRegistry reg;
  reg.counter("c");
  const auto s1 = reg.snapshot(10);
  const auto s2 = reg.snapshot(20);
  const auto s3 = reg.snapshot(30);
  EXPECT_LT(s1.seq, s2.seq);
  EXPECT_LT(s2.seq, s3.seq);
  EXPECT_EQ(s2.sim_time, 20);
}

TEST(MetricsRegistry, ResetZeroesEveryInstrumentAndRestartsTheSequence) {
  MetricsRegistry reg;
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  const auto h = reg.histogram("h");
  reg.add(c, 5);
  reg.set(g, -3);
  reg.histogram_cell(h)->record(900);
  reg.snapshot(10);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot(20);
  EXPECT_EQ(snap.seq, 0u);
  EXPECT_EQ(snap.counters, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(snap.gauges, (std::vector<std::int64_t>{0}));
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 0u);
  EXPECT_EQ(snap.histograms[0].max, 0);
  EXPECT_TRUE(reg.histogram_cell(h)->buckets().empty());
  // The instrument set survives a reset.
  EXPECT_EQ(reg.counter_names(), (std::vector<std::string>{"c"}));
}

// ------------------------------------------------------------ duration flags ---

TEST(DurationGrammar, ParsesEverySuffixAndBareNanoseconds) {
  EXPECT_EQ(util::parse_duration("t", "250"), 250);
  EXPECT_EQ(util::parse_duration("t", "5ns"), 5);
  EXPECT_EQ(util::parse_duration("t", "5us"), 5'000);
  EXPECT_EQ(util::parse_duration("t", "2ms"), 2'000'000);
  EXPECT_EQ(util::parse_duration("t", "1s"), 1'000'000'000);
  EXPECT_EQ(util::parse_duration("t", "1.5us"), 1'500);
  EXPECT_EQ(util::parse_duration("t", "0"), 0);
}

TEST(DurationGrammar, RejectsGarbageAndNegativesWithContext) {
  try {
    util::parse_duration("--telemetry", "12parsecs");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--telemetry"), std::string::npos) << what;
    EXPECT_NE(what.find("wants a number"), std::string::npos) << what;
  }
  try {
    util::parse_duration("--telemetry", "-5us");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-negative duration"), std::string::npos) << what;
  }
  // Non-finite values and values past TimeNs are refused, not cast.
  for (const char* value : {"inf", "nan", "1e30s", "9.3e18"}) {
    try {
      util::parse_duration("--telemetry", value);
      ADD_FAILURE() << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--telemetry wants a finite duration"),
                std::string::npos)
          << what;
    }
  }
}

TEST(DurationGrammar, RegistryParameterErrorsMatchByteForByte) {
  // Satellite contract: the scheduler registry's duration parameters and
  // the telemetry flag share one grammar AND one error voice. Pin the
  // registry's message to exactly what util::parse_duration produces for
  // the same context string.
  std::string registry_msg;
  try {
    make_scheduler("laps:idle_th=12parsecs");
    FAIL() << "expected SchedulerSpecError";
  } catch (const SchedulerSpecError& e) {
    registry_msg = e.what();
  }
  std::string util_msg;
  try {
    util::parse_duration("scheduler 'laps': parameter 'idle_th'", "12parsecs");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    util_msg = e.what();
  }
  EXPECT_EQ(registry_msg, util_msg);
}

// ------------------------------------------------------------ TelemetryProbe ---

TEST(TelemetryProbe, GoldenTelemetryOnDoesNotPerturbTheRun) {
  // Attaching the probe turns epochs on; the run's physics must still be
  // byte-identical to the bare run (probes observe, never steer).
  for (const std::string trace : {"plain", "churny"}) {
    const ScenarioConfig cfg = golden_scenario(trace, 42, 12.0);
    auto bare_sched = make_sched("LAPS");
    const SimReport bare = run_scenario(cfg, *bare_sched);

    auto sched = make_sched("LAPS");
    TelemetryProbe probe({}, sched.get());
    const SimReport instrumented =
        run_scenario(cfg, *sched, ProbeSet{&probe}, 100 * kMicrosecond);
    EXPECT_EQ(report_to_json(bare), report_to_json(instrumented)) << trace;
  }
}

TEST(TelemetryProbe, GoldenGridFinalSnapshotMatchesReport) {
  // The reconciliation contract over the golden grid: the final snapshot's
  // engine counters and latency aggregates equal the SimReport exactly.
  for (const std::string trace : {"plain", "churny"}) {
    for (const std::string sched_name :
         {"FCFS", "StaticHash", "AFS", "LAPS"}) {
      for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
        const ScenarioConfig cfg = golden_scenario(trace, seed, 12.0);
        auto sched = make_sched(sched_name);
        TelemetryProbe probe({}, sched.get());
        const SimReport report =
            run_scenario(cfg, *sched, ProbeSet{&probe}, 100 * kMicrosecond);
        ASSERT_TRUE(probe.finished());
        const MetricsSnapshot& fin = probe.final_snapshot();
        const std::string cell =
            trace + "/" + sched_name + "/seed=" + std::to_string(seed);
        EXPECT_EQ(counter_value(probe, fin, "engine.offered"), report.offered)
            << cell;
        EXPECT_EQ(counter_value(probe, fin, "engine.dropped"), report.dropped)
            << cell;
        EXPECT_EQ(counter_value(probe, fin, "engine.delivered"),
                  report.delivered)
            << cell;
        EXPECT_EQ(counter_value(probe, fin, "engine.out_of_order"),
                  report.out_of_order)
            << cell;
        EXPECT_EQ(counter_value(probe, fin, "engine.flow_migrations"),
                  report.flow_migrations)
            << cell;
        const std::size_t h =
            index_of(probe.registry().histogram_names(), "engine.latency_ns");
        ASSERT_LT(h, fin.histograms.size());
        EXPECT_EQ(fin.histograms[h].count, report.latency_ns.count()) << cell;
        EXPECT_EQ(fin.histograms[h].sum, report.latency_ns.sum()) << cell;
        EXPECT_EQ(fin.histograms[h].max, report.latency_ns.max()) << cell;
        // Sanity on the grid itself: the golden load actually exercises
        // the interesting counters somewhere.
        EXPECT_GT(report.offered, 0u) << cell;
      }
    }
  }
}

TEST(TelemetryProbe, StreamsMonotoneSnapshotsAtEpochCadence) {
  const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0);
  auto sched = make_sched("LAPS");
  TelemetryConfig tcfg;
  tcfg.interval = 100 * kMicrosecond;
  TelemetryProbe probe(tcfg, sched.get());
  run_scenario(cfg, *sched, ProbeSet{&probe}, 100 * kMicrosecond);

  // 2ms of simulated time at 100us cadence: one full snapshot at every
  // interval boundary the run crossed, in order, with monotone counters.
  const std::vector<MetricsSnapshot>& snaps = probe.snapshots();
  EXPECT_EQ(snaps.size(), static_cast<std::size_t>(
                              probe.final_snapshot().sim_time / tcfg.interval));
  EXPECT_GE(snaps.size(), 20u);
  const std::size_t offered_idx =
      index_of(probe.registry().counter_names(), "engine.offered");
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].sim_time, static_cast<TimeNs>(i + 1) * tcfg.interval);
    EXPECT_FALSE(snaps[i].histograms.empty())
        << "published snapshots are full snapshots";
    if (i > 0) {
      EXPECT_GT(snaps[i].seq, snaps[i - 1].seq);
      EXPECT_GE(snaps[i].counters[offered_idx],
                snaps[i - 1].counters[offered_idx]);
    }
  }
}

TEST(TelemetryProbe, DropsOnlyWindowIsCounted) {
  // A window holding nothing but drops (a full-queue burst whose arrivals
  // landed in the previous window) still shows them as the difference of
  // the two lines that bound it.
  TelemetryProbe probe;
  RunInfo info;
  info.num_cores = 2;
  probe.on_run_begin(info);
  const std::vector<CoreView> cores(2);
  const auto epoch = [&](TimeNs t) {
    probe.on_epoch(t, cores);
    probe.on_engine_sample(t, EngineSample{});
  };
  epoch(from_us(100.0));
  probe.on_drop(from_us(120.0), SimPacket{}, 0);
  probe.on_drop(from_us(130.0), SimPacket{}, 1);
  epoch(from_us(200.0));
  RunEnd end;
  end.end = from_us(250.0);
  probe.on_run_end(end);

  const std::string path = testing::TempDir() + "telemetry_drops_only.jsonl";
  telemetry::write_telemetry_jsonl(path, probe);
  const std::vector<SeriesRow> rows = series_rows(split_lines(read_file(path)));
  std::remove(path.c_str());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].drops, 0u);
  EXPECT_EQ(rows[1].start_ns, static_cast<std::uint64_t>(from_us(100.0)));
  EXPECT_EQ(rows[1].drops, 2u);
  EXPECT_EQ(rows[1].arrivals, 0u);
  EXPECT_EQ(rows[1].departures, 0u);
  EXPECT_EQ(rows[2].drops, 0u);
}

TEST(TelemetryProbe, ReusedProbeReportsOnlyItsLastRun) {
  // on_run_begin starts every counter, gauge and histogram from zero and
  // restarts the snapshot sequence, so a probe that observed an earlier
  // run exports exactly what a fresh probe exports for the same run.
  const ScenarioConfig cfg = golden_scenario("plain", 42, 12.0);
  auto sched = make_sched("LAPS");
  TelemetryProbe reused({}, sched.get());
  run_scenario(cfg, *sched, ProbeSet{&reused}, 100 * kMicrosecond);
  run_scenario(cfg, *sched, ProbeSet{&reused}, 100 * kMicrosecond);

  auto fresh_sched = make_sched("LAPS");
  TelemetryProbe fresh({}, fresh_sched.get());
  run_scenario(cfg, *fresh_sched, ProbeSet{&fresh}, 100 * kMicrosecond);

  EXPECT_EQ(jsonl_of(reused), jsonl_of(fresh));
}

TEST(TelemetryProbe, DiscoversGaugesPerSchedulerPolicy) {
  // sched.* gauges exist only for mechanisms the policy owns: LAPS has the
  // AFD cache and pinner; StaticHash only the liveness bitmap; FCFS nothing.
  const auto gauges_for = [](const std::string& sched_name) {
    const ScenarioConfig cfg = golden_scenario("plain", 1, 4.0);
    auto sched = make_sched(sched_name);
    TelemetryProbe probe({}, sched.get());
    run_scenario(cfg, *sched, ProbeSet{&probe}, 100 * kMicrosecond);
    return probe.registry().gauge_names();
  };
  const auto has = [](const std::vector<std::string>& names,
                      const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };

  const auto laps = gauges_for("LAPS");
  EXPECT_TRUE(has(laps, "sched.afd_hits"));
  EXPECT_TRUE(has(laps, "sched.afc_occupancy"));
  EXPECT_TRUE(has(laps, "sched.pinned_flows"));

  const auto hash = gauges_for("StaticHash");
  EXPECT_TRUE(has(hash, "sched.core_transitions"));
  EXPECT_FALSE(has(hash, "sched.afd_hits"));
  EXPECT_FALSE(has(hash, "sched.pinned_flows"));

  const auto fcfs = gauges_for("FCFS");
  for (const std::string& name : fcfs) {
    EXPECT_EQ(name.rfind("sched.", 0), std::string::npos)
        << "FCFS must export no sched.* gauges, got " << name;
  }
  // Engine gauges are policy-independent.
  EXPECT_TRUE(has(fcfs, "engine.queue_depth_total"));
  EXPECT_TRUE(has(fcfs, "engine.queue_depth.core0"));
}

// ------------------------------------------------------------- JSONL export ---

TEST(TelemetryExportJsonl, StreamReconcilesAndMarksFinalLine) {
  const ScenarioConfig cfg = golden_scenario("churny", 42, 12.0);
  auto sched = make_sched("LAPS");
  TelemetryProbe probe({}, sched.get());
  const SimReport report =
      run_scenario(cfg, *sched, ProbeSet{&probe}, 100 * kMicrosecond);

  const std::string path = testing::TempDir() + "telemetry_stream.jsonl";
  const std::size_t written = telemetry::write_telemetry_jsonl(path, probe);

  const std::vector<std::string> lines = split_lines(read_file(path));
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(written, lines.size());
  EXPECT_EQ(lines.size(), probe.snapshots().size() + 1);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("\"final\""), std::string::npos)
        << "only the last line is final";
  }
  const std::string& fin = lines.back();
  EXPECT_NE(fin.find("\"final\":true"), std::string::npos);
  EXPECT_NE(fin.find("\"scenario\":\"golden.churny\""), std::string::npos);
  EXPECT_NE(fin.find("\"scheduler\":\"" + sched->name() + "\""),
            std::string::npos);
  EXPECT_EQ(json_uint(fin, "num_cores"), cfg.num_cores);
  EXPECT_EQ(json_uint(fin, "interval_ns"),
            static_cast<std::uint64_t>(100 * kMicrosecond));
  EXPECT_EQ(json_uint(fin, "engine.offered"), report.offered);
  EXPECT_EQ(json_uint(fin, "engine.delivered"), report.delivered);
  EXPECT_EQ(json_uint(fin, "engine.dropped"), report.dropped);
  EXPECT_EQ(json_uint(fin, "engine.out_of_order"), report.out_of_order);
  EXPECT_EQ(json_uint(fin, "engine.flow_migrations"), report.flow_migrations);
  std::remove(path.c_str());
}

TEST(TelemetryExportJsonl, MidRunLinesAreTimeOrderedPrefixSums) {
  const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0);
  auto sched = make_sched("AFS");
  TelemetryProbe probe({}, sched.get());
  const SimReport report =
      run_scenario(cfg, *sched, ProbeSet{&probe}, 100 * kMicrosecond);

  const std::string path = testing::TempDir() + "telemetry_prefix.jsonl";
  telemetry::write_telemetry_jsonl(path, probe);
  const std::vector<std::string> lines = split_lines(read_file(path));
  ASSERT_GE(lines.size(), 2u);
  std::uint64_t last_t = 0;
  std::uint64_t last_delivered = 0;
  for (const std::string& line : lines) {
    const std::uint64_t t = json_uint(line, "t_ns");
    const std::uint64_t delivered = json_uint(line, "engine.delivered");
    EXPECT_GE(t, last_t);
    EXPECT_GE(delivered, last_delivered);
    EXPECT_LE(delivered, report.delivered);
    last_t = t;
    last_delivered = delivered;
  }
  EXPECT_EQ(last_delivered, report.delivered);
  std::remove(path.c_str());
}

TEST(TelemetryExportJsonl, LongRunExportsEveryEpoch) {
  // 2 ms at a 400 ns interval is about 5,000 epochs, more than a buffer of
  // a few thousand snapshots would hold: every one reaches the file, in
  // order, and the returned count is the file's line count.
  const ScenarioConfig cfg = golden_scenario("plain", 1, 4.0);
  auto sched = make_sched("AFS");
  TelemetryConfig tcfg;
  tcfg.interval = 400;
  TelemetryProbe probe(tcfg, sched.get());
  run_scenario(cfg, *sched, ProbeSet{&probe}, tcfg.interval);

  const std::string path = testing::TempDir() + "telemetry_long.jsonl";
  const std::size_t written = telemetry::write_telemetry_jsonl(path, probe);
  const std::vector<std::string> lines = split_lines(read_file(path));
  std::remove(path.c_str());
  ASSERT_GT(lines.size(), 4096u);
  EXPECT_EQ(written, lines.size());
  const std::uint64_t interval = static_cast<std::uint64_t>(tcfg.interval);
  EXPECT_EQ(lines.size(), json_uint(lines.back(), "t_ns") / interval + 1);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    ASSERT_EQ(json_uint(lines[i], "t_ns"), (i + 1) * interval) << "line " << i;
  }
}

// --------------------------------------------------- windowed-series golden ---

// Pins the JSONL series end to end: for each cell, the rows series_rows()
// rebuilds from the written stream hash to the CRC32 recorded in
// tests/golden/series_digest.tsv. The cells are the paper's T1 and T8
// mixes over 5 ms, where LAPS grants cores and power gating parks and wakes
// them, with and without a random fault plan. Regenerate (only when a
// change intends to alter the series) with
// LAPS_REGEN_GOLDEN=1 ./telemetry_test --gtest_filter='SeriesGolden.Regenerate'.
const char* kSeriesGoldenPath =
    LAPS_SOURCE_DIR "/tests/golden/series_digest.tsv";
constexpr TimeNs kSeriesWindow = 100 * kMicrosecond;

struct SeriesCell {
  const char* scenario;
  const char* scheduler;
  bool faulted;
};

std::vector<SeriesCell> series_grid() {
  std::vector<SeriesCell> cells;
  for (const char* scenario : {"T1", "T8"}) {
    for (const char* scheduler : {"fcfs", "afs", "laps", "laps:power=1"}) {
      for (const bool faulted : {false, true}) {
        cells.push_back({scenario, scheduler, faulted});
      }
    }
  }
  return cells;
}

std::string series_key(const SeriesCell& cell) {
  return std::string(cell.scenario) + "|" + cell.scheduler + "|" +
         (cell.faulted ? "faults" : "clean");
}

std::string run_series_cell(const SeriesCell& cell) {
  ScenarioOptions options;
  options.seconds = 0.005;
  ScenarioConfig config = make_paper_scenario(cell.scenario, options);
  if (cell.faulted) {
    RandomFaultParams params;
    params.horizon = from_seconds(options.seconds);
    params.num_cores = options.num_cores;
    config.faults = std::make_shared<const FaultPlan>(
        random_fault_plan(options.seed, params));
  }
  auto sched = make_scheduler(cell.scheduler);
  TelemetryConfig tcfg;
  tcfg.interval = kSeriesWindow;
  TelemetryProbe probe(tcfg, sched.get());
  run_scenario(config, *sched, ProbeSet{&probe}, kSeriesWindow);
  return jsonl_of(probe);
}

std::uint32_t crc_of(const std::string& bytes) {
  return crc32_ieee(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

std::string series_digest_line(const SeriesCell& cell) {
  const std::vector<SeriesRow> rows =
      series_rows(split_lines(run_series_cell(cell)));
  std::ostringstream text;
  text.precision(17);
  SeriesRow total;
  for (const SeriesRow& r : rows) {
    text << r.start_ns << ' ' << r.arrivals << ' ' << r.dispatches << ' '
         << r.drops << ' ' << r.departures << ' ' << r.migrations << ' '
         << r.ooo << ' ' << r.qdepth_mean << ' ' << r.qdepth_max << ' '
         << r.core_grants << ' ' << r.parks << ' ' << r.wakes << ' '
         << r.afd_promotions << '\n';
    total.arrivals += r.arrivals;
    total.drops += r.drops;
    total.migrations += r.migrations;
    total.core_grants += r.core_grants;
    total.parks += r.parks;
    total.wakes += r.wakes;
  }
  std::ostringstream line;
  line << series_key(cell) << '\t' << rows.size() << '\t'
       << crc_of(text.str()) << '\t' << total.arrivals << '\t' << total.drops
       << '\t' << total.migrations << '\t' << total.core_grants << '\t'
       << total.parks << '\t' << total.wakes;
  return line.str();
}

bool series_regen_requested() {
  const char* env = std::getenv("LAPS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

using DigestLine = std::string (*)(const SeriesCell&);

// Rewrites `path`: the `header` comment lines, then one digest line per
// series_grid() cell.
void write_golden(const char* path, const char* header, DigestLine digest) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << header;
  for (const SeriesCell& cell : series_grid()) out << digest(cell) << "\n";
  ASSERT_TRUE(out.good());
}

void expect_golden(const char* path, DigestLine digest) {
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  }
  const std::vector<SeriesCell> cells = series_grid();
  ASSERT_EQ(golden.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // Each line starts with its cell's key, so a mismatch names the cell.
    EXPECT_EQ(golden[i], digest(cells[i])) << "diverged from " << path;
  }
}

TEST(SeriesGolden, Regenerate) {
  if (!series_regen_requested()) {
    GTEST_SKIP() << "set LAPS_REGEN_GOLDEN=1 to rewrite " << kSeriesGoldenPath;
  }
  write_golden(kSeriesGoldenPath,
               "# windowed-series goldens: key, windows, CRC32(rows), "
               "arrivals, drops, migrations, core_grants, parks, wakes\n"
               "# regenerate with: LAPS_REGEN_GOLDEN=1 ./telemetry_test "
               "--gtest_filter='SeriesGolden.Regenerate'\n",
               series_digest_line);
}

TEST(SeriesGolden, StreamDifferencesMatchGolden) {
  if (series_regen_requested()) {
    GTEST_SKIP() << "regeneration run; comparisons are meaningless";
  }
  expect_golden(kSeriesGoldenPath, series_digest_line);
}

// ---------------------------------------------------------- exporter bytes ---

// Pins every byte the JSONL exporter writes for the SeriesGolden cells,
// including what the window columns above leave out: the per-core and
// sched.* gauges, each line's p50/p90/p99 and seq, and the final line's
// labels. One line per cell: key, then length and CRC32 of the JSONL file.
// Regenerate (only when a change intends to alter the exported bytes) with
// LAPS_REGEN_GOLDEN=1 ./telemetry_test --gtest_filter='TelemetryBytesGolden.Regenerate'.
const char* kBytesGoldenPath =
    LAPS_SOURCE_DIR "/tests/golden/telemetry_bytes.tsv";

std::string bytes_digest_line(const SeriesCell& cell) {
  const std::string jsonl = run_series_cell(cell);
  std::ostringstream line;
  line << series_key(cell) << '\t' << jsonl.size() << '\t' << crc_of(jsonl);
  return line.str();
}

TEST(TelemetryBytesGolden, Regenerate) {
  if (!series_regen_requested()) {
    GTEST_SKIP() << "set LAPS_REGEN_GOLDEN=1 to rewrite " << kBytesGoldenPath;
  }
  write_golden(kBytesGoldenPath,
               "# telemetry exporter goldens: key, JSONL bytes, CRC32(JSONL)\n"
               "# regenerate with: LAPS_REGEN_GOLDEN=1 ./telemetry_test "
               "--gtest_filter='TelemetryBytesGolden.Regenerate'\n",
               bytes_digest_line);
}

TEST(TelemetryBytesGolden, ExportsMatchGolden) {
  if (series_regen_requested()) {
    GTEST_SKIP() << "regeneration run; comparisons are meaningless";
  }
  expect_golden(kBytesGoldenPath, bytes_digest_line);
}

// ------------------------------------------------- JSONL labels and totals ---

TEST(TelemetryExportJsonl, HostileRunLabelsStayOnOneLine) {
  ScenarioConfig cfg = golden_scenario("plain", 1, 4.0);
  cfg.name = "evil\"quote\\slash\nnewline";
  auto sched = make_sched("FCFS");
  TelemetryProbe probe({}, sched.get());
  run_scenario(cfg, *sched, ProbeSet{&probe}, 100 * kMicrosecond);

  const std::vector<std::string> lines = split_lines(jsonl_of(probe));
  // No raw newline may tear a line: one line per snapshot, then the final.
  ASSERT_EQ(lines.size(), probe.snapshots().size() + 1);
  EXPECT_NE(
      lines.back().find("\"scenario\":\"evil\\\"quote\\\\slash\\nnewline\""),
      std::string::npos)
      << lines.back().substr(0, 400);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << "torn line: " << line;
    EXPECT_EQ(line.back(), '}') << "torn line: " << line;
  }
}

TEST(TelemetryExportJsonl, FinalLineCarriesExactLatencyAggregates) {
  // The histogram's count, sum and max are exact (not bucket-derived), so
  // consumers compute true means from the final line.
  const ScenarioConfig cfg = golden_scenario("churny", 42, 12.0);
  auto sched = make_sched("LAPS");
  TelemetryProbe probe({}, sched.get());
  const SimReport report =
      run_scenario(cfg, *sched, ProbeSet{&probe}, 100 * kMicrosecond);
  ASSERT_GT(report.latency_ns.count(), 0u);

  const std::vector<std::string> lines = split_lines(jsonl_of(probe));
  ASSERT_FALSE(lines.empty());
  const std::string& fin = lines.back();
  const std::size_t at = fin.find("\"engine.latency_ns\":{");
  ASSERT_NE(at, std::string::npos) << fin.substr(0, 400);
  const std::string latency = fin.substr(at, fin.find('}', at) - at);
  EXPECT_EQ(json_uint(latency, "count"), report.latency_ns.count());
  EXPECT_EQ(static_cast<std::int64_t>(json_uint(latency, "sum")),
            report.latency_ns.sum());
  EXPECT_EQ(static_cast<std::int64_t>(json_uint(latency, "max")),
            report.latency_ns.max());
}

// ----------------------------------------------------- Chrome counter tracks ---

TEST(TelemetryProbe, MergesCounterTracksIntoChromeTrace) {
  const ScenarioConfig cfg = golden_scenario("plain", 1, 12.0);
  auto sched = make_sched("LAPS");
  FlightRecorderProbe trace(FlightRecorderConfig::whole_run());
  TelemetryProbe probe({}, sched.get(), &trace);
  run_scenario(cfg, *sched, ProbeSet{&probe, &trace}, 100 * kMicrosecond);

  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos)
      << "telemetry must add counter ('C') events";
  EXPECT_NE(json.find("queue_depth"), std::string::npos);
  EXPECT_NE(json.find("occupancy"), std::string::npos);
}

// ------------------------------------------------------------- perf counters ---

TEST(TelemetryPerfCounters, DegradesToNoOpWhenHardwareDenied) {
  telemetry::PerfCounterScope scope;
  scope.start();
  // Some work between start and stop so live counters have something to see.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100'000; ++i) {
    sink = sink + static_cast<std::uint64_t>(i) * 3;
  }
  const telemetry::PerfCounterReading r = scope.stop();
  if (scope.available()) {
    EXPECT_TRUE(r.available);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.instructions, 0.0);
    EXPECT_GT(r.ipc(), 0.0);
  } else {
    // Locked-down container / CI: the whole API must be an exact no-op.
    EXPECT_FALSE(r.available);
    EXPECT_EQ(r.cycles, 0.0);
    EXPECT_EQ(r.instructions, 0.0);
    EXPECT_EQ(r.cache_misses, 0.0);
    EXPECT_EQ(r.branch_misses, 0.0);
    EXPECT_EQ(r.ipc(), 0.0);
  }
}

TEST(TelemetryPerfCounters, RestartableWithoutLeakingState) {
  telemetry::PerfCounterScope scope;
  for (int rep = 0; rep < 3; ++rep) {
    scope.start();
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 10'000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    const telemetry::PerfCounterReading r = scope.stop();
    EXPECT_EQ(r.available, scope.available());
  }
}

}  // namespace
}  // namespace laps
