// Tests for the parallel experiment engine: parallel_for, the shared
// trace store, plan/runner determinism (the bit-identical-across---jobs
// contract), JSON serialization, and the shared CLI harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/fcfs.h"
#include "baselines/static_hash.h"
#include "exp/experiment.h"
#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/report_json.h"
#include "sim/runner.h"
#include "trace/synthetic.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/parallel.h"

namespace laps {
namespace {

// ------------------------------------------------------------ parallel_for ---

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t jobs : {1u, 3u, 8u}) {
    for (const std::size_t n : {0u, 1u, 2u, 100u}) {
      std::vector<std::atomic<int>> runs(n);
      parallel_for(jobs, n, [&](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "jobs=" << jobs << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, RunsOnAtMostMinOfJobsAndNThreads) {
  for (const std::size_t jobs : {1u, 3u, 8u}) {
    for (const std::size_t n : {1u, 2u, 100u}) {
      std::mutex mutex;
      std::set<std::thread::id> seen;
      parallel_for(jobs, n, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(std::this_thread::get_id());
      });
      EXPECT_LE(seen.size(), std::min(jobs, n))
          << "jobs=" << jobs << " n=" << n;
      if (jobs == 1 || n == 1) {
        // Inline: the caller runs everything and no thread starts.
        EXPECT_EQ(seen, std::set<std::thread::id>{std::this_thread::get_id()});
      }
    }
  }
}

TEST(ParallelFor, LowestThrowingIndexIsRethrownAfterEveryIndexRan) {
  for (const std::size_t jobs : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> runs(100);
    try {
      parallel_for(jobs, runs.size(), [&](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        // Index 3 throws last when threads run, so "first thrown" would
        // report 7.
        if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (i == 7 || i == 3) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "jobs=" << jobs;
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ParallelFor, ResolveJobsMapsZeroToHardwareConcurrency) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(3), 3u);
}

TEST(ParallelIndexMap, ResultsInIndexOrderRegardlessOfJobs) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const auto out = parallel_index_map(
        jobs, 100, [](std::size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) * 3);
    }
  }
}

TEST(ParallelIndexMap, ZeroItemsYieldsEmpty) {
  const auto out =
      parallel_index_map(4, 0, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------------------------- TraceStore ---

TEST(TraceStore, CursorReplaysExactlyTheDirectTrace) {
  TraceStore store;
  // auck1 and caida1 both churn, so their identity tables fill in as they
  // are read; the reset must clear them along with the RNG.
  for (const std::string name : {"auck1", "caida1"}) {
    auto cursor = store.open(name);
    for (int pass = 0; pass < 2; ++pass) {
      auto direct = make_trace(name);
      for (int i = 0; i < 5'000; ++i) {
        const auto a = cursor->next();
        const auto b = direct->next();
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(b.has_value());
        ASSERT_EQ(a->tuple.key64(), b->tuple.key64())
            << name << " pass " << pass << " record " << i;
        ASSERT_EQ(a->flow_id, b->flow_id);
        ASSERT_EQ(a->size_bytes, b->size_bytes);
      }
      cursor->reset();
    }
  }
}

TEST(TraceStore, ResetReplaysIdentically) {
  TraceStore store;
  auto cursor = store.open("auck1");
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 1'000; ++i) first.push_back(cursor->next()->tuple.key64());
  cursor->reset();
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_EQ(cursor->next()->tuple.key64(), first[i]) << "record " << i;
  }
}

// The one thing a name materializes is its model's Zipf table: the second
// open reuses the first one's.
TEST(TraceStore, TwoCursorsShareOneMaterialization) {
  TraceStore store;
  auto a = store.open("auck2");
  auto b = store.open("auck2");
  const auto* sa = dynamic_cast<const SyntheticTrace*>(a.get());
  const auto* sb = dynamic_cast<const SyntheticTrace*>(b.get());
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(&sa->zipf(), &sb->zipf()) << "the second open rebuilt the table";
  // Interleave reads at different paces; both see the same stream.
  std::vector<std::uint64_t> seen_a, seen_b;
  for (int i = 0; i < 300; ++i) seen_a.push_back(a->next()->tuple.key64());
  for (int i = 0; i < 900; ++i) seen_b.push_back(b->next()->tuple.key64());
  for (int i = 0; i < 600; ++i) seen_a.push_back(a->next()->tuple.key64());
  ASSERT_EQ(seen_a.size(), 900u);
  EXPECT_EQ(seen_a, seen_b);
}

TEST(TraceStore, ForwardsMetadataThroughCursor) {
  TraceStore store;
  auto cursor = store.open("auck1");
  auto direct = make_trace("auck1");
  EXPECT_EQ(cursor->name(), direct->name());
  EXPECT_EQ(cursor->flow_count_hint(), direct->flow_count_hint());
  std::vector<std::uint16_t> sa, sb;
  std::vector<double> wa, wb;
  EXPECT_TRUE(cursor->size_mix(sa, wa));
  EXPECT_TRUE(direct->size_mix(sb, wb));
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(wa, wb);
}

TEST(TraceStore, RegisteredTraceEndsAtEof) {
  TraceStore store;
  class FiniteSource final : public TraceSource {
   public:
    std::optional<PacketRecord> next() override {
      if (pos_ >= 40) return std::nullopt;
      PacketRecord rec;
      rec.flow_id = pos_++;
      return rec;
    }
    void reset() override { pos_ = 0; }
    std::string name() const override { return "finite40"; }

   private:
    std::uint32_t pos_ = 0;
  };
  store.register_trace("finite40", [] { return std::make_shared<FiniteSource>(); });
  auto cursor = store.open("finite40");
  int n = 0;
  while (cursor->next()) ++n;
  EXPECT_EQ(n, 40);
  EXPECT_FALSE(cursor->next().has_value()) << "EOF is sticky";
  cursor->reset();
  n = 0;
  while (cursor->next()) ++n;
  EXPECT_EQ(n, 40);
}

TEST(TraceStore, ConcurrentCursorsSeeOneConsistentStream) {
  // Four threads open one name at once: the first builds its model while
  // the others wait, and every copy replays the same stream.
  TraceStore store;
  constexpr int kRecords = 20'000;
  std::vector<std::vector<std::uint64_t>> streams(4);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&store, &streams, t] {
        auto cursor = store.open("auck3");
        for (int i = 0; i < kRecords; ++i) {
          streams[t].push_back(cursor->next()->tuple.key64());
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < 4; ++t) {
    ASSERT_EQ(streams[t], streams[0]) << "cursor " << t << " diverged";
  }
}

TEST(TraceStore, UnknownTraceNameThrows) {
  TraceStore store;
  EXPECT_THROW(store.open("no_such_trace"), std::out_of_range);
}

// ------------------------------------------------------- plan and runner ---

ScenarioConfig tiny_config(const std::string& name, std::uint64_t seed,
                           std::shared_ptr<TraceSource> trace) {
  ScenarioConfig cfg;
  cfg.name = name;
  cfg.num_cores = 2;
  cfg.seconds = 0.004;
  cfg.seed = seed;
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{2.0, 0.0, 0.0, 10.0, 0.0};
  s.trace = std::move(trace);
  cfg.services = {s};
  return cfg;
}

ExperimentPlan tiny_plan(std::shared_ptr<TraceStore> store,
                         std::uint64_t plan_seed = 7,
                         ExperimentPlan::GroupRunner runner = {}) {
  const std::vector<SchedulerSpec> schedulers = {
      {"FCFS", [] { return std::make_unique<FcfsScheduler>(); }},
      {"StaticHash", [] { return std::make_unique<StaticHashScheduler>(); }},
  };
  ExperimentPlan plan(plan_seed);
  plan.add_grid({"auck1", "auck2"}, schedulers, plan.replicate_seeds(2),
                [store](const std::string& trace, std::uint64_t seed) {
                  return tiny_config(trace, seed, store->open(trace));
                },
                std::move(runner));
  return plan;
}

TEST(ExperimentPlan, DeriveSeedIsDeterministicAndSpread) {
  EXPECT_EQ(ExperimentPlan::derive_seed(1, 0), ExperimentPlan::derive_seed(1, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 64; ++s) {
    seeds.insert(ExperimentPlan::derive_seed(42, s));
  }
  EXPECT_EQ(seeds.size(), 64u) << "streams must not collide";
  EXPECT_NE(ExperimentPlan::derive_seed(1, 0), ExperimentPlan::derive_seed(2, 0));
}

TEST(ExperimentPlan, GridExpandsScenarioMajor) {
  auto store = std::make_shared<TraceStore>();
  const auto plan = tiny_plan(store);
  ASSERT_EQ(plan.size(), 8u);  // 2 traces x 2 schedulers x 2 seeds
  EXPECT_EQ(plan.jobs()[0].scenario, "auck1");
  EXPECT_EQ(plan.jobs()[0].scheduler, "FCFS");
  EXPECT_EQ(plan.jobs()[1].scheduler, "FCFS");
  EXPECT_NE(plan.jobs()[0].seed, plan.jobs()[1].seed);
  EXPECT_EQ(plan.jobs()[2].scheduler, "StaticHash");
  EXPECT_EQ(plan.jobs()[4].scenario, "auck2");
}

TEST(ExperimentPlan, RejectsNullJobAndBuilder) {
  ExperimentPlan plan;
  EXPECT_THROW(plan.add("s", "x", 0, nullptr), std::invalid_argument);
  EXPECT_THROW(plan.add_grid({"a"}, {{"x", nullptr}}, {1},
                             [](const std::string&, std::uint64_t) {
                               return ScenarioConfig{};
                             }),
               std::invalid_argument);
}

TEST(ParallelRunner, EmptyPlanYieldsEmptyResults) {
  ExperimentPlan plan;
  ParallelRunner runner(4);
  const auto results = runner.run(plan);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(runner.stats().jobs_used, 0u);
}

TEST(ParallelRunner, ResultsInPlanOrderWithPlanLabels) {
  auto store = std::make_shared<TraceStore>();
  const auto plan = tiny_plan(store);
  ParallelRunner runner(4);
  const auto results = runner.run(plan);
  ASSERT_EQ(results.size(), plan.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].scenario, plan.jobs()[i].scenario);
    EXPECT_EQ(results[i].scheduler, plan.jobs()[i].scheduler);
    EXPECT_EQ(results[i].report.scenario, plan.jobs()[i].scenario);
    EXPECT_EQ(results[i].report.scheduler, plan.jobs()[i].scheduler);
    EXPECT_GT(results[i].report.offered, 0u);
  }
}

// Containment contract: a throwing job fails its own cell — captured as a
// structured JobError — and never propagates out of run() or disturbs the
// rest of the grid. Cells are deterministic, so the throwing job runs once.
TEST(ParallelRunner, JobExceptionIsContainedAsJobError) {
  auto runs = std::make_shared<std::atomic<int>>(0);
  ExperimentPlan plan;
  plan.add("boom", "X", 0, [runs]() -> SimReport {
    runs->fetch_add(1);
    throw std::runtime_error("job exploded");
  });
  plan.add("fine", "X", 1, []() -> SimReport {
    SimReport r;
    r.offered = 7;
    return r;
  });
  ParallelRunner runner(2);
  const auto results = runner.run(plan);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].error->kind, "exception");
  EXPECT_EQ(results[0].error->message, "job exploded");
  EXPECT_EQ(runs->load(), 1);
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[1].report.offered, 7u);
  EXPECT_EQ(runner.stats().jobs_failed, 1u);
}

// The tentpole contract: identical artifacts whatever --jobs is. Each run
// gets a fresh store (stores are shared within a run, never across runs).
TEST(ParallelRunner, ArtifactBytesIdenticalAcrossThreadCounts) {
  auto artifact_at = [](std::size_t jobs) {
    auto store = std::make_shared<TraceStore>();
    const auto plan = tiny_plan(store);
    ParallelRunner runner(jobs);
    return artifact_json("determinism_test", runner.run(plan));
  };
  const std::string serial = artifact_at(1);
  EXPECT_EQ(serial, artifact_at(4));
  EXPECT_EQ(serial, artifact_at(0));  // hardware concurrency
}

// The per-run telemetry and trace files obey the same contract. Every
// worker builds, writes, snapshots and exports its own probes, and each
// telemetry probe merges its counter tracks into its cell's trace, so under
// TSan this is the check that no probe state is shared between grid
// threads.
TEST(ObservedGrid, TelemetryFilesIdenticalAcrossJobCounts) {
  namespace fs = std::filesystem;
  auto files_at = [](const std::string& jobs) {
    const fs::path dir =
        fs::path(testing::TempDir()) / ("observed_grid_jobs" + jobs);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string jobs_flag = "--jobs=" + jobs;
    const std::string out_flag =
        "--telemetry-out=" + (dir / "t.jsonl").string();
    const std::string trace_flag =
        "--trace-out=" + (dir / "tr.json").string();
    const char* argv[] = {"prog", jobs_flag.c_str(), out_flag.c_str(),
                          trace_flag.c_str()};
    Flags flags(4, argv);
    const HarnessOptions opts = parse_harness_flags(flags);
    flags.finish();
    auto store = std::make_shared<TraceStore>();
    const auto plan = tiny_plan(store, 7, observed_runner(opts));
    ParallelRunner runner = make_runner(opts);
    for (const JobResult& r : runner.run(plan)) {
      EXPECT_TRUE(r.ok()) << r.scenario << "/" << r.scheduler;
    }
    std::map<std::string, std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      files[entry.path().filename().string()] = bytes.str();
    }
    fs::remove_all(dir);
    return files;
  };
  // A line of `trace` is a counter ('C') event of track `name`.
  const auto has_track = [](const std::string& trace, const std::string& name) {
    std::istringstream in(trace);
    for (std::string line; std::getline(in, line);) {
      if (line.find("\"ph\":\"C\"") != std::string::npos &&
          line.find("\"name\":\"" + name + "\"") != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  const auto serial = files_at("1");
  EXPECT_EQ(serial.size(), 16u);  // one JSONL and one trace per run
  std::size_t traces = 0;
  for (const auto& [file, bytes] : serial) {
    if (file.rfind("tr.", 0) != 0) continue;
    ++traces;
    for (const char* track : {"queue_depth", "occupancy", "totals"}) {
      EXPECT_TRUE(has_track(bytes, track)) << file << ": no " << track;
    }
  }
  EXPECT_EQ(traces, 8u);
  EXPECT_EQ(serial, files_at("3"));
}

// ------------------------------------------------------------------ JSON ---

TEST(JsonWriter, EscapesAndFormatsDeterministically) {
  JsonWriter w;
  w.begin_object();
  w.field("s", std::string("a\"b\\c\n\t\x01"));
  w.field("t", true);
  w.field("i", std::int64_t{-3});
  w.field("u", std::uint64_t{18446744073709551615ULL});
  w.field("d", 0.1);
  w.field("e", 1e300);
  w.key("a");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.end_object();
  const std::string doc = w.str();
  EXPECT_NE(doc.find("\"a\\\"b\\\\c\\n\\t\\u0001\""), std::string::npos);
  EXPECT_NE(doc.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(doc.find("\"d\": 0.1"), std::string::npos) << doc;
  EXPECT_NE(doc.find("1e+300"), std::string::npos) << doc;
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_object();
  w.field("nan", std::numeric_limits<double>::quiet_NaN());
  w.field("inf", std::numeric_limits<double>::infinity());
  w.end_object();
  EXPECT_NE(w.str().find("\"nan\": null"), std::string::npos);
  EXPECT_NE(w.str().find("\"inf\": null"), std::string::npos);
}

TEST(ReportJson, RoundTripStableAndSortedExtras) {
  SimReport r;
  r.scheduler = "LAPS";
  r.scenario = "T1";
  r.offered = 10;
  r.delivered = 8;
  r.dropped = 2;
  r.extra["zeta"] = 1.0;
  r.extra["alpha"] = 2.0;
  const std::string a = report_to_json(r);
  const std::string b = report_to_json(r);
  EXPECT_EQ(a, b);
  EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\"")) << "extras sorted";
  EXPECT_NE(a.find("\"drop_ratio\": 0.2"), std::string::npos) << a;
}

TEST(ArtifactJson, ContainsSchemaReportsAndTables) {
  Table t({"col1", "col2"});
  t.add_row({"a", "b"});
  JobResult res;
  res.scenario = "s1";
  res.scheduler = "FCFS";
  res.seed = 9;
  const std::string doc = artifact_json("mytool", {res}, {{"tbl", &t}});
  EXPECT_NE(doc.find("\"schema\": \"laps-bench-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"tool\": \"mytool\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\": 9"), std::string::npos);
  EXPECT_NE(doc.find("\"title\": \"tbl\""), std::string::npos);
  EXPECT_NE(doc.find("\"col1\""), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
}

TEST(ArtifactJson, NullTableIsAnError) {
  EXPECT_THROW(artifact_json("t", {}, {{"missing", nullptr}}),
               std::invalid_argument);
}

// --------------------------------------------------------------- harness ---

TEST(Harness, ParsesJobsAndJsonFlags) {
  const char* argv[] = {"prog", "--jobs=3", "--json=/tmp/x.json"};
  Flags flags(3, argv);
  const auto opts = parse_harness_flags(flags);
  EXPECT_EQ(opts.jobs, 3u);
  EXPECT_EQ(opts.json_path, "/tmp/x.json");
  flags.finish();
}

TEST(Harness, JobsZeroResolvesToHardwareConcurrency) {
  const char* argv[] = {"prog", "--jobs=0"};
  Flags flags(2, argv);
  const auto opts = parse_harness_flags(flags);
  EXPECT_GE(opts.jobs, 1u);
}

TEST(Harness, GuardedMainConvertsExceptionsToExitCode) {
  const char* argv[] = {"prog", "--definitely-unknown-flag"};
  const int rc = laps::guarded_main(
      2, const_cast<char**>(argv), [](Flags& flags) {
        flags.finish();  // throws: the flag was never consumed
        return 0;
      });
  EXPECT_EQ(rc, 1);

  const char* ok_argv[] = {"prog"};
  EXPECT_EQ(laps::guarded_main(1, const_cast<char**>(ok_argv),
                               [](Flags&) { return 0; }),
            0);
}

TEST(Harness, NegativeJobsRejected) {
  const char* argv[] = {"prog", "--jobs=-2"};
  Flags flags(2, argv);
  EXPECT_THROW(parse_harness_flags(flags), std::invalid_argument);
}

TEST(Harness, MisspelledResumeFailsBeforeAnyJournalIsOpened) {
  // get_bool used to read any unknown word as false, so --resume=yse
  // reran every cell and replaced the journal's finished ones.
  const std::filesystem::path journal =
      std::filesystem::path(testing::TempDir()) / "resume_typo_journal.log";
  std::filesystem::remove(journal);
  const std::string arg = "--journal=" + journal.string();
  const char* argv[] = {"prog", arg.c_str(), "--resume=yse"};
  Flags flags(3, argv);
  try {
    parse_harness_flags(flags);
    ADD_FAILURE() << "--resume=yse was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--resume: expected true/false, 1/0, yes/no or on/off, "
                 "got 'yse'");
  }
  EXPECT_FALSE(std::filesystem::exists(journal));
}

TEST(Harness, ClusterFlagsAreUnknownOutsideTheClusterBinary) {
  // fig_cluster_dispatch parses --shards, --dispatch and --cluster-sync
  // itself; every other binary refuses them instead of ignoring them.
  for (const char* flag :
       {"--shards=4", "--dispatch=rss", "--cluster-sync=50us"}) {
    const char* argv[] = {"prog", flag};
    Flags flags(2, argv);
    parse_harness_flags(flags);
    try {
      flags.finish();
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag(s)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Harness, AccuracyWindowThatDiffersFromTelemetryIntervalIsRejected) {
  // Both probes sample on the engine's one epoch cadence, the --telemetry
  // interval, so there is no flag left to ask for a second one.
  const char* argv[] = {"prog", "--telemetry=50us", "--afd-accuracy=acc.json",
                        "--afd-accuracy-window-us=200"};
  Flags flags(4, argv);
  parse_harness_flags(flags);
  try {
    flags.finish();
    ADD_FAILURE() << "--afd-accuracy-window-us was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "unknown flag(s): --afd-accuracy-window-us"),
              std::string::npos)
        << e.what();
  }
}

TEST(Harness, TelemetryPromIsUnknown) {
  // The JSONL final line is the run's one end-of-run serialization; the
  // Prometheus copy of it is gone.
  const char* argv[] = {"prog", "--telemetry-prom=t.prom"};
  Flags flags(2, argv);
  parse_harness_flags(flags);
  try {
    flags.finish();
    ADD_FAILURE() << "--telemetry-prom was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag(s): --telemetry-prom"),
              std::string::npos)
        << e.what();
  }
}

TEST(Harness, ProbeTuningFlagsAreUnknown) {
  // Both top-k's are the AFC size, the flight recorder keeps its default
  // ring and triggers, and its window is the --telemetry interval.
  for (const char* flag :
       {"--flow-audit-top=8", "--afd-accuracy-k=8", "--flight-capacity=64",
        "--flight-drop-storm=1", "--flight-ooo-spike=1",
        "--flight-window-us=50"}) {
    const char* argv[] = {"prog", flag};
    Flags flags(2, argv);
    parse_harness_flags(flags);
    const std::string name(flag, std::strchr(flag, '='));
    try {
      flags.finish();
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "unknown flag(s): " + name);
    }
  }
}

TEST(Harness, SingleCellBinariesRefuseRunnerFlags) {
  // quickstart and multi_service_router run one cell without a runner, so
  // --jobs, --journal and --resume would do nothing there.
  const char* argv[] = {"prog", "--jobs=2", "--journal=/tmp/j.log",
                        "--resume", "--scheduler=fcfs",
                        "--flow-audit=/tmp/a.json"};
  Flags flags(6, argv);
  const HarnessOptions opts = parse_observed_flags(flags);
  EXPECT_EQ(opts.schedulers.size(), 1u);
  EXPECT_EQ(opts.flow_audit_path, "/tmp/a.json");
  try {
    flags.finish();
    ADD_FAILURE() << "runner flags were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unknown flag(s): --jobs, --journal, --resume");
  }
}

TEST(Harness, BareTelemetryAttachesNoProbe) {
  // Without --telemetry-out or --trace-out nothing reads the series, so a
  // grid given only --telemetry takes the plain path.
  const char* argv[] = {"prog", "--telemetry=50us"};
  Flags flags(2, argv);
  const HarnessOptions opts = parse_harness_flags(flags);
  flags.finish();
  EXPECT_FALSE(observed_runner(opts));
}

TEST(Harness, UnwritableArtifactDirectoryFailsBeforeAnyCellRuns) {
  // Every path flag is checked at parse time, naming the flag, so a
  // missing directory fails before any cell runs.
  for (const char* flag :
       {"--json", "--trace-out", "--flow-audit", "--afd-accuracy",
        "--flight-recorder", "--telemetry-out", "--fault-timeline",
        "--journal"}) {
    const std::string arg = std::string(flag) + "=/no/such/dir/x.json";
    const char* argv[] = {"prog", arg.c_str(), "--faults=down:1@1ms"};
    Flags flags(3, argv);
    try {
      parse_harness_flags(flags);
      ADD_FAILURE() << flag << " accepted a missing directory";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(std::string(flag) + ": cannot write", 0), 0u)
          << what;
    }
  }
}

// Per-run files are named by the grid's cell label, so two variants of
// one scheduler that carry display names write two files, not one.
TEST(Harness, PerRunFilesAreNamedByTheCellLabel) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "per_run_labels";
  fs::remove_all(dir);
  fs::create_directories(dir);
  HarnessOptions opts;
  opts.flow_audit_path = (dir / "audit.json").string();
  auto store = std::make_shared<TraceStore>();
  ExperimentPlan plan(5);
  plan.add_grid({"auck1"},
                {make_scheduler_spec("laps:services=1,afc=4", "LAPS top-4"),
                 make_scheduler_spec("laps:services=1,afc=8", "LAPS top-8")},
                {5},
                [store](const std::string& trace, std::uint64_t seed) {
                  return tiny_config(trace, seed, store->open(trace));
                },
                observed_runner(opts));
  check_per_run_paths(plan, opts);
  ParallelRunner runner(1);
  for (const JobResult& r : runner.run(plan)) EXPECT_TRUE(r.ok());
  std::set<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  EXPECT_EQ(names, (std::set<std::string>{"audit.auck1.LAPS_top-4.5.json",
                                          "audit.auck1.LAPS_top-8.5.json"}));
  fs::remove_all(dir);
}

// Two specs that both read "LAPS" would write one file; the grid is
// refused before any cell runs, naming both cells and the path.
TEST(Harness, TwoCellsWritingOnePathFailBeforeAnyCellRuns) {
  const char* argv[] = {"prog", "--flow-audit=/tmp/audit.json",
                        "--scheduler=laps:afc=4;laps:afc=8"};
  Flags flags(3, argv);
  const HarnessOptions opts = parse_harness_flags(flags);
  flags.finish();
  ExperimentPlan plan(2013);
  plan.add_grid({"T1"}, opts.schedulers, {2013},
                [](const std::string&, std::uint64_t) -> ScenarioConfig {
                  ADD_FAILURE() << "a cell was built";
                  return {};
                },
                observed_runner(opts));
  try {
    check_per_run_paths(plan, opts);
    ADD_FAILURE() << "two cells writing one path were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--flow-audit: cell 0 (T1/LAPS seed 2013) and cell 1 "
                 "(T1/LAPS seed 2013) would both write "
                 "'/tmp/audit.T1.LAPS.2013.json'");
  }
  // Without a per-run file nothing collides.
  HarnessOptions unobserved = opts;
  unobserved.flow_audit_path.clear();
  EXPECT_NO_THROW(check_per_run_paths(plan, unobserved));
}

TEST(Harness, AccuracyWindowEqualToTelemetryIntervalIsAccepted) {
  // The AFD accuracy series samples on the --telemetry interval.
  const char* argv[] = {"prog", "--telemetry-out=t.jsonl", "--telemetry=200us",
                        "--afd-accuracy=acc.json"};
  Flags flags(4, argv);
  const auto opts = parse_harness_flags(flags);
  flags.finish();
  EXPECT_EQ(opts.telemetry_interval, from_us(200.0));

  // Both default to 100 us.
  const char* default_argv[] = {"prog", "--telemetry", "--afd-accuracy=acc.json"};
  Flags defaults(3, default_argv);
  EXPECT_EQ(parse_harness_flags(defaults).telemetry_interval, from_us(100.0));
}

}  // namespace
}  // namespace laps
