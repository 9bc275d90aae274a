// The lockstep group driver (run_lockstep, sim/runner.h) and the grouped
// grids built on it (ExperimentPlan::add_grid, ParallelRunner). A group
// runs every scheduler cell of one scenario and seed off one traffic
// stream; these tests pin that a cell inside a group is the cell alone:
//
//   - every registry kind, clean and under a random fault plan, with the
//     flow-audit, flight-recorder and telemetry probes attached, writes the
//     same report and files grouped as solo (the 54-cell golden pins the
//     solo, N = 1, bytes);
//   - a group reads each trace record once, as one solo run does;
//   - a scheduler that throws fails its own cell only;
//   - a grouped Fig. 7 grid's artifact is the same on 1 and 3 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/fault.h"
#include "sim/report_json.h"
#include "sim/scenarios.h"
#include "trace/synthetic.h"
#include "util/flags.h"

namespace laps {
namespace {

namespace fs = std::filesystem;

/// Every registry name, plus the LAPS variants a grid typically sweeps.
/// Each cell is labelled by its spec, so no two cells share a file.
std::vector<SchedulerSpec> every_kind(std::size_t services) {
  const std::string laps = "laps:services=" + std::to_string(services);
  std::vector<SchedulerSpec> specs;
  for (const std::string& spec :
       {std::string("fcfs"), std::string("hash"), std::string("afs"),
        std::string("adaptive"), std::string("adaptive-afd"),
        std::string("batch"), std::string("oracle"), laps,
        laps + ",power=1", std::string("hash-migrate"),
        std::string("afs-power"), laps + ",afc=8",
        laps + ",high_th=16,pins=64"}) {
    specs.push_back(make_scheduler_spec(spec, spec));
  }
  return specs;
}

/// T1/T5/T8 or "single:<trace>" at 10 ms; `faulted` adds a random fault
/// plan drawn from the seed.
ScenarioConfig build_scenario(const std::string& scenario, bool faulted,
                              std::uint64_t seed, TraceStore& store) {
  ScenarioOptions options;
  options.seconds = 0.01;
  options.seed = seed;
  options.trace_factory = store.factory();
  ScenarioConfig config =
      scenario.rfind("single:", 0) == 0
          ? make_single_service_scenario(scenario.substr(7), options)
          : make_paper_scenario(scenario, options);
  if (faulted) {
    RandomFaultParams params;
    params.horizon = from_seconds(options.seconds);
    params.num_cores = options.num_cores;
    config.faults =
        std::make_shared<const FaultPlan>(random_fault_plan(seed, params));
  }
  return config;
}

std::map<std::string, std::string> files_in(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

/// Harness options writing every cell's flow audit, flight recording and
/// telemetry JSONL under `dir`.
HarnessOptions observed_options(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string audit = "--flow-audit=" + (dir / "audit.json").string();
  const std::string flight =
      "--flight-recorder=" + (dir / "flight.json").string();
  const std::string telem =
      "--telemetry-out=" + (dir / "telemetry.jsonl").string();
  const char* argv[] = {"prog", audit.c_str(), flight.c_str(), "--flight-dump",
                        telem.c_str()};
  Flags flags(5, argv);
  HarnessOptions opts = parse_harness_flags(flags);
  flags.finish();
  return opts;
}

// ------------------------------------------------- (a) grouped == solo ---

struct DiffCase {
  const char* scenario;
  bool faulted;
  std::uint64_t seed;  ///< traffic and fault-plan seed
};

// ctest names carry the printed parameter; print it as text, not bytes.
void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.scenario << (c.faulted ? " faults" : " clean") << " seed "
      << c.seed;
}

class LockstepDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(LockstepDifferential, GroupedCellsEqualSoloRunsByteForByte) {
  const DiffCase& param = GetParam();
  const std::string scenario = param.scenario;
  const std::size_t services = scenario.rfind("single:", 0) == 0 ? 1 : 4;
  const std::uint64_t seed = param.seed;
  const std::vector<SchedulerSpec> specs = every_kind(services);
  std::string tag =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(tag.begin(), tag.end(), '/', '_');
  const fs::path root = fs::path(testing::TempDir()) / ("lockstep_" + tag);

  auto make_plan = [&](const HarnessOptions& opts) {
    auto store = std::make_shared<TraceStore>();
    ExperimentPlan plan(seed);
    plan.add_grid({scenario}, specs, {seed},
                  [store, faulted = param.faulted](const std::string& id,
                                                   std::uint64_t s) {
                    return build_scenario(id, faulted, s, *store);
                  },
                  observed_runner(opts));
    check_per_run_paths(plan, opts);
    return plan;
  };

  // Grouped: one group of every kind, through the runner.
  const HarnessOptions grouped_opts = observed_options(root / "grouped");
  const ExperimentPlan grouped = make_plan(grouped_opts);
  ASSERT_EQ(grouped.groups().size(), 1u);
  ASSERT_EQ(grouped.groups()[0].cells.size(), specs.size());
  ParallelRunner runner(1);
  const std::vector<JobResult> results = runner.run(grouped);

  // Solo: each cell by itself, into a directory of its own.
  const HarnessOptions solo_opts = observed_options(root / "solo");
  const ExperimentPlan solo = make_plan(solo_opts);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << specs[i].name << ": " << results[i].error->message;
    SimReport alone = solo.jobs()[i].run();
    alone.scenario = results[i].report.scenario;
    alone.scheduler = results[i].report.scheduler;
    EXPECT_EQ(report_to_json(results[i].report), report_to_json(alone))
        << specs[i].name;
  }

  const auto grouped_files = files_in(root / "grouped");
  EXPECT_EQ(grouped_files.size(), 3 * specs.size());  // audit, flight, JSONL
  const auto solo_files = files_in(root / "solo");
  ASSERT_EQ(grouped_files.size(), solo_files.size());
  for (const auto& [name, bytes] : grouped_files) {
    const auto it = solo_files.find(name);
    ASSERT_NE(it, solo_files.end()) << name << " has no solo counterpart";
    EXPECT_TRUE(it->second == bytes) << name << " differs from its solo run";
  }
  fs::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(
    EveryKind, LockstepDifferential,
    ::testing::Values(DiffCase{"T1", false, 2013}, DiffCase{"T1", true, 7},
                      DiffCase{"T5", false, 2013}, DiffCase{"T5", true, 99},
                      DiffCase{"T8", false, 31}, DiffCase{"T8", true, 2013},
                      DiffCase{"single:caida1", false, 99},
                      DiffCase{"single:caida1", true, 5},
                      DiffCase{"single:auck1", false, 17},
                      DiffCase{"single:auck1", true, 2013}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      std::string name = info.param.scenario;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name + (info.param.faulted ? "_faults" : "_clean");
    });

// -------------------------------------------- (b) one read per record ---

/// Counts every record read through it.
class CountingTrace final : public TraceSource {
 public:
  CountingTrace(std::shared_ptr<TraceSource> inner,
                std::shared_ptr<std::atomic<std::size_t>> reads)
      : inner_(std::move(inner)), reads_(std::move(reads)) {}

  std::optional<PacketRecord> next() override {
    std::optional<PacketRecord> record = inner_->next();
    if (record) reads_->fetch_add(1, std::memory_order_relaxed);
    return record;
  }
  void reset() override { inner_->reset(); }
  std::size_t flow_count_hint() const override {
    return inner_->flow_count_hint();
  }
  bool size_mix(std::vector<std::uint16_t>& sizes,
                std::vector<double>& weights) const override {
    return inner_->size_mix(sizes, weights);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<TraceSource> inner_;
  std::shared_ptr<std::atomic<std::size_t>> reads_;
};

// The store calls a registered name's factory on every open, so each open
// reads its own counting source, and the count is every record the
// generators pulled.
TEST(LockstepTraffic, GroupReadsEachRecordOnceAsOneSoloRunDoes) {
  auto reads_of = [](const std::vector<std::string>& kinds, bool alone) {
    auto reads = std::make_shared<std::atomic<std::size_t>>(0);
    auto store = std::make_shared<TraceStore>();
    store->register_trace("counted", [reads] {
      return std::make_shared<CountingTrace>(make_trace("caida1"), reads);
    });
    std::vector<SchedulerSpec> specs;
    for (const std::string& kind : kinds) {
      specs.push_back(make_scheduler_spec(kind));
    }
    ExperimentPlan plan(3);
    plan.add_grid({"counted"}, specs, {3},
                  [store](const std::string& trace, std::uint64_t seed) {
                    ScenarioOptions options;
                    options.seconds = 0.005;
                    options.seed = seed;
                    options.trace_factory = store->factory();
                    return make_single_service_scenario(trace, options);
                  });
    if (alone) {
      for (const ExperimentJob& job : plan.jobs()) job.run();
    } else {
      ParallelRunner runner(1);
      for (const JobResult& r : runner.run(plan)) EXPECT_TRUE(r.ok());
    }
    return reads->load();
  };
  const std::vector<std::string> three = {"fcfs", "afs", "laps:services=1"};
  const std::size_t solo = reads_of({"fcfs"}, false);
  EXPECT_GT(solo, 1000u);
  EXPECT_EQ(reads_of(three, false), solo);
  // The same three cells run one at a time read the trace three times.
  EXPECT_EQ(reads_of(three, true), 3 * solo);
}

// ----------------------------------------------- (c) containment ---

/// Delegates to `inner` and throws on its k-th decision.
class ThrowOnDecision final : public Scheduler {
 public:
  ThrowOnDecision(std::unique_ptr<Scheduler> inner, std::uint64_t k)
      : inner_(std::move(inner)), k_(k) {}

  void attach(std::size_t num_cores) override { inner_->attach(num_cores); }
  CoreId schedule(const SimPacket& pkt, const NpuView& view) override {
    if (++decisions_ == k_) {
      throw std::runtime_error("decision " + std::to_string(k_) + " failed");
    }
    return inner_->schedule(pkt, view);
  }
  std::string name() const override { return inner_->name(); }
  std::map<std::string, double> extra_stats() const override {
    return inner_->extra_stats();
  }
  void set_event_sink(SchedEventSink* sink) override {
    inner_->set_event_sink(sink);
  }
  void notify_core_down(CoreId core, const NpuView& view) override {
    inner_->notify_core_down(core, view);
  }
  void notify_core_up(CoreId core, const NpuView& view) override {
    inner_->notify_core_up(core, view);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::uint64_t k_;
  std::uint64_t decisions_ = 0;
};

TEST(LockstepContainment, ThrowingSchedulerFailsOnlyItsOwnCell) {
  for (const bool faulted : {false, true}) {
    std::vector<SchedulerSpec> specs = {
        make_scheduler_spec("fcfs"),
        {"AFS (throws)",
         [] {
           return std::make_unique<ThrowOnDecision>(make_scheduler("afs"),
                                                    700);
         }},
        make_scheduler_spec("laps"),
        make_scheduler_spec("oracle"),
    };
    auto store = std::make_shared<TraceStore>();
    ExperimentPlan plan(11);
    plan.add_grid({"T5"}, specs, {11},
                  [store, faulted](const std::string& id, std::uint64_t seed) {
                    return build_scenario(id, faulted, seed, *store);
                  });
    ParallelRunner runner(1);
    const std::vector<JobResult> results = runner.run(plan);
    ASSERT_EQ(results.size(), specs.size());
    ASSERT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].error->message, "decision 700 failed");
    EXPECT_EQ(runner.stats().jobs_failed, 1u);
    EXPECT_THROW(plan.jobs()[1].run(), std::runtime_error);
    for (const std::size_t i : {0u, 2u, 3u}) {
      ASSERT_TRUE(results[i].ok()) << results[i].scheduler;
      SimReport alone = plan.jobs()[i].run();
      alone.scenario = results[i].report.scenario;
      alone.scheduler = results[i].report.scheduler;
      EXPECT_EQ(report_to_json(results[i].report), report_to_json(alone))
          << results[i].scheduler << (faulted ? " (faults)" : "");
    }
  }
}

// ------------------------------------------- (e) threads do not leak ---

// A grouped Fig. 7 grid: T1, T5 and T8 x FCFS/AFS/LAPS, one group per
// scenario, so three threads run three groups at once.
TEST(LockstepGrid, Fig7ArtifactIdenticalAtOneAndThreeJobs) {
  auto artifact_at = [](std::size_t jobs) {
    ScenarioOptions options;
    options.seconds = 0.01;
    options.seed = 2013;
    auto store = std::make_shared<TraceStore>();
    options.trace_factory = store->factory();
    ExperimentPlan plan(options.seed);
    plan.add_grid({"T1", "T5", "T8"},
                  {make_scheduler_spec("fcfs"), make_scheduler_spec("afs"),
                   make_scheduler_spec("laps")},
                  {options.seed},
                  [options](const std::string& id, std::uint64_t seed) {
                    ScenarioOptions o = options;
                    o.seed = seed;
                    return make_paper_scenario(id, o);
                  });
    EXPECT_EQ(plan.groups().size(), 3u);
    ParallelRunner runner(jobs);
    const std::vector<JobResult> results = runner.run(plan);
    EXPECT_EQ(runner.stats().jobs_used, std::min<std::size_t>(jobs, 3));
    for (const JobResult& r : results) EXPECT_TRUE(r.ok()) << r.scheduler;
    return artifact_json("fig7_scheduler_comparison", results);
  };
  EXPECT_EQ(artifact_at(1), artifact_at(3));
}

}  // namespace
}  // namespace laps
