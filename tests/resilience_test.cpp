// Tests for the resilient experiment runner: journal codec exactness,
// durable record/restore, header and corruption handling — and the
// differential proof resume rests on: a fork()ed child running a journaled
// grid is ended mid-grid by a signal (SIGKILL, SIGTERM or SIGINT; the
// runner handles none, so each ends it at once with no cleanup), and the
// parent resumes from what the journal durably recorded, producing
// artifacts (report JSON and per-cell flow-audit files) byte-identical to
// an uninterrupted run.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/fcfs.h"
#include "baselines/static_hash.h"
#include "exp/experiment.h"
#include "exp/harness.h"
#include "exp/journal.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "sim/flow_audit.h"
#include "sim/probe.h"
#include "sim/report_json.h"
#include "sim/runner.h"
#include "util/flags.h"
#include "util/histogram.h"

namespace laps {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("laps_resilience_" + tag + "_" +
                        std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Deterministic synthetic report: cheap stand-in for a simulation that
/// still exercises every journal-encoded field (strings, counters, service
/// arrays, doubles, the histogram, the extra map).
SimReport fake_report(const std::string& scenario, const std::string& sched,
                      std::uint64_t seed) {
  SimReport r;
  r.scenario = scenario;
  r.scheduler = sched;
  r.sim_time = 4'000'000 + static_cast<TimeNs>(seed % 997);
  r.offered = 1000 + seed % 131;
  r.offered_by_service[0] = r.offered - seed % 7;
  r.offered_by_service[1] = seed % 7;
  r.dropped = seed % 17;
  r.dropped_by_service[0] = r.dropped;
  r.delivered = r.offered - r.dropped;
  r.out_of_order = seed % 29;
  r.flow_migrations = seed % 41;
  r.fm_penalties = seed % 37;
  r.cold_cache_events = seed % 53;
  r.mean_core_utilization = 1.0 / (1.0 + static_cast<double>(seed % 11));
  std::uint64_t x = seed * 2654435761u + 1;
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    r.latency_ns.record(static_cast<std::int64_t>(x % 5'000'000));
  }
  r.extra["afc_evictions"] = static_cast<double>(seed % 19);
  r.extra["zeta"] = 0.1 + static_cast<double>(seed % 3);
  return r;
}

/// Grid of `cells` fake-report jobs, each sleeping `sleep_ms` (to widen
/// kill windows) — reports depend only on (scenario, scheduler, seed).
ExperimentPlan fake_plan(std::size_t cells, std::uint64_t plan_seed,
                         int sleep_ms = 0) {
  ExperimentPlan plan(plan_seed);
  for (std::size_t i = 0; i < cells; ++i) {
    const std::string scenario = "scen" + std::to_string(i % 3);
    const std::string sched = i % 2 == 0 ? "A" : "B";
    const std::uint64_t seed = ExperimentPlan::derive_seed(plan_seed, i);
    plan.add(scenario, sched, seed, [=]() -> SimReport {
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      return fake_report(scenario, sched, seed);
    });
  }
  return plan;
}

// ------------------------------------------------------- journal codec ---

TEST(JournalCodec, ReportRoundTripsToByteIdenticalJson) {
  for (std::uint64_t seed : {1ULL, 42ULL, 9001ULL}) {
    const SimReport r = fake_report("auck1", "LAPS", seed);
    const SimReport back =
        decode_report(encode_report(r), "test-journal", 1);
    EXPECT_EQ(report_to_json(r), report_to_json(back)) << "seed " << seed;
    EXPECT_EQ(back.latency_ns.buckets(), r.latency_ns.buckets());
    EXPECT_EQ(back.latency_ns.quantile(0.999), r.latency_ns.quantile(0.999));
  }
}

TEST(JournalCodec, EmptyReportRoundTrips) {
  const SimReport empty;
  EXPECT_EQ(report_to_json(decode_report(encode_report(empty), "j", 1)),
            report_to_json(empty));
}

TEST(JournalCodec, GarbagePayloadThrowsJournalError) {
  EXPECT_THROW(decode_report("short", "j", 3), JournalError);
  EXPECT_THROW(decode_report(std::string(8, '\xff'), "j", 3), JournalError);
}

TEST(HistogramRestore, ReproducesExportedStateExactly) {
  Histogram h;
  std::uint64_t x = 12345;
  for (int i = 0; i < 10'000; ++i) {
    x = x * 6364136223846793005ULL + 1;
    h.record(static_cast<std::int64_t>(x % 1'000'000'000));
  }
  const Histogram back = Histogram::restore(h.buckets(), h.count(), h.sum(),
                                            h.max());
  EXPECT_EQ(back.buckets(), h.buckets());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.sum(), h.sum());
  EXPECT_EQ(back.max(), h.max());
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(back.quantile(q), h.quantile(q)) << "q=" << q;
  }
}

TEST(HistogramRestore, RejectsInvalidExports) {
  Histogram h;
  h.record(100);
  auto buckets = h.buckets();
  EXPECT_THROW(Histogram::restore(buckets, 2, 100, 100),
               std::invalid_argument);  // count mismatch
  buckets[0].upper_bound += 1;          // not a real bucket bound
  EXPECT_THROW(Histogram::restore(buckets, 1, 100, 100),
               std::invalid_argument);
}

// ---------------------------------------------------- journal file layer ---

TEST(Journal, RecordRestoreAcrossReopen) {
  const std::string dir = temp_dir("journal_reopen");
  ExperimentJournal::Config cfg{dir + "/grid.journal", 42, 7, 3};
  const std::uint64_t fp0 = 111, fp2 = 222;
  const SimReport r0 = fake_report("a", "A", 1);
  const SimReport r2 = fake_report("b", "B", 2);
  {
    ExperimentJournal journal(cfg, /*resume=*/false);
    journal.record(0, fp0, r0);
    journal.record(2, fp2, r2);
  }
  ExperimentJournal journal(cfg, /*resume=*/true);
  EXPECT_EQ(journal.loaded(), 2u);
  ASSERT_NE(journal.restore(0, fp0), nullptr);
  EXPECT_EQ(report_to_json(*journal.restore(0, fp0)), report_to_json(r0));
  EXPECT_EQ(report_to_json(*journal.restore(2, fp2)), report_to_json(r2));
  EXPECT_EQ(journal.restore(1, 333), nullptr);   // never recorded
  EXPECT_EQ(journal.restore(0, 999), nullptr);   // stale fingerprint
  fs::remove_all(dir);
}

TEST(Journal, FreshOpenDiscardsAndHeaderMismatchRefuses) {
  const std::string dir = temp_dir("journal_header");
  ExperimentJournal::Config cfg{dir + "/grid.journal", 42, 7, 3};
  {
    ExperimentJournal journal(cfg, false);
    journal.record(0, 1, fake_report("a", "A", 1));
  }
  // resume=false replaces the file: nothing to restore afterwards.
  {
    ExperimentJournal journal(cfg, false);
    EXPECT_EQ(journal.loaded(), 0u);
  }
  {
    ExperimentJournal journal(cfg, false);
    journal.record(0, 1, fake_report("a", "A", 1));
  }
  // A journal recorded under different options must refuse to resume:
  // plan seed, grid size, and salt are all load-bearing.
  for (auto bad : {ExperimentJournal::Config{cfg.path, 43, 7, 3},
                   ExperimentJournal::Config{cfg.path, 42, 8, 3},
                   ExperimentJournal::Config{cfg.path, 42, 7, 4}}) {
    EXPECT_THROW(ExperimentJournal(bad, true), JournalError);
  }
  // Missing file under resume is a clean empty journal.
  ExperimentJournal::Config missing{dir + "/none.journal", 42, 7, 3};
  ExperimentJournal journal(missing, true);
  EXPECT_EQ(journal.loaded(), 0u);
  fs::remove_all(dir);
}

TEST(Journal, TornFinalLineDroppedButEarlierCorruptionThrows) {
  const std::string dir = temp_dir("journal_corrupt");
  const std::string path = dir + "/grid.journal";
  ExperimentJournal::Config cfg{path, 42, 7, 4};
  {
    ExperimentJournal journal(cfg, false);
    for (std::size_t i = 0; i < 3; ++i) {
      journal.record(i, 100 + i, fake_report("a", "A", i));
    }
  }
  const std::string intact = read_file(path);

  // A torn final line (the crash-mid-append shape) is dropped; the other
  // records survive.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "J1 00000000000000aa 3 deadbe";  // no CRC, no newline
  }
  {
    ExperimentJournal journal(cfg, true);
    EXPECT_EQ(journal.loaded(), 3u);
    EXPECT_NE(journal.restore(2, 102), nullptr);
  }

  // Corruption anywhere earlier is untrusted state: flip one payload
  // character of the middle record.
  std::string damaged = intact;
  const std::size_t second = damaged.find("\nJ1", damaged.find("\nJ1") + 1);
  ASSERT_NE(second, std::string::npos);
  const std::size_t payload = damaged.find(' ', second + 25);
  ASSERT_NE(payload, std::string::npos);
  damaged[payload + 2] = damaged[payload + 2] == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << damaged;
  }
  EXPECT_THROW(ExperimentJournal(cfg, true), JournalError);
  fs::remove_all(dir);
}

TEST(Journal, FingerprintSeparatesCellsAndConfigs) {
  ExperimentJob job;
  job.scenario = "auck1";
  job.scheduler = "LAPS";
  job.seed = 9;
  const std::uint64_t fp = job_fingerprint(1, 2, 3, job);
  EXPECT_EQ(fp, job_fingerprint(1, 2, 3, job));
  EXPECT_NE(fp, job_fingerprint(1, 2, 4, job));  // position
  EXPECT_NE(fp, job_fingerprint(1, 9, 3, job));  // salt (runner options)
  EXPECT_NE(fp, job_fingerprint(9, 2, 3, job));  // plan seed
  ExperimentJob other = job;
  other.scheduler = "FCFS";
  EXPECT_NE(fp, job_fingerprint(1, 2, 3, other));
}

// ------------------------------------------------ resume differentials ---

/// Real-simulation grid (3 traces x 2 schedulers x 5 seeds = 30 cells);
/// every cell also writes a per-cell flow-audit artifact into `dir` —
/// the per-run observability files the resume proof must reproduce.
ExperimentPlan sim_plan(std::shared_ptr<TraceStore> store,
                        const std::string& dir, std::uint64_t plan_seed) {
  const std::vector<SchedulerSpec> schedulers = {
      {"FCFS", [] { return std::make_unique<FcfsScheduler>(); }},
      {"StaticHash", [] { return std::make_unique<StaticHashScheduler>(); }},
  };
  ExperimentPlan plan(plan_seed);
  plan.add_grid(
      {"auck1", "auck2", "auck3"}, schedulers, plan.replicate_seeds(5),
      [store](const std::string& trace, std::uint64_t seed) {
        ScenarioConfig cfg;
        cfg.name = trace;
        cfg.num_cores = 2;
        cfg.seconds = 0.002;
        cfg.seed = seed;
        ServiceTraffic s;
        s.path = ServicePath::kIpForward;
        s.rate = HoltWintersParams{2.0, 0.0, 0.0, 10.0, 0.0};
        s.trace = store->open(trace);
        cfg.services = {s};
        return cfg;
      },
      [dir](const ScenarioConfig& cfg, Scheduler& scheduler) {
        FlowAuditProbe::Options audit_opts;
        audit_opts.max_rows = 16;
        FlowAuditProbe audit(audit_opts);
        ProbeSet probes;
        probes.add(&audit);
        SimReport report = run_scenario(cfg, scheduler, probes);
        audit.write(dir + "/audit." + cfg.name + "." + scheduler.name() +
                    "." + std::to_string(cfg.seed) + ".json");
        return report;
      });
  return plan;
}

/// The same grid built the way the bench binaries build theirs: the two
/// schedulers of each (trace, seed) form a lockstep group, and the harness
/// writes each cell's flow audit, named by its plan label.
ExperimentPlan grouped_sim_plan(std::shared_ptr<TraceStore> store,
                                const std::string& dir,
                                std::uint64_t plan_seed) {
  const std::vector<SchedulerSpec> schedulers = {
      {"FCFS", [] { return std::make_unique<FcfsScheduler>(); }},
      {"StaticHash", [] { return std::make_unique<StaticHashScheduler>(); }},
  };
  HarnessOptions opts;
  opts.flow_audit_path = dir + "/audit.json";
  opts.flow_audit_rows = 16;
  ExperimentPlan plan(plan_seed);
  plan.add_grid(
      {"auck1", "auck2", "auck3"}, schedulers, plan.replicate_seeds(5),
      [store](const std::string& trace, std::uint64_t seed) {
        ScenarioConfig cfg;
        cfg.name = trace;
        cfg.num_cores = 2;
        cfg.seconds = 0.002;
        cfg.seed = seed;
        ServiceTraffic s;
        s.path = ServicePath::kIpForward;
        s.rate = HoltWintersParams{2.0, 0.0, 0.0, 10.0, 0.0};
        s.trace = store->open(trace);
        cfg.services = {s};
        return cfg;
      },
      observed_runner(opts));
  return plan;
}

using PlanMaker = ExperimentPlan (*)(std::shared_ptr<TraceStore>,
                                     const std::string&, std::uint64_t);

/// Per-cell flow-audit artifacts in `dir`, keyed by filename.
std::vector<std::pair<std::string, std::string>> audit_files(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("audit.", 0) == 0) {
      files.emplace_back(name, read_file(entry.path().string()));
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

constexpr std::uint64_t kDifferentialSeed = 20130604;

std::string golden_artifact(const std::string& dir, PlanMaker make_plan) {
  auto store = std::make_shared<TraceStore>();
  const auto plan = make_plan(store, dir, kDifferentialSeed);
  ParallelRunner runner(2);
  const auto results = runner.run(plan);
  EXPECT_EQ(grid_exit_code(results), 0);
  return artifact_json("resume_differential", results);
}

/// Runs `make_plan`'s grid in a forked child with a journal, sends it `sig`
/// once five cells are journaled, checks that the signal ended it, resumes
/// in this process and checks the artifact and every per-cell audit file
/// against an uninterrupted run.
void kill_then_resume(const std::string& tag, PlanMaker make_plan, int sig) {
  const std::string golden_dir = temp_dir(tag + "_golden");
  const std::string run_dir = temp_dir(tag + "_run");
  const std::string golden = golden_artifact(golden_dir, make_plan);
  const std::string journal_path = run_dir + "/grid.journal";

  RunnerPolicy policy;
  policy.journal_path = journal_path;

  // Child: run the grid serially with the journal, then exit. It gets the
  // signal mid-grid — no handlers run, no destructors, no flushes; only
  // what ExperimentJournal::record fsync'd survives. The default
  // dispositions come first, so a SIGINT or SIGTERM ignored by whatever
  // started the test cannot hide a handler the runner installs.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    auto store = std::make_shared<TraceStore>();
    const ExperimentPlan plan = make_plan(store, run_dir, kDifferentialSeed);
    ParallelRunner runner(1, policy);
    runner.run(plan);
    ::_exit(0);
  }

  // Parent: wait until the journal proves >= 5 cells completed, then kill.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::size_t records = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (fs::exists(journal_path)) {
      std::ifstream in(journal_path);
      records = 0;
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("J1 ", 0) == 0) ++records;
      }
      if (records >= 5) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(records, 5u) << "child never journaled enough cells";
  ::kill(child, sig);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == sig)
      << "child was not ended by signal " << sig << ": status " << status;

  // Parent resumes from whatever survived the kill.
  auto store = std::make_shared<TraceStore>();
  const ExperimentPlan plan = make_plan(store, run_dir, kDifferentialSeed);
  RunnerPolicy resume_policy = policy;
  resume_policy.resume = true;
  ParallelRunner runner(4, resume_policy);
  const auto results = runner.run(plan);
  EXPECT_GE(runner.stats().restored, 5u);
  EXPECT_EQ(grid_exit_code(results), 0);
  EXPECT_EQ(artifact_json("resume_differential", results), golden);

  const auto golden_audits = audit_files(golden_dir);
  ASSERT_EQ(golden_audits.size(), 30u);
  EXPECT_EQ(audit_files(run_dir), golden_audits);

  fs::remove_all(golden_dir);
  fs::remove_all(run_dir);
}

TEST(ResumeDifferential, SigkillChildMidGridThenResumeIsByteIdentical) {
  kill_then_resume("sigkill", sim_plan, SIGKILL);
}

TEST(ResumeDifferential, SigtermChildMidGridThenResumeIsByteIdentical) {
  kill_then_resume("sigterm", sim_plan, SIGTERM);
}

// The grouped grid: the kill lands between or inside lockstep groups, and
// --resume reruns a group only for its cells the journal lacks.
TEST(ResumeDifferential, SigkillChildMidGroupedGridThenResumeIsByteIdentical) {
  kill_then_resume("sigkill_grouped", grouped_sim_plan, SIGKILL);
}

TEST(ResumeDifferential, SigintChildMidGroupedGridThenResumeIsByteIdentical) {
  kill_then_resume("sigint_grouped", grouped_sim_plan, SIGINT);
}

TEST(ResumeDifferential, JournalOffFaultFreeRunIsUnchanged) {
  // The no-resilience-flags path must stay bit-identical to the historical
  // runner: policy default vs an explicit journal produce the same bytes.
  const std::string dir = temp_dir("journal_off");
  auto run_with = [&](RunnerPolicy policy) {
    ParallelRunner runner(2, policy);
    return artifact_json("baseline", runner.run(fake_plan(12, 5)));
  };
  RunnerPolicy with_journal;
  with_journal.journal_path = dir + "/grid.journal";
  EXPECT_EQ(run_with(RunnerPolicy{}), run_with(with_journal));
  fs::remove_all(dir);
}

/// A one-trace grid built the way a bench main builds it: its own
/// --seconds flag, the shared flags, and make_runner.
std::vector<JobResult> run_flagged_grid(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  Flags flags(static_cast<int>(argv.size()), argv.data());
  const double seconds = flags.get_double("seconds", 0.002);
  const HarnessOptions opts = parse_harness_flags(flags);
  flags.finish();
  auto store = std::make_shared<TraceStore>();
  ExperimentPlan plan(kDifferentialSeed);
  plan.add_grid(
      {"auck1"},
      schedulers_or(opts, {make_scheduler_spec("fcfs"),
                           make_scheduler_spec("hash")}),
      plan.replicate_seeds(2),
      [store, seconds](const std::string& trace, std::uint64_t seed) {
        ScenarioConfig cfg;
        cfg.name = trace;
        cfg.num_cores = 2;
        cfg.seconds = seconds;
        cfg.seed = seed;
        ServiceTraffic s;
        s.path = ServicePath::kIpForward;
        s.rate = HoltWintersParams{2.0, 0.0, 0.0, 10.0, 0.0};
        s.trace = store->open(trace);
        cfg.services = {s};
        return cfg;
      },
      observed_runner(opts));
  ParallelRunner runner = make_runner(opts);
  return runner.run(plan);
}

TEST(ResumeDifferential, ChangedFlagRefusesResume) {
  const std::string dir = temp_dir("changed_flag");
  const std::string journal = "--journal=" + dir + "/grid.journal";

  const auto written = run_flagged_grid({"--seconds=0.002", journal});
  // The same flags restore every cell byte for byte; --jobs and --json
  // cannot change a cell, so they may differ.
  const auto resumed = run_flagged_grid({"--seconds=0.002", journal,
                                         "--resume", "--jobs=2",
                                         "--json=" + dir + "/a.json"});
  for (const JobResult& r : resumed) EXPECT_TRUE(r.from_journal);
  EXPECT_EQ(artifact_json("t", written), artifact_json("t", resumed));
  // Another horizon gives other reports under the same cell labels.
  EXPECT_THROW(run_flagged_grid({"--seconds=0.004", journal, "--resume"}),
               JournalError);

  // Both specs display as "LAPS"; only the parameters differ.
  run_flagged_grid({"--scheduler=laps:services=1,afc=4", journal});
  EXPECT_THROW(run_flagged_grid({"--scheduler=laps:services=1,afc=64,high_th=8",
                                 journal, "--resume"}),
               JournalError);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace laps
