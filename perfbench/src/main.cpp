// perfbench_run: runs one benchmark workload in this process, single
// threaded, and writes what it measured for run.py to check and summarize.
//
// Usage: perfbench_run --workload=NAME --out=DIR [--seed=N] [--seconds=S]
//                      [--trace]
//
// Metric run (no --trace): repeats (setup, pass) until the passes' cell time
// reaches --seconds, then times more setups until there are five. Every
// pass gets fresh inputs, so every pass does the same work.
//
// Traced run (--trace): repeats pairs of (untraced setup + pass, traced
// setup + pass) until --seconds of wall time have passed, then calibrates
// the timer and, on the workload's recorded arrivals, replays the flow keys
// through a standalone AFD, sweeps the layers the cells left idle and
// measures the cluster fabric.
//
// DIR receives result.json and one artifact per pass: the pass's reports in
// the mirrored command's --json format.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "build_info.h"
#include "cache/afd.h"
#include "core/laps.h"
#include "exp/harness.h"
#include "tracing.h"
#include "util/fileio.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Timing an unoptimized or sanitized build would measure the wrong
/// program; the library sources are compiled with these same flags.
bool timing_build() {
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  return std::string_view(kCxxFlags).find("-fsanitize") ==
         std::string_view::npos;
#else
  return false;
#endif
}

struct PassRecord {
  bool traced = false;
  double setup_s = 0;
  PassResult result;
  std::string file;
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t afc_hits = 0;
  std::uint64_t annex_inserts = 0;
  double ns = 0;  ///< median over reps of the replay's total access time
};

/// Replays each recording's flow keys through a fresh standalone AFD
/// configured as LAPS configures its own. Counts come from the first rep
/// (they repeat).
CacheStats replay_afd(const std::vector<Recording>& recordings) {
  std::vector<std::vector<std::uint64_t>> streams;
  for (const Recording& r : recordings) {
    laps::ReplayStream stream = r.stream.fork();
    std::vector<std::uint64_t>& keys = streams.emplace_back();
    while (auto pkt = stream.next()) keys.push_back(pkt->record.tuple.key64());
  }
  constexpr int kReps = 3;
  CacheStats out;
  std::vector<double> totals;
  for (int rep = 0; rep < kReps; ++rep) {
    double total = 0;
    for (const std::vector<std::uint64_t>& keys : streams) {
      laps::Afd afd(laps::LapsConfig::make_default_afd());
      const auto t0 = Clock::now();
      for (std::uint64_t key : keys) afd.access(key);
      total += static_cast<double>(elapsed_ns(t0, Clock::now()));
      if (rep == 0) {
        out.accesses += afd.stats().accesses;
        out.afc_hits += afd.stats().afc_hits;
        out.annex_inserts += afd.stats().annex_inserts;
      }
    }
    totals.push_back(total);
  }
  std::sort(totals.begin(), totals.end());
  out.ns = totals[totals.size() / 2];
  return out;
}

/// setup_s is the median of at least this many setups.
constexpr std::size_t kMinSetups = 5;

void write_ledger(laps::JsonWriter& w, const std::string& key,
                  const Ledger& ledger) {
  w.key(key);
  w.begin_object();
  for (const auto& [boundary, b] : ledger.boundaries()) {
    w.key(boundary);
    w.begin_object();
    w.field("ns", b.ns);
    w.field("calls", b.calls);
    w.field("parent", b.parent);
    w.end_object();
  }
  w.end_object();
}

double seconds_since(Clock::time_point t0) {
  return static_cast<double>(elapsed_ns(t0, Clock::now())) * 1e-9;
}

int run(laps::Flags& flags) {
  const std::string name = flags.get_string("workload", "");
  const std::string out_dir = flags.get_string("out", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int(
      "seed", static_cast<std::int64_t>(default_seed(name))));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.get_bool("trace", false);
  flags.finish();
  if (out_dir.empty()) throw std::invalid_argument("--out=DIR is required");
  if (seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  if (!timing_build()) {
    throw std::runtime_error(
        std::string("refusing to time an unoptimized or sanitized build "
                    "(flags: ") +
        kCxxFlags + ")");
  }

  const auto workload = make_workload(name, seed);

  std::vector<PassRecord> passes;
  std::vector<double> setups;
  const auto one_pass = [&](Ledger* ledger, const std::string& file) {
    PassRecord rec;
    rec.traced = ledger != nullptr;
    const auto t0 = Clock::now();
    workload->setup(ledger);
    rec.setup_s = seconds_since(t0);
    rec.result = workload->run_pass(ledger);
    rec.file = file;
    laps::util::write_file_atomic(out_dir + "/" + file, rec.result.artifact,
                                  "pass artifact");
    rec.result.artifact.clear();
    passes.push_back(std::move(rec));
  };

  Ledger ledger;
  Ledger engine_ledger;   // layer sweep: schedulers the cells leave idle
  Ledger cluster_ledger;  // layer sweep: the cluster, if the cells skip it
  TimerCost timer;
  CacheStats cache;
  FabricCost fabric;
  if (!trace) {
    double timed = 0;
    while (passes.empty() || timed < seconds) {
      one_pass(nullptr, "pass-" + std::to_string(passes.size()) + ".json");
      setups.push_back(passes.back().setup_s);
      timed += passes.back().result.host_seconds;
    }
    while (setups.size() < kMinSetups) {
      const auto t0 = Clock::now();
      workload->setup(nullptr);
      setups.push_back(seconds_since(t0));
    }
  } else {
    const auto t0 = Clock::now();
    for (std::size_t pair = 0; pair == 0 || seconds_since(t0) < seconds;
         ++pair) {
      one_pass(nullptr, "untraced-" + std::to_string(pair) + ".json");
      one_pass(&ledger, "traced-" + std::to_string(pair) + ".json");
    }
    timer = calibrate_timer();
    workload->setup(nullptr);
    const std::vector<Recording> recordings =
        workload->recordings(engine_ledger);
    cache = replay_afd(recordings);
    engine_sweep(recordings, ledger, engine_ledger);
    if (!ledger.called("cluster.run")) {
      cluster_sweep(recordings, cluster_ledger);
    }
    fabric = fabric_cost(recordings.front());
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  laps::JsonWriter w;
  w.begin_object();
  w.field("workload", name);
  w.field("seconds", seconds);
  w.field("trace", trace);
  w.key("spec");
  w.begin_object();
  workload->describe(w);
  w.end_object();
  w.key("build");
  w.begin_object();
  w.field("type", kBuildType);
  w.field("cxx_flags", kCxxFlags);
  w.field("compiler", kCompiler);
  w.end_object();
  w.key("setup_s");
  w.begin_array();
  for (double s : setups) w.value(s);
  w.end_array();
  w.key("passes");
  w.begin_array();
  for (const PassRecord& p : passes) {
    w.begin_object();
    w.field("traced", p.traced);
    w.field("host_s", p.result.host_seconds);
    w.field("offered", p.result.offered);
    w.field("cells", static_cast<std::uint64_t>(p.result.cells));
    w.field("threw", static_cast<std::uint64_t>(p.result.threw));
    w.field("artifact", p.file);
    w.end_object();
  }
  w.end_array();
  w.field("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
  if (trace) {
    w.key("timer");
    w.begin_object();
    w.field("span_ns", timer.span_ns);
    w.field("pair_ns", timer.pair_ns);
    w.end_object();
    write_ledger(w, "ledger", ledger);
    write_ledger(w, "engine_sweep", engine_ledger);
    write_ledger(w, "cluster_sweep", cluster_ledger);
    w.key("cache");
    w.begin_object();
    w.field("accesses", cache.accesses);
    w.field("afc_hits", cache.afc_hits);
    w.field("annex_inserts", cache.annex_inserts);
    w.field("ns", cache.ns);
    w.end_object();
    w.key("fabric");
    w.begin_object();
    w.field("engine_s", fabric.engine_s);
    w.field("cluster_s", fabric.cluster_s);
    w.field("packets", fabric.packets);
    w.end_object();
  }
  w.end_object();
  laps::util::write_file_atomic(out_dir + "/result.json", w.str() + "\n",
                                "result");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, perfbench::run);
}
