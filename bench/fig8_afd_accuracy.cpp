// Reproduces paper Fig. 8 — effectiveness of the Aggressive Flow Detector:
//   (a) false-positive ratio of a 16-entry AFC as annex size varies
//       (64..1024 entries), vs off-line top-16 analysis;
//   (b) accuracy when checked every `window` packets (10^3..10^6), annex
//       fixed at 512;
//   (c) false-positive ratio under packet sampling with probability
//       1 .. 1/10k.
//
// Usage: fig8_afd_accuracy [--packets=N] [--traces=...|all] [--afc=16]
//                          [--jobs=N] [--json=PATH]
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cache/afd.h"
#include "cache/topk.h"
#include "exp/harness.h"
#include "trace/synthetic.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  const std::uint64_t packets = flags.get_uint("packets", 2'000'000);
  const auto traces =
      flags.get_list("traces", "caida1,caida2,auck1,auck2",
                     laps::trace_registry_names());
  const std::size_t afc_entries = flags.get_uint("afc", 16);
  const auto harness = laps::parse_harness_flags(flags);
  flags.finish();

  // ---------------------------------------------------------- Fig. 8a ----
  const std::vector<std::size_t> annex_sizes{64, 128, 256, 512, 1024};
  std::printf("=== Fig. 8a: FPR in a %zu-entry AFC vs annex size (%llu "
              "packets/trace) ===\n",
              afc_entries, static_cast<unsigned long long>(packets));
  laps::Table fig_a([&] {
    std::vector<std::string> headers{"trace"};
    for (std::size_t a : annex_sizes) {
      headers.push_back("annex " + std::to_string(a));
    }
    return headers;
  }());
  // One independent job per trace; each feeds every annex size in one pass.
  const auto rows_a = laps::parallel_index_map(
      harness.jobs, traces.size(), [&](std::size_t t) {
        const std::string& name = traces[t];
        std::vector<std::unique_ptr<laps::Afd>> afds;
        for (std::size_t a : annex_sizes) {
          laps::AfdConfig cfg;
          cfg.afc_entries = afc_entries;
          cfg.annex_entries = a;
          afds.push_back(std::make_unique<laps::Afd>(cfg));
        }
        laps::ExactTopK truth;
        auto trace = laps::make_trace(name);
        for (std::uint64_t i = 0; i < packets; ++i) {
          const auto rec = trace->next();
          const std::uint64_t key = rec->tuple.key64();
          truth.access(key);
          for (auto& afd : afds) afd->access(key);
        }
        std::vector<std::string> row{name};
        for (auto& afd : afds) {
          const auto acc = laps::score_detector(truth, afd->aggressive_flows(),
                                                afc_entries);
          row.push_back(laps::Table::pct(acc.false_positive_ratio(), 1));
        }
        std::fprintf(stderr, "done: fig8a/%s\n", name.c_str());
        return row;
      });
  for (auto row : rows_a) fig_a.add_row(std::move(row));
  std::cout << fig_a.to_string() << "\n";

  // ---------------------------------------------------------- Fig. 8b ----
  const std::vector<std::uint64_t> windows{1'000, 10'000, 100'000, 1'000'000};
  std::printf("=== Fig. 8b: mean accuracy when AFC is checked every W "
              "packets (annex 512) ===\n");
  laps::Table fig_b([&] {
    std::vector<std::string> headers{"trace"};
    for (std::uint64_t w : windows) headers.push_back("W=" + std::to_string(w));
    return headers;
  }());
  const auto rows_b = laps::parallel_index_map(
      harness.jobs, traces.size(), [&](std::size_t t) {
        const std::string& name = traces[t];
        std::vector<std::string> row{name};
        for (std::uint64_t window : windows) {
          laps::AfdConfig cfg;
          cfg.afc_entries = afc_entries;
          cfg.annex_entries = 512;
          laps::Afd afd(cfg);
          laps::ExactTopK truth;
          auto trace = laps::make_trace(name);
          double recall_sum = 0.0;
          std::uint64_t checks = 0;
          for (std::uint64_t i = 1; i <= packets; ++i) {
            const auto rec = trace->next();
            const std::uint64_t key = rec->tuple.key64();
            truth.access(key);
            afd.access(key);
            if (i % window == 0) {
              // "accuracy is checked at every fixed interval" against the
              // cumulative off-line top-k at that instant.
              const auto acc = laps::score_detector(
                  truth, afd.aggressive_flows(), afc_entries);
              recall_sum += 1.0 - acc.false_positive_ratio();
              ++checks;
            }
          }
          row.push_back(checks
                            ? laps::Table::pct(recall_sum / static_cast<double>(checks), 1)
                            : "-");
        }
        std::fprintf(stderr, "done: fig8b/%s\n", name.c_str());
        return row;
      });
  for (auto row : rows_b) fig_b.add_row(std::move(row));
  std::cout << fig_b.to_string() << "\n";

  // ---------------------------------------------------------- Fig. 8c ----
  const std::vector<double> probabilities{1.0, 0.1, 0.01, 0.001, 0.0001};
  std::printf("=== Fig. 8c: FPR under packet sampling (annex 512) ===\n");
  laps::Table fig_c([&] {
    std::vector<std::string> headers{"trace"};
    for (double p : probabilities) {
      headers.push_back(p == 1.0 ? "p=1" : "p=1/" + std::to_string(
                                               static_cast<int>(1.0 / p)));
    }
    return headers;
  }());
  const auto rows_c = laps::parallel_index_map(
      harness.jobs, traces.size(), [&](std::size_t t) {
        const std::string& name = traces[t];
        std::vector<std::unique_ptr<laps::Afd>> afds;
        for (double p : probabilities) {
          laps::AfdConfig cfg;
          cfg.afc_entries = afc_entries;
          cfg.annex_entries = 512;
          cfg.sample_probability = p;
          afds.push_back(std::make_unique<laps::Afd>(cfg));
        }
        laps::ExactTopK truth;
        auto trace = laps::make_trace(name);
        for (std::uint64_t i = 0; i < packets; ++i) {
          const auto rec = trace->next();
          const std::uint64_t key = rec->tuple.key64();
          truth.access(key);
          for (auto& afd : afds) afd->access(key);
        }
        std::vector<std::string> row{name};
        for (auto& afd : afds) {
          const auto acc = laps::score_detector(truth, afd->aggressive_flows(),
                                                afc_entries);
          row.push_back(laps::Table::pct(acc.false_positive_ratio(), 1));
        }
        std::fprintf(stderr, "done: fig8c/%s\n", name.c_str());
        return row;
      });
  for (auto row : rows_c) fig_c.add_row(std::move(row));
  std::cout << fig_c.to_string();
  std::printf(
      "\nExpected shape (paper): (a) FPR falls as annex grows; Auckland "
      "reaches ~0%% at 512 while CAIDA needs 1024; (b) >90%% accuracy at "
      "every window size; (c) sampling up to 1/1k matches or beats p=1, "
      "then degrades for CAIDA.\n");

  laps::write_json_artifact(
      harness.json_path, "fig8_afd_accuracy", {},
      {{"fig8a", &fig_a}, {"fig8b", &fig_b}, {"fig8c", &fig_c}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
