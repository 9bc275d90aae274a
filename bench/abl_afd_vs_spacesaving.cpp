// Ablation: cache-based AFD vs the counter-based Space-Saving sketch at
// equal state budgets — the "per-flow counter" line of related work the
// paper contrasts with (Sec. VI). Space-Saving gives deterministic
// guarantees but needs count comparisons on every packet; the AFD is a
// plain cache lookup. We compare top-16 identification quality.
//
// Usage: abl_afd_vs_spacesaving [--packets=N] [--traces=...|all]
//                               [--jobs=N] [--json=PATH]
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cache/afd.h"
#include "cache/space_saving.h"
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
  const auto harness = laps::parse_harness_flags(flags);
  flags.finish();

  std::printf("=== AFD vs Space-Saving, top-16 identification (%llu "
              "packets/trace) ===\n\n",
              static_cast<unsigned long long>(packets));

  std::vector<std::pair<std::string, std::size_t>> cells;
  for (const std::string& name : traces) {
    for (std::size_t budget : {128u, 512u}) cells.emplace_back(name, budget);
  }

  const auto rows = laps::parallel_index_map(
      harness.jobs, cells.size(), [&](std::size_t i) {
        const auto& [name, budget] = cells[i];
        laps::AfdConfig cfg;
        cfg.afc_entries = 16;
        cfg.annex_entries = budget - 16;
        laps::Afd afd(cfg);
        laps::SpaceSaving sketch(budget);
        laps::ExactTopK truth;

        auto trace = laps::make_trace(name);
        for (std::uint64_t p = 0; p < packets; ++p) {
          const std::uint64_t key = trace->next()->tuple.key64();
          truth.access(key);
          afd.access(key);
          sketch.access(key);
        }
        std::vector<std::uint64_t> ss_claim;
        for (const auto& counter : sketch.top_k(16)) {
          ss_claim.push_back(counter.key);
        }
        const auto afd_acc =
            laps::score_detector(truth, afd.aggressive_flows(), 16);
        const auto ss_acc = laps::score_detector(truth, ss_claim, 16);
        std::fprintf(stderr, "done: %s/%zu\n", name.c_str(), budget);
        return std::vector<std::string>{
            name, std::to_string(budget),
            laps::Table::pct(afd_acc.false_positive_ratio(), 1),
            laps::Table::pct(afd_acc.recall(16), 1),
            laps::Table::pct(ss_acc.false_positive_ratio(), 1),
            laps::Table::pct(ss_acc.recall(16), 1)};
      });

  laps::Table out({"trace", "budget", "AFD FPR", "AFD recall",
                   "SpaceSaving FPR", "SpaceSaving recall"});
  for (auto row : rows) out.add_row(std::move(row));
  std::cout << out.to_string();
  std::printf("\nExpected: Space-Saving is at least as accurate (it has "
              "deterministic guarantees); the AFD trades a little accuracy "
              "for a cheaper, directly-schedulable cache structure.\n");

  laps::write_json_artifact(harness.json_path, "abl_afd_vs_spacesaving", {},
                            {{"afd_vs_spacesaving", &out}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
