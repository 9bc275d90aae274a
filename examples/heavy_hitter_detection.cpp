// Uses the Aggressive Flow Detector standalone as a line-rate heavy-hitter
// detector — the paper's Sec. III-F hardware, outside the scheduler — and
// checks it against exact off-line analysis, alongside the single-cache and
// Space-Saving alternatives.
//
// Usage: heavy_hitter_detection [--trace=caida1] [--packets=1000000]
//                               [--json=PATH]
#include <cstdio>
#include <iostream>

#include "cache/afd.h"
#include "exp/harness.h"
#include "cache/elephant_trap.h"
#include "cache/space_saving.h"
#include "cache/topk.h"
#include "trace/synthetic.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  using namespace laps;

  const std::string trace_name = flags.get_string("trace", "caida1");
  const std::uint64_t packets = flags.get_uint("packets", 1'000'000);
  const std::string json_path = parse_json_flag(flags);
  flags.finish();

  // Paper configuration: 16-entry AFC qualified through a 512-entry annex.
  AfdConfig afd_config;
  afd_config.afc_entries = 16;
  afd_config.annex_entries = 512;
  Afd afd(afd_config);

  // Same detector with the stricter promotion guard the LAPS scheduler
  // uses (a candidate must also beat the weakest AFC resident).
  AfdConfig guarded_config = afd_config;
  guarded_config.require_beat_afc_min = true;
  Afd guarded(guarded_config);

  ElephantTrap small_trap(16, 16);   // the paper's single-cache comparator
  ElephantTrap big_trap(512, 16);    // single cache at the AFD's full budget
  SpaceSaving sketch(512);           // counter-based alternative
  ExactTopK truth;                   // off-line ground truth

  auto trace = make_trace(trace_name);
  // Remember each flow key's header so we can print detected flows.
  std::unordered_map<std::uint64_t, FiveTuple> headers;
  for (std::uint64_t i = 0; i < packets; ++i) {
    const auto rec = trace->next();
    const std::uint64_t key = rec->tuple.key64();
    headers.emplace(key, rec->tuple);
    afd.access(key);
    guarded.access(key);
    small_trap.access(key);
    big_trap.access(key);
    sketch.access(key);
    truth.access(key);
  }

  std::printf("Processed %llu packets of %s (%zu distinct flows)\n\n",
              static_cast<unsigned long long>(packets), trace_name.c_str(),
              truth.distinct());

  const auto truth_set = truth.top_k_set(16);
  Table detected({"rank", "flow", "packets", "in AFC?"});
  std::size_t rank = 1;
  for (std::uint64_t key : truth.top_k(16)) {
    detected.add_row({std::to_string(rank++), headers.at(key).to_string(),
                      Table::num(static_cast<std::int64_t>(truth.count(key))),
                      afd.is_aggressive(key) ? "yes" : "NO"});
  }
  std::cout << detected.to_string() << "\n";

  auto fpr = [&](const std::vector<std::uint64_t>& claimed) {
    return Table::pct(score_detector(truth, claimed, 16).false_positive_ratio(), 1);
  };
  std::vector<std::uint64_t> ss_claim;
  for (const auto& counter : sketch.top_k(16)) ss_claim.push_back(counter.key);

  Table summary({"detector", "state", "top-16 FPR"});
  summary.add_row({"AFD, paper promotion rule", "16 AFC + 512 annex",
                   fpr(afd.aggressive_flows())});
  summary.add_row({"AFD, + AFC-min guard (LAPS default)",
                   "16 AFC + 512 annex", fpr(guarded.aggressive_flows())});
  summary.add_row({"single 16-entry LFU (paper's comparator)", "16 entries",
                   fpr(small_trap.elephants())});
  summary.add_row({"single 512-entry LFU", "512 entries",
                   fpr(big_trap.elephants())});
  summary.add_row({"Space-Saving", "512 counters", fpr(ss_claim)});
  std::cout << summary.to_string();
  std::printf(
      "\nA big single LFU also finds the elephants, but the structure the "
      "scheduler\nmust search on a migration decision is then 512-way; the "
      "AFD keeps that\ndecision structure at 16 entries.\n");

  const auto& stats = afd.stats();
  std::printf("\nAFD internals: %llu AFC hits, %llu annex hits, "
              "%llu promotions, %llu demotions.\n",
              static_cast<unsigned long long>(stats.afc_hits),
              static_cast<unsigned long long>(stats.annex_hits),
              static_cast<unsigned long long>(stats.promotions),
              static_cast<unsigned long long>(stats.demotions));

  write_json_artifact(json_path, "heavy_hitter_detection", {},
                      {{"detected", &detected}, {"summary", &summary}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
