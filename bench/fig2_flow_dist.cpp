// Reproduces paper Fig. 2: "Distribution of flow sizes in real network
// traces. Rank 1 is the flow with the largest flow size." — a log-log
// rank/size series per trace, plus the Tables I/II trace inventory realized
// by the synthetic registry.
//
// Usage: fig2_flow_dist [--packets=N] [--traces=name,name,...|all]
//                       [--jobs=N] [--json=PATH]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "exp/harness.h"
#include "trace/flow_stats.h"
#include "trace/synthetic.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  const std::uint64_t packets = flags.get_uint("packets", 1'000'000);
  const auto traces =
      flags.get_list("traces", "caida1,caida2,auck1,auck2",
                     laps::trace_registry_names());
  const std::size_t jobs = laps::resolve_jobs(flags.get_uint("jobs", 1));
  const std::string json_path = laps::parse_json_flag(flags);
  flags.finish();

  std::printf("=== Tables I/II: trace registry (synthetic substitutes; see "
              "DESIGN.md) ===\n");
  laps::Table inventory(
      {"trace", "flows", "zipf_alpha", "burstiness", "seed"});
  for (const std::string& name : laps::trace_registry_names()) {
    const auto spec = laps::trace_spec(name);
    inventory.add_row({name,
                       laps::Table::num(static_cast<std::int64_t>(spec.num_flows)),
                       laps::Table::num(spec.zipf_alpha, 2),
                       laps::Table::num(spec.burstiness, 2),
                       laps::Table::num(static_cast<std::int64_t>(spec.seed))});
  }
  std::cout << inventory.to_string() << "\n";

  std::printf("=== Fig. 2: flow-size distribution (%llu packets/trace) ===\n",
              static_cast<unsigned long long>(packets));
  // One independent analysis pass per trace.
  std::vector<laps::FlowStatsAnalyzer> stats = laps::parallel_index_map(
      jobs, traces.size(), [&](std::size_t t) {
        laps::FlowStatsAnalyzer analyzer;
        auto trace = laps::make_trace(traces[t]);
        analyzer.consume(*trace, packets);
        std::fprintf(stderr, "done: fig2/%s\n", traces[t].c_str());
        return analyzer;
      });
  // Log-spaced ranks, as in the paper's log-log axes.
  std::vector<std::size_t> ranks;
  for (std::size_t r = 1; r <= 100'000; r *= 10) {
    ranks.push_back(r);
    if (r * 3 <= 100'000) ranks.push_back(r * 3);
  }
  laps::Table out([&] {
    std::vector<std::string> headers{"rank"};
    for (const auto& name : traces) headers.push_back(name + " pkts");
    return headers;
  }());
  for (std::size_t rank : ranks) {
    std::vector<std::string> row{laps::Table::num(static_cast<std::int64_t>(rank))};
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const auto ranked = stats[t].by_rank();
      row.push_back(rank <= ranked.size()
                        ? laps::Table::num(static_cast<std::int64_t>(
                              ranked[rank - 1].packets))
                        : "-");
    }
    out.add_row(std::move(row));
  }
  std::cout << out.to_string() << "\n";

  std::printf("=== Head concentration (the Sec. III-A premise) ===\n");
  laps::Table head({"trace", "distinct flows", "top-16 share", "top-100 share"});
  for (std::size_t t = 0; t < traces.size(); ++t) {
    head.add_row({traces[t],
                  laps::Table::num(static_cast<std::int64_t>(
                      stats[t].distinct_flows())),
                  laps::Table::pct(stats[t].top_share(16)),
                  laps::Table::pct(stats[t].top_share(100))});
  }
  std::cout << head.to_string();

  laps::write_json_artifact(
      json_path, "fig2_flow_dist", {},
      {{"inventory", &inventory}, {"fig2", &out}, {"head", &head}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
