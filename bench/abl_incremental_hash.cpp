// Ablation: incremental (linear) hashing vs a plain full rehash (`% b`)
// when a service's core count changes — quantifying Sec. III-C's "minimal
// disruption" claim. For each transition b -> b+1 we count how much of the
// 16-bit hash space changes buckets under each scheme, and how many
// *packets* of a real trace prefix that represents.
//
// Usage: abl_incremental_hash [--packets=N] [--trace=caida1]
//                             [--json=PATH]
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/map_table.h"
#include "exp/harness.h"
#include "trace/flow_stats.h"
#include "trace/synthetic.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  const std::uint64_t packets = flags.get_uint("packets", 500'000);
  const std::string trace_name = flags.get_string("trace", "caida1");
  const std::string json_path = laps::parse_json_flag(flags);
  flags.finish();

  // Hash histogram of the trace prefix: packets per 16-bit CRC value.
  std::vector<std::uint64_t> weight(65536, 0);
  auto trace = laps::make_trace(trace_name);
  for (std::uint64_t i = 0; i < packets; ++i) {
    ++weight[trace->next()->tuple.crc16()];
  }

  std::printf("=== Flow disruption when growing a service b -> b+1 "
              "(%s, %llu packets) ===\n\n",
              trace_name.c_str(), static_cast<unsigned long long>(packets));
  laps::Table out({"b -> b+1", "incremental: hash space moved",
                   "incremental: packets moved", "full rehash: hash space",
                   "full rehash: packets"});

  for (std::size_t b = 1; b <= 16; ++b) {
    // Incremental hashing via MapTable.
    std::vector<laps::CoreId> cores;
    for (laps::CoreId c = 0; c < b; ++c) cores.push_back(c);
    laps::MapTable table(cores);
    std::vector<std::size_t> before(65536);
    for (std::uint32_t h = 0; h < 65536; ++h) {
      before[h] = table.bucket_index(static_cast<std::uint16_t>(h));
    }
    table.add_core(static_cast<laps::CoreId>(b));

    std::uint64_t inc_space = 0, inc_packets = 0;
    std::uint64_t full_space = 0, full_packets = 0;
    for (std::uint32_t h = 0; h < 65536; ++h) {
      if (before[h] != table.bucket_index(static_cast<std::uint16_t>(h))) {
        ++inc_space;
        inc_packets += weight[h];
      }
      if (h % b != h % (b + 1)) {
        ++full_space;
        full_packets += weight[h];
      }
    }
    out.add_row({std::to_string(b) + " -> " + std::to_string(b + 1),
                 laps::Table::pct(inc_space / 65536.0, 1),
                 laps::Table::num(static_cast<std::int64_t>(inc_packets)),
                 laps::Table::pct(full_space / 65536.0, 1),
                 laps::Table::num(static_cast<std::int64_t>(full_packets))});
  }
  std::cout << out.to_string();
  std::printf("\nExpected: incremental hashing moves ~1/(2b) of the space "
              "(half of one split bucket) vs ~b/(b+1) for a full rehash — "
              "the reason LAPS can reassign cores without mass flow "
              "migration.\n");

  laps::write_json_artifact(json_path, "abl_incremental_hash", {},
                            {{"incremental_hash", &out}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
