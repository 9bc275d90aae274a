// Trace tooling: export a synthetic trace to a real .pcap file, read it
// back with the library's pcap reader, and print flow statistics — the
// workflow for swapping the synthetic substitutes for real captures.
//
// Usage: trace_inspect [--trace=auck1] [--packets=50000] [--out=/tmp/x.pcap]
//        trace_inspect --pcap=/path/to/capture.pcap   (inspect a real file)
//        trace_inspect [--json=PATH]
#include <cstdio>
#include <iostream>

#include "exp/harness.h"
#include "trace/flow_stats.h"
#include "trace/pcap_io.h"
#include "trace/synthetic.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  using namespace laps;

  const std::string pcap_in = flags.get_string("pcap", "");
  const std::string trace_name = flags.get_string("trace", "auck1");
  const std::uint64_t packets = flags.get_uint("packets", 50'000);
  const std::string out = flags.get_string("out", "/tmp/laps_trace.pcap");
  const auto harness = parse_harness_flags(flags);
  flags.finish();

  std::string path = pcap_in;
  if (path.empty()) {
    // Export a synthetic trace as a real pcap file (Ethernet/IPv4 frames,
    // readable by tcpdump/wireshark as well as by PcapReader below).
    auto trace = make_trace(trace_name);
    PcapWriter writer(out);
    std::uint64_t ts = 0;
    for (std::uint64_t i = 0; i < packets; ++i) {
      writer.write(ts, *trace->next());
      ts += 1'000;  // 1 us spacing
    }
    writer.close();
    std::printf("Wrote %llu packets of '%s' to %s\n\n",
                static_cast<unsigned long long>(writer.written()),
                trace_name.c_str(), out.c_str());
    path = out;
  }

  // Read it back through the TraceSource interface and analyze.
  PcapTrace trace(path);
  FlowStatsAnalyzer stats;
  stats.consume(trace, ~0ULL);

  std::printf("%s: %llu packets, %zu flows, %llu bytes\n\n", path.c_str(),
              static_cast<unsigned long long>(stats.total_packets()),
              stats.distinct_flows(),
              static_cast<unsigned long long>(stats.total_bytes()));

  Table top({"rank", "packets", "bytes", "share"});
  const auto ranked = stats.by_rank();
  for (std::size_t r = 0; r < std::min<std::size_t>(10, ranked.size()); ++r) {
    top.add_row({std::to_string(r + 1),
                 Table::num(static_cast<std::int64_t>(ranked[r].packets)),
                 Table::num(static_cast<std::int64_t>(ranked[r].bytes)),
                 Table::pct(static_cast<double>(ranked[r].packets) /
                            static_cast<double>(stats.total_packets()))});
  }
  std::cout << top.to_string();
  std::printf("\nTop 16 flows carry %s of the packets — the skew that "
              "drives the paper's load-balancing problem.\n",
              Table::pct(stats.top_share(16)).c_str());

  write_json_artifact(harness.json_path, "trace_inspect", {},
                      {{"top_flows", &top}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
