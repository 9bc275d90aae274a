// Ablation: scheduler hash quality — CRC16 (the paper's choice, after Cao
// et al. INFOCOM'00), Toeplitz/RSS, and a naive additive fold — measured as
// (a) bucket uniformity (chi-squared) over the flow population and
// (b) end-to-end drops when used as the static-hash spreading function.
//
// Usage: abl_hash_quality [--flows=N] [--trace=caida1] [--seconds=S]
//                         [--json=PATH]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "baselines/static_hash.h"
#include "exp/harness.h"
#include "sim/scenarios.h"
#include "trace/synthetic.h"
#include "util/flags.h"
#include "util/tableio.h"
#include "util/toeplitz.h"

namespace {

/// StaticHash variant whose bucket index uses a pluggable hash function.
class HashVariantScheduler final : public laps::StaticHashScheduler {
 public:
  enum class Kind { kCrc16, kToeplitz, kNaiveFold };

  explicit HashVariantScheduler(Kind kind) : kind_(kind) {}

  laps::CoreId schedule(const laps::SimPacket& pkt,
                        const laps::NpuView& view) override {
    static_cast<void>(view);
    return table_[index(pkt.tuple)];
  }

  /// Bucket index for a tuple (also used standalone for the uniformity
  /// measurement).
  std::size_t index(const laps::FiveTuple& tuple) const {
    switch (kind_) {
      case Kind::kCrc16: return tuple.crc16() % table_.size();
      case Kind::kToeplitz: return toeplitz_.hash(tuple) % table_.size();
      case Kind::kNaiveFold:
        return laps::naive_fold_hash(tuple) % table_.size();
    }
    return 0;
  }

  std::string name() const override {
    switch (kind_) {
      case Kind::kCrc16: return "CRC16";
      case Kind::kToeplitz: return "Toeplitz";
      case Kind::kNaiveFold: return "NaiveFold";
    }
    return "?";
  }

 private:
  Kind kind_;
  laps::ToeplitzHash toeplitz_;
};

int run(laps::Flags& flags) {
  const std::size_t flows = flags.get_uint("flows", 100'000);
  const std::string trace_name = flags.get_string("trace", "caida1");
  laps::ScenarioOptions options;
  options.seconds = flags.get_double("seconds", 0.02);
  options.seed = 23;
  const auto harness = laps::parse_harness_flags(flags);
  flags.finish();

  const auto kinds = {HashVariantScheduler::Kind::kCrc16,
                      HashVariantScheduler::Kind::kToeplitz,
                      HashVariantScheduler::Kind::kNaiveFold};

  // (a) Bucket uniformity over the trace's flow population, 16 cores.
  std::printf("=== Hash uniformity over %zu flows of %s (chi^2 across 16 "
              "cores; 15-dof 1%% critical value = 30.6) ===\n\n",
              flows, trace_name.c_str());
  auto spec = laps::trace_spec(trace_name);
  spec.churn_per_packet = 0.0;  // enumerate the rank population directly
  laps::SyntheticTrace trace(spec);

  laps::Table uni({"hash", "chi^2", "max bucket", "min bucket"});
  for (const auto kind : kinds) {
    HashVariantScheduler hasher(kind);
    hasher.attach(16);
    std::vector<double> hist(16, 0);
    const std::size_t n = std::min(flows, spec.num_flows);
    for (std::uint32_t f = 0; f < n; ++f) {
      // index() is over buckets; fold onto cores the way attach() does.
      hist[hasher.index(trace.tuple_of(f)) % 16] += 1;
    }
    const double expected = static_cast<double>(n) / 16.0;
    double chi2 = 0;
    for (double c : hist) chi2 += (c - expected) * (c - expected) / expected;
    uni.add_row({hasher.name(), laps::Table::num(chi2, 1),
                 laps::Table::num(*std::max_element(hist.begin(), hist.end()), 0),
                 laps::Table::num(*std::min_element(hist.begin(), hist.end()), 0)});
  }
  std::cout << uni.to_string() << "\n";

  // (a') Structured population: sequential client addresses behind one
  // gateway, two server ports — the LAN pattern where weak hashes
  // collapse. 16 cores, stride-16 clients alias for the additive fold.
  std::printf("=== Hash uniformity on structured LAN addresses (stride-16 "
              "clients, fixed peer) ===\n\n");
  laps::Table structured({"hash", "chi^2", "max bucket", "min bucket"});
  for (const auto kind : kinds) {
    HashVariantScheduler hasher(kind);
    hasher.attach(16);
    std::vector<double> hist(16, 0);
    constexpr std::size_t kClients = 4096;
    for (std::uint32_t i = 0; i < kClients; ++i) {
      laps::FiveTuple t;
      t.src_ip = 0xC0A80000u + i * 16;  // 192.168.x.y, stride 16
      t.dst_ip = 0x08080808u;
      t.src_port = 32768;
      t.dst_port = (i & 1) ? 443 : 80;
      t.protocol = 6;
      hist[hasher.index(t) % 16] += 1;
    }
    const double expected = kClients / 16.0;
    double chi2 = 0;
    for (double c : hist) chi2 += (c - expected) * (c - expected) / expected;
    structured.add_row(
        {hasher.name(), laps::Table::num(chi2, 1),
         laps::Table::num(*std::max_element(hist.begin(), hist.end()), 0),
         laps::Table::num(*std::min_element(hist.begin(), hist.end()), 0)});
  }
  std::cout << structured.to_string() << "\n";

  // (b) End-to-end drops near capacity with each hash as the spreader.
  std::printf("=== End-to-end static hashing at 95%% load, %s ===\n\n",
              trace_name.c_str());
  const auto cfg =
      laps::make_single_service_scenario(trace_name, options, 0.95);
  laps::Table e2e({"hash", "drop%", "utilization"});
  for (const auto kind : kinds) {
    HashVariantScheduler sched(kind);
    const auto r = laps::run_observed(cfg, sched, harness);
    e2e.add_row({r.scheduler, laps::Table::pct(r.drop_ratio()),
                 laps::Table::pct(r.mean_core_utilization)});
    std::fprintf(stderr, "done: %s\n", r.scheduler.c_str());
  }
  std::cout << e2e.to_string();
  std::printf("\nExpected: CRC16 and Toeplitz are statistically uniform and "
              "perform alike; the additive fold correlates with address "
              "structure and loses more packets at equal load.\n");

  laps::write_json_artifact(harness.json_path, "abl_hash_quality", {},
                            {{"uniformity", &uni}, {"structured", &structured},
                             {"end_to_end", &e2e}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
