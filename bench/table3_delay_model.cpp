// Reproduces paper Table III + Sec. IV-C3: the data-plane core
// configuration and the processing-delay model (Eqs. 3-5) derived from it,
// evaluated over the packet-size mixes the traces use. This is the bench
// that documents the GEMS-derived constants our simulator plugs in.
//
// Usage: table3_delay_model [--json=PATH]
#include <cstdio>
#include <iostream>

#include "exp/harness.h"
#include "trace/synthetic.h"
#include "traffic/workload.h"
#include "util/flags.h"
#include "util/tableio.h"

namespace {

int run(laps::Flags& flags) {
  const std::string json_path = laps::parse_json_flag(flags);
  flags.finish();

  std::printf("=== Table III: data-plane core configuration (modeled) ===\n");
  laps::Table t3({"frequency", "pipeline", "branch predictor", "i-cache",
                  "d-cache"});
  t3.add_row({"1 GHz", "7 stage, 2-issue in-order", "gshare/BTB 128-entry",
              "16KB 2-way", "32KB 4-way"});
  std::cout << t3.to_string() << "\n";

  const laps::DelayModel delay;
  std::printf("=== Sec. IV-C3: processing-delay model (Eqs. 3-5) ===\n");
  laps::Table model({"service", "T_proc(64B) us", "T_proc(576B) us",
                     "T_proc(1500B) us", "formula"});
  const char* formulas[] = {
      "3.7 + (size/64)*0.23 us (Eq. 4)",
      "0.5 us",
      "3.53 us",
      "5.8 + (size/64)*0.21 us (Eq. 5)",
  };
  for (std::size_t s = 0; s < laps::kNumServices; ++s) {
    const auto path = static_cast<laps::ServicePath>(s);
    model.add_row({laps::service_name(path),
                   laps::Table::num(laps::to_us(delay.proc_time(path, 64)), 2),
                   laps::Table::num(laps::to_us(delay.proc_time(path, 576)), 2),
                   laps::Table::num(laps::to_us(delay.proc_time(path, 1500)), 2),
                   formulas[s]});
  }
  std::cout << model.to_string() << "\n";

  std::printf("Penalties: FM_penalty = %.2f us (four cache misses), "
              "CC_penalty = %.2f us (cold I-cache refill of the smallest "
              "service).\n\n",
              laps::to_us(delay.fm_penalty), laps::to_us(delay.cc_penalty));

  std::printf("=== Mean T_proc under trace packet-size mixes, and ideal "
              "16-core capacity ===\n");
  laps::Table cap({"service", "mix", "mean T_proc us", "1-core Mpps",
                   "16-core Mpps"});
  for (const char* trace_name : {"caida1", "auck1"}) {
    const auto spec = laps::trace_spec(trace_name);
    for (std::size_t s = 0; s < laps::kNumServices; ++s) {
      const auto path = static_cast<laps::ServicePath>(s);
      const double t =
          delay.mean_proc_time_us(path, spec.size_bytes, spec.size_weights);
      cap.add_row({laps::service_name(path), trace_name,
                   laps::Table::num(t, 2), laps::Table::num(1.0 / t, 3),
                   laps::Table::num(16.0 / t, 2)});
    }
  }
  std::cout << cap.to_string();

  laps::write_json_artifact(json_path, "table3_delay_model", {},
                            {{"table3", &t3}, {"delay_model", &model},
                             {"capacity", &cap}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return laps::guarded_main(argc, argv, run);
}
