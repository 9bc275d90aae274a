#pragma once

#include <cstdint>
#include <utility>

#include "sim/probe.h"
#include "sim/report.h"

namespace laps {

/// Rebuilds the seed `SimReport` from probe events — byte-identical (via
/// report_to_json) to what the monolithic Npu::run loop produced, which the
/// golden determinism suite asserts. This is the default probe behind
/// run_scenario(); everything downstream (benches, examples, JSON
/// artifacts) reads its report.
class ReportProbe final : public SimProbe {
 public:
  void on_run_begin(const RunInfo& info) override;
  void on_arrival(TimeNs now, const SimPacket& pkt) override;
  void on_drop(TimeNs now, const SimPacket& pkt, CoreId core) override;
  void on_dispatch(TimeNs now, const SimPacket& pkt, CoreId core,
                   bool migrated) override;
  void on_service_start(TimeNs now, const SimPacket& pkt, CoreId core,
                        TimeNs delay, bool fm_penalty,
                        bool cold_cache) override;
  void on_departure(TimeNs now, const SimPacket& pkt, CoreId core,
                    std::uint32_t new_ooo) override;
  void on_run_end(const RunEnd& end) override;

  /// The assembled report; valid after on_run_end.
  const SimReport& report() const { return report_; }
  SimReport take_report() { return std::move(report_); }

 private:
  SimReport report_;
  std::size_t num_cores_ = 0;
};

}  // namespace laps
