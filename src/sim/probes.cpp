#include "sim/probes.h"

namespace laps {

const char* SchedEvent::kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCoreGrant: return "core_grant";
    case Kind::kCoreDenied: return "core_denied";
    case Kind::kAggressiveMigration: return "aggressive_migration";
    case Kind::kAfdPromotion: return "afd_promotion";
    case Kind::kPark: return "park";
    case Kind::kWake: return "wake";
    case Kind::kCoreDown: return "core_down";
    case Kind::kCoreUp: return "core_up";
    case Kind::kCoreSlowdown: return "core_slowdown";
    case Kind::kCoreStall: return "core_stall";
    case Kind::kTrafficFault: return "traffic_fault";
  }
  return "unknown";
}

// ------------------------------------------------------------ ReportProbe ---

void ReportProbe::on_run_begin(const RunInfo& info) {
  report_ = SimReport{};
  report_.scheduler = info.scheduler;
  report_.scenario = info.scenario;
  num_cores_ = info.num_cores;
}

void ReportProbe::on_arrival(TimeNs, const SimPacket& pkt) {
  ++report_.offered;
  ++report_.offered_by_service[static_cast<std::size_t>(pkt.service)];
}

void ReportProbe::on_drop(TimeNs, const SimPacket& pkt, CoreId) {
  ++report_.dropped;
  ++report_.dropped_by_service[static_cast<std::size_t>(pkt.service)];
}

void ReportProbe::on_dispatch(TimeNs, const SimPacket&, CoreId,
                              bool migrated) {
  if (migrated) ++report_.flow_migrations;
}

void ReportProbe::on_service_start(TimeNs, const SimPacket&, CoreId, TimeNs,
                                   bool fm_penalty, bool cold_cache) {
  if (fm_penalty) ++report_.fm_penalties;
  if (cold_cache) ++report_.cold_cache_events;
}

void ReportProbe::on_departure(TimeNs now, const SimPacket& pkt, CoreId,
                               std::uint32_t new_ooo) {
  ++report_.delivered;
  report_.latency_ns.record(now - pkt.arrival);
  report_.out_of_order += new_ooo;
}

void ReportProbe::on_run_end(const RunEnd& end) {
  report_.sim_time = end.horizon;
  // Identical arithmetic to the seed Npu::run epilogue, so the derived
  // double is bit-equal and the JSON bytes match.
  report_.mean_core_utilization =
      end.end > 0 ? static_cast<double>(end.busy_total) /
                        (static_cast<double>(end.end) *
                         static_cast<double>(num_cores_))
                  : 0.0;
  report_.extra = end.extra;
}

}  // namespace laps
