#include "sim/probes.h"

#include "traffic/workload.h"
#include "util/fileio.h"
#include "util/json_writer.h"

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

// ------------------------------------------------------- ChromeTraceProbe ---

void ChromeTraceProbe::on_run_begin(const RunInfo& info) {
  info_ = info;
  events_.clear();
}

void ChromeTraceProbe::on_drop(TimeNs now, const SimPacket& pkt,
                               CoreId core) {
  events_.push_back(Event{'i', now, 0, core, "drop",
                          "{\"flow\":" + std::to_string(pkt.gflow) +
                              ",\"seq\":" + std::to_string(pkt.seq) + "}"});
}

void ChromeTraceProbe::on_service_start(TimeNs now, const SimPacket& pkt,
                                        CoreId core, TimeNs delay,
                                        bool fm_penalty, bool cold_cache) {
  std::string args = "{\"flow\":" + std::to_string(pkt.gflow) +
                     ",\"seq\":" + std::to_string(pkt.seq);
  if (fm_penalty) args += ",\"fm_penalty\":true";
  if (cold_cache) args += ",\"cold_cache\":true";
  args += "}";
  events_.push_back(Event{'X', now, delay, core, service_name(pkt.service),
                          std::move(args)});
}

void ChromeTraceProbe::on_sched_event(TimeNs now, const SchedEvent& event) {
  std::string args = "{";
  if (event.core >= 0) args += "\"core\":" + std::to_string(event.core);
  if (event.service >= 0) {
    if (args.size() > 1) args += ",";
    args += "\"service\":" + std::to_string(event.service);
  }
  if (event.flow_key != 0) {
    if (args.size() > 1) args += ",";
    args += "\"flow_key\":" + std::to_string(event.flow_key);
  }
  args += "}";
  // Scheduler decisions render on a dedicated row below the core rows.
  events_.push_back(Event{'i', now, 0,
                          static_cast<std::uint32_t>(info_.num_cores),
                          SchedEvent::kind_name(event.kind),
                          std::move(args)});
}

std::string ChromeTraceProbe::to_json() const {
  // Hand-assembled (not JsonWriter) because trace viewers want the compact
  // one-event-per-line form, and args are pre-rendered fragments.
  std::string out;
  out.reserve(events_.size() * 96 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto append = [&](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };
  // Metadata: name the process and one row per core plus the scheduler row.
  append("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{"
         "\"name\":" +
         JsonWriter::quote(info_.scenario + " / " + info_.scheduler) + "}}");
  for (std::size_t c = 0; c <= info_.num_cores; ++c) {
    const std::string label =
        c < info_.num_cores ? "core " + std::to_string(c) : "scheduler";
    append("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(c) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":" +
           JsonWriter::quote(label) + "}}");
  }
  for (const Event& e : events_) {
    std::string line = "{\"ph\":\"";
    line += e.phase;
    line += "\",\"pid\":0,\"tid\":" + std::to_string(e.tid) +
            ",\"ts\":" + std::to_string(to_us(e.start));
    if (e.phase == 'X') {
      line += ",\"dur\":" + std::to_string(to_us(e.duration));
    } else if (e.phase == 'i') {
      line += ",\"s\":\"t\"";  // instant scope; counters take neither field
    }
    line += ",\"name\":" + JsonWriter::quote(e.name);
    if (!e.args_json.empty()) line += ",\"args\":" + e.args_json;
    line += "}";
    append(line);
  }
  out += "\n]}\n";
  return out;
}

void ChromeTraceProbe::write(const std::string& path) const {
  util::write_file_atomic(path, to_json(), "chrome trace");
}

}  // namespace laps
