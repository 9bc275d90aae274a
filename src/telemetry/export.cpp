#include "telemetry/export.h"

#include <functional>

#include "util/fileio.h"
#include "util/json_writer.h"

namespace laps::telemetry {
namespace {

void append_section(std::string& out, const char* key,
                    const std::vector<std::string>& names, std::size_t count,
                    const std::function<std::string(std::size_t)>& value) {
  out += "\"";
  out += key;
  out += "\":{";
  for (std::size_t i = 0; i < count; ++i) {
    if (i != 0) out += ",";
    out += JsonWriter::quote(names[i]) + ":" + value(i);
  }
  out += "}";
}

}  // namespace

std::string snapshot_jsonl_line(const MetricsRegistry& registry,
                                const MetricsSnapshot& snap) {
  std::string out = "{\"t_ns\":" + std::to_string(snap.sim_time) +
                    ",\"seq\":" + std::to_string(snap.seq) + ",";
  append_section(out, "counters", registry.counter_names(),
                 snap.counters.size(), [&](std::size_t i) {
                   return std::to_string(snap.counters[i]);
                 });
  out += ",";
  append_section(out, "gauges", registry.gauge_names(), snap.gauges.size(),
                 [&](std::size_t i) { return std::to_string(snap.gauges[i]); });
  out += ",";
  append_section(out, "histograms", registry.histogram_names(),
                 snap.histograms.size(), [&](std::size_t i) {
                   const HistogramSummary& h = snap.histograms[i];
                   return "{\"count\":" + std::to_string(h.count) +
                          ",\"sum\":" + std::to_string(h.sum) +
                          ",\"max\":" + std::to_string(h.max) +
                          ",\"p50\":" + std::to_string(h.p50) +
                          ",\"p90\":" + std::to_string(h.p90) +
                          ",\"p99\":" + std::to_string(h.p99) + "}";
                 });
  out += "}";
  return out;
}

std::size_t write_telemetry_jsonl(const std::string& path,
                                  const TelemetryProbe& probe) {
  util::AtomicFileWriter out(path, "telemetry JSONL");
  for (const MetricsSnapshot& snap : probe.snapshots()) {
    out.append(snapshot_jsonl_line(probe.registry(), snap) + "\n");
  }
  // The final line also labels the run, so a stream file stands alone:
  // num_cores turns engine.queue_depth_total into a per-core mean.
  std::string last = snapshot_jsonl_line(probe.registry(),
                                         probe.final_snapshot());
  last.pop_back();  // '}'
  last += ",\"final\":true,\"scenario\":" +
          JsonWriter::quote(probe.info().scenario) +
          ",\"scheduler\":" + JsonWriter::quote(probe.info().scheduler) +
          ",\"num_cores\":" + std::to_string(probe.info().num_cores) +
          ",\"interval_ns\":" + std::to_string(probe.config().interval) +
          "}\n";
  out.append(last);
  out.commit();
  return probe.snapshots().size() + 1;
}

}  // namespace laps::telemetry
