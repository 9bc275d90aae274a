#include "telemetry/export.h"

#include <functional>
#include <stdexcept>

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

std::string prometheus_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string prometheus_metric_name(const std::string& name) {
  std::string out = "laps_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_text(const TelemetryProbe& probe) {
  const MetricsRegistry& registry = probe.registry();
  const MetricsSnapshot& snap = probe.final_snapshot();
  const std::string labels =
      "{scenario=\"" + prometheus_escape(probe.info().scenario) +
      "\",scheduler=\"" + prometheus_escape(probe.info().scheduler) + "\"}";

  std::string out;
  const std::vector<std::string>& counters = registry.counter_names();
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const std::string metric = prometheus_metric_name(counters[i]) + "_total";
    out += "# TYPE " + metric + " counter\n";
    out += metric + labels + " " + std::to_string(snap.counters[i]) + "\n";
  }
  const std::vector<std::string>& gauges = registry.gauge_names();
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const std::string metric = prometheus_metric_name(gauges[i]);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + labels + " " + std::to_string(snap.gauges[i]) + "\n";
  }
  const std::vector<std::string>& histograms = registry.histogram_names();
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const Histogram& h =
        registry.histogram(HistogramId{static_cast<std::uint32_t>(i)});
    const std::string metric = prometheus_metric_name(histograms[i]);
    const std::string label_prefix =
        "{scenario=\"" + prometheus_escape(probe.info().scenario) +
        "\",scheduler=\"" + prometheus_escape(probe.info().scheduler) + "\",";
    out += "# TYPE " + metric + " histogram\n";
    std::uint64_t cumulative = 0;
    for (const Histogram::Bucket& bucket : h.buckets()) {
      cumulative += bucket.count;
      out += metric + "_bucket" + label_prefix + "le=\"" +
             std::to_string(bucket.upper_bound) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += metric + "_bucket" + label_prefix + "le=\"+Inf\"} " +
           std::to_string(h.count()) + "\n";
    // count/sum/max are exact (bucket bounds are not — the log2 histogram
    // quantizes to 1/32-relative bucket tops), so true means come from
    // _sum/_count, and _max needs no bucket at all.
    out += metric + "_sum" + labels + " " + std::to_string(h.sum()) + "\n";
    out += metric + "_count" + labels + " " + std::to_string(h.count()) + "\n";
    out += metric + "_max" + labels + " " + std::to_string(h.max()) + "\n";
  }
  return out;
}

void write_telemetry_prometheus(const std::string& path,
                                const TelemetryProbe& probe) {
  util::write_file_atomic(path, prometheus_text(probe), "telemetry exposition");
}

}  // namespace laps::telemetry
