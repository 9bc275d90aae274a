#pragma once

#include <cstddef>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/probe.h"

namespace laps::telemetry {

/// One snapshot as a single-line JSON object (no trailing newline):
///
///   {"t_ns":N,"seq":N,"counters":{name:N,...},"gauges":{name:N,...},
///    "histograms":{name:{"count":N,"sum":N,"max":N,"p50":N,"p90":N,
///    "p99":N}}}
///
/// Instrument names come from `registry` in id order, so a stream of lines
/// from one run is column-stable.
std::string snapshot_jsonl_line(const MetricsRegistry& registry,
                                const MetricsSnapshot& snap);

/// Writes the probe's series to `path` as JSONL, one snapshot per line:
/// every mid-run snapshot (oldest first), then the final one. A line at
/// `t_ns` closes the window [previous line's t_ns, t_ns), so per-window
/// counts are differences of consecutive lines; the final line closes the
/// rest of the run. The final line also carries `"final":true` and the
/// run's `"scenario"`, `"scheduler"`, `"num_cores"` and `"interval_ns"`.
/// Atomic: written to `path.tmp`, then renamed. Throws std::runtime_error
/// on I/O failure. Returns the number of lines written.
std::size_t write_telemetry_jsonl(const std::string& path,
                                  const TelemetryProbe& probe);

/// Prometheus text-exposition escaping for a label value: backslash,
/// double-quote, and newline are escaped per the spec.
std::string prometheus_escape(const std::string& value);

/// Maps an instrument name to a valid Prometheus metric name: prefixed
/// with "laps_", '.' becomes '_', and any character outside
/// [a-zA-Z0-9_:] becomes '_'.
std::string prometheus_metric_name(const std::string& name);

/// The probe's end-of-run state in Prometheus text exposition format.
/// Counters export as `laps_<name>_total`, gauges as `laps_<name>`, and
/// histograms as the standard `_bucket{le=...}/_sum/_count` series plus a
/// non-standard exact `_max` gauge. Bucket bounds inherit the log2
/// Histogram's <= 1/32 (~3%) upper-bound error, but `_sum`/`_count`/`_max`
/// are exact, so consumers compute true means from the exposition (see
/// util/histogram.h). Every sample carries
/// {scenario="...",scheduler="..."} labels, escaped via
/// prometheus_escape().
std::string prometheus_text(const TelemetryProbe& probe);

/// Writes prometheus_text() to `path` atomically (tmp+rename). Throws
/// std::runtime_error on I/O failure.
void write_telemetry_prometheus(const std::string& path,
                                const TelemetryProbe& probe);

}  // namespace laps::telemetry
