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
/// Each line is appended to the file's temp as it is rendered, and the
/// temp is renamed onto `path` at the end (util::AtomicFileWriter). Throws
/// util::IoError on I/O failure. Returns the number of lines written.
std::size_t write_telemetry_jsonl(const std::string& path,
                                  const TelemetryProbe& probe);

}  // namespace laps::telemetry
