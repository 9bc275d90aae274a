#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/time.h"

namespace laps::telemetry {

/// Opaque dense handles returned by registration. Instruments are addressed
/// by index, not name, so the hot path never hashes a string.
struct CounterId {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct GaugeId {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct HistogramId {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};

/// Exact aggregates plus bucket-bound quantiles of a Histogram.
/// count/sum/max are exact; p50/p90/p99 inherit Histogram::quantile's
/// bucket-upper-bound error (<= 1/32 relative, see util/histogram.h).
struct HistogramSummary {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
};

/// One point-in-time copy of a MetricsRegistry: every instrument in
/// registration order (pair values with the registry's *_names()).
struct MetricsSnapshot {
  TimeNs sim_time = 0;
  std::uint64_t seq = 0;  ///< 0, 1, 2, ... since the last reset()
  std::vector<std::uint64_t> counters;
  std::vector<std::int64_t> gauges;
  std::vector<HistogramSummary> histograms;
};

/// A registry of monotonic counters, gauges, and log2 Histograms (the
/// quantile instrument), each a plain cell indexed by its id.
///
/// One thread owns a registry: it registers, writes, snapshots and reads
/// it. TelemetryProbe is the one owner, and every probe lives on the
/// thread that runs its simulation (run_observed), so no cell needs a lock
/// or an atomic. Registration is idempotent (re-registering a name returns
/// the existing id) and each kind has its own namespace. Handing out a cell
/// pointer freezes it: the cells live in vectors that a new name would
/// reallocate under the cached pointer, so registering a new name after
/// counter_cell() or histogram_cell() throws.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or looks up) an instrument by name. Throws
  /// std::logic_error for a new name once a cell pointer was handed out.
  CounterId counter(const std::string& name);
  GaugeId gauge(const std::string& name);
  HistogramId histogram(const std::string& name);

  /// Instrument names in id order.
  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }
  const std::vector<std::string>& gauge_names() const { return gauge_names_; }
  const std::vector<std::string>& histogram_names() const {
    return histogram_names_;
  }

  void add(CounterId id, std::uint64_t n = 1) { counters_[id.index] += n; }
  void set(GaugeId id, std::int64_t v) { gauges_[id.index] = v; }

  /// Stable cell pointers for hooks that bump an instrument per packet;
  /// the first call freezes registration.
  std::uint64_t* counter_cell(CounterId id) {
    frozen_ = true;
    return &counters_[id.index];
  }
  Histogram* histogram_cell(HistogramId id) {
    frozen_ = true;
    return &histograms_[id.index];
  }

  /// Zeroes every counter, gauge and histogram and restarts the snapshot
  /// sequence at 0. The instrument set is kept.
  void reset();

  /// Copies every cell and summarizes every histogram, stamped with the
  /// next sequence number.
  MetricsSnapshot snapshot(TimeNs sim_time);

 private:
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::uint64_t> counters_;
  std::vector<std::int64_t> gauges_;
  std::vector<Histogram> histograms_;
  bool frozen_ = false;
  std::uint64_t next_seq_ = 0;
};

}  // namespace laps::telemetry
