#include "telemetry/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace laps::telemetry {

namespace {

/// The id of `name` in `names`, appending it and a zeroed cell when new.
template <typename Cell>
std::uint32_t intern(std::vector<std::string>& names, std::vector<Cell>& cells,
                     const std::string& name, const char* kind, bool frozen) {
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  if (frozen) {
    throw std::logic_error(std::string("MetricsRegistry: cannot register ") +
                           kind + " '" + name +
                           "' after a cell pointer was handed out");
  }
  names.push_back(name);
  cells.emplace_back();
  return static_cast<std::uint32_t>(names.size() - 1);
}

}  // namespace

CounterId MetricsRegistry::counter(const std::string& name) {
  return CounterId{intern(counter_names_, counters_, name, "counter", frozen_)};
}

GaugeId MetricsRegistry::gauge(const std::string& name) {
  return GaugeId{intern(gauge_names_, gauges_, name, "gauge", frozen_)};
}

HistogramId MetricsRegistry::histogram(const std::string& name) {
  return HistogramId{
      intern(histogram_names_, histograms_, name, "histogram", frozen_)};
}

void MetricsRegistry::reset() {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(gauges_.begin(), gauges_.end(), 0);
  for (Histogram& h : histograms_) h.clear();
  next_seq_ = 0;
}

MetricsSnapshot MetricsRegistry::snapshot(TimeNs sim_time) {
  MetricsSnapshot snap;
  snap.sim_time = sim_time;
  snap.seq = next_seq_++;
  snap.counters = counters_;
  snap.gauges = gauges_;
  snap.histograms.reserve(histograms_.size());
  for (const Histogram& h : histograms_) {
    snap.histograms.push_back({h.count(), h.sum(), h.max(), h.quantile(0.50),
                               h.quantile(0.90), h.quantile(0.99)});
  }
  return snap;
}

}  // namespace laps::telemetry
