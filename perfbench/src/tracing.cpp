#include "tracing.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

Boundary& Ledger::at(const std::string& name, const std::string& parent) {
  const auto [it, inserted] = boundaries_.try_emplace(name);
  if (inserted) {
    it->second.parent = parent;
  } else if (it->second.parent != parent) {
    throw std::logic_error("ledger: boundary '" + name + "' reached from '" +
                           parent + "' and from '" + it->second.parent + "'");
  }
  return it->second;
}

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

TimerCost calibrate_timer() {
  // Batches are short enough that a preemption spoils one batch, not the
  // median.
  constexpr int kBatches = 31;
  constexpr int kCalls = 20000;
  std::vector<double> span_ns, pair_ns;
  for (int b = 0; b < kBatches; ++b) {
    Boundary boundary;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      Span span(boundary);
    }
    const auto t1 = Clock::now();
    span_ns.push_back(static_cast<double>(boundary.ns) / kCalls);
    pair_ns.push_back(static_cast<double>(elapsed_ns(t0, t1)) / kCalls);
  }
  return {median(span_ns), median(pair_ns)};
}

}  // namespace perfbench
