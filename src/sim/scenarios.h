#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "trace/packet_record.h"

namespace laps {

/// Options shared by the paper-scenario builders.
struct ScenarioOptions {
  double seconds = 1.0;     ///< simulated horizon (paper: 60 s)
  std::uint64_t seed = 42;
  std::size_t num_cores = 16;
  /// Optional override for how trace names become TraceSources; defaults to
  /// `make_trace(name)`. The benches install a TraceStore factory here, so
  /// the jobs of a grid build each trace's Zipf table once instead of once
  /// per scenario.
  std::function<std::shared_ptr<TraceSource>(const std::string&)>
      trace_factory;
  /// Calibrated mean offered load for Table IV Set 1 ("under-load": the
  /// aggregate rate is less than the ideal capacity of 16 cores").
  double load_set1 = 0.85;
  /// Calibrated mean offered load for Set 2 ("overload").
  double load_set2 = 1.15;
};

/// The four trace groups of paper Table V (trace names per service S1..S4).
std::vector<std::string> table5_group(int group);

/// Scenario ids of paper Table VI: "T1".."T8".
std::vector<std::string> paper_scenario_ids();

/// Builds the full 4-service scenario for a Table VI id ("T1".."T8"):
/// Holt-Winters parameter Set 1/2 (Table IV) crossed with trace group
/// G1..G4 (Table V), rates scaled so the aggregate load matches the
/// under/over-load calibration in `options` (see DESIGN.md: the paper's
/// absolute Mpps with our packet-size mixes would land both sets in deep
/// overload, so we pin the *regime*, which is what the figure contrasts).
///
/// Note: Table VI lists G3 for both T7 and T8; following the T1-T4 pattern
/// (and the obvious typo), T8 uses G4.
ScenarioConfig make_paper_scenario(const std::string& id,
                                   const ScenarioOptions& options);

/// Builds the Fig. 9 scenario: a single service (IP forwarding) across all
/// cores, fed by one trace at `load` times the ideal capacity (the paper
/// uses "slightly more than 100%", default 1.05).
ScenarioConfig make_single_service_scenario(const std::string& trace,
                                            const ScenarioOptions& options,
                                            double load = 1.05);

}  // namespace laps
