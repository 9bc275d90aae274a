// The benchmark's three workloads. Each one makes the same public calls as
// the shipped command it mirrors (registry specs, scenario builders,
// TraceStore, PacketGenerator/ReplayStream, SimEngine/run_scenario,
// ParallelRunner at one worker, lockstep run_cluster), so its per-cell
// reports are the command's reports byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "tracing.h"
#include "util/json_writer.h"

namespace perfbench {

/// What one pass over a workload's cells produced.
struct PassResult {
  double host_seconds = 0;    ///< wall time of the cells, nothing else
  std::uint64_t offered = 0;  ///< packets offered, summed over the cells
  std::size_t cells = 0;
  std::size_t threw = 0;      ///< cells that threw instead of reporting
  /// The pass's reports in the mirrored command's --json artifact format.
  std::string artifact;
};

/// One of a workload's arrival streams, recorded, with its scenario.
struct Recording {
  laps::ScenarioConfig config;
  laps::ReplayStream stream;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds fresh inputs: everything before the first timed cell. With a
  /// ledger, the trace and traffic layers it uses are traced.
  virtual void setup(Ledger* ledger) = 0;
  /// Runs every cell once on the last setup's inputs. With a ledger, every
  /// layer the cells call is traced.
  virtual PassResult run_pass(Ledger* ledger) = 0;
  /// The arrival streams of the last setup, recorded. A workload whose
  /// cells generate traffic online records it here, charging `ledger`.
  virtual std::vector<Recording> recordings(Ledger& ledger) = 0;
  /// Seed, horizon and specs, for the run's manifest.
  virtual void describe(laps::JsonWriter& w) const = 0;
};

/// "paper_online", "laps_replay" or "cluster_dispatch"; throws otherwise.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// The seed each workload's shipped command uses by default.
std::uint64_t default_seed(const std::string& name);

// The layer sweep of a traced run. A workload's cells leave some layers
// idle; the sweep times those layers on the workload's own recorded
// arrivals, so every per-layer metric is measured on every workload.

/// Runs every scheduler whose boundary `measured` has no calls for, over
/// every recording, through SimEngine inside a one-worker ParallelRunner,
/// charging `ledger`.
void engine_sweep(const std::vector<Recording>& recordings,
                  const Ledger& measured, Ledger& ledger);

/// Runs every dispatcher over every recording on 4 hash shards, charging
/// `ledger`.
void cluster_sweep(const std::vector<Recording>& recordings, Ledger& ledger);

/// Wall time of a one-shard `pass` cluster and of SimEngine::run on the
/// same recorded stream and scheduler: the difference is what the cluster
/// fabric costs.
struct FabricCost {
  double engine_s = 0;
  double cluster_s = 0;
  std::uint64_t packets = 0;
};
FabricCost fabric_cost(const Recording& recording);

}  // namespace perfbench
