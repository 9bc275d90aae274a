#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/report.h"
#include "util/json_writer.h"
#include "util/time.h"

namespace laps {

/// Aggregate results of one cluster run: the per-shard SimReports plus the
/// accounting only the cluster layer can do — splitting out-of-order
/// departures into what happened *inside* a shard NP (the paper's metric,
/// summed) and what the front-end dispatcher added by moving flows
/// *between* NPs (the Flow Director / A-TFN tension this layer exists to
/// measure).
struct ClusterReport {
  std::string scenario;
  std::string dispatcher;  ///< display name (Dispatcher::name())
  std::size_t num_shards = 0;
  TimeNs sim_time = 0;  ///< max shard sim_time

  std::uint64_t offered = 0;    ///< packets presented to the dispatcher
  std::uint64_t delivered = 0;  ///< sum of shard deliveries
  std::uint64_t dropped = 0;    ///< sum of shard drops

  /// Sum of shard out_of_order: reordering each shard's own scheduler
  /// caused, visible even on that shard's wire alone.
  std::uint64_t intra_np_out_of_order = 0;
  /// Out-of-order departures on the merged cluster egress (all shards'
  /// departures in global time order, ties by shard id). Always >= the
  /// intra sum: merging can only expose more inversions.
  std::uint64_t cluster_out_of_order = 0;
  /// cluster - sum(intra): inversions that exist only across shards, i.e.
  /// caused by the dispatcher splitting a flow over NPs.
  std::uint64_t cross_np_out_of_order = 0;

  /// Sum of shard flow_migrations (core changes inside a shard).
  std::uint64_t intra_np_migrations = 0;
  /// Dispatches that sent a flow to a different shard than its previous
  /// packet (first packet of a flow does not count).
  std::uint64_t cross_np_migrations = 0;

  /// Dispatcher-specific counters (Dispatcher::extra_stats).
  std::map<std::string, double> extra;

  /// Per-shard reports, index = shard id.
  std::vector<SimReport> shards;

  double drop_ratio() const {
    return offered ? static_cast<double>(dropped) /
                         static_cast<double>(offered)
                   : 0.0;
  }
  double cluster_ooo_ratio() const {
    return delivered ? static_cast<double>(cluster_out_of_order) /
                           static_cast<double>(delivered)
                     : 0.0;
  }
  double cross_np_ooo_ratio() const {
    return delivered ? static_cast<double>(cross_np_out_of_order) /
                           static_cast<double>(delivered)
                     : 0.0;
  }
  double throughput_mpps() const {
    const double secs = to_seconds(sim_time);
    return secs > 0 ? static_cast<double>(delivered) / secs / 1e6 : 0.0;
  }

  /// Multi-line human-readable summary.
  std::string summary() const;
};

/// Serializes a ClusterReport (schema laps-cluster-v1) into an open writer.
void write_cluster_report_json(JsonWriter& writer,
                               const ClusterReport& report);

/// Full document as a string. Byte-stable for identical reports — the
/// parallel-rows and shards=1 differential tests compare these strings
/// directly.
std::string cluster_report_to_json(const ClusterReport& report);

/// Writes the JSON document to `path` via the shared atomic tmp+rename
/// path (util::write_file_atomic).
void write_cluster_report_file(const std::string& path,
                               const ClusterReport& report);

}  // namespace laps
