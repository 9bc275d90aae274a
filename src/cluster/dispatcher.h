#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "traffic/generator.h"
#include "util/time.h"

namespace laps {

using ShardId = std::uint32_t;

/// What the front-end dispatcher can observe about one shard NP.
///
/// `dispatched` is live — the coordinator bumps it at every pick, so the
/// dispatcher always knows exactly what it has sent. `delivered`/`dropped`
/// are frozen at the last sync barrier: NIC feedback from a backend is
/// delayed, not instantaneous, so mid-window shard state is never read.
struct ShardGauge {
  std::uint64_t delivered = 0;   ///< cumulative departures as of barrier
  std::uint64_t dropped = 0;     ///< cumulative drops as of barrier
  std::uint64_t dispatched = 0;  ///< cumulative packets sent (live)

  /// Packets sent to the shard and not yet known to have left it — the
  /// dispatcher's load estimate. Exact at barriers; mid-window it
  /// overestimates by the packets the shard completed since the barrier.
  std::uint64_t outstanding() const {
    return dispatched - delivered - dropped;
  }
};

/// The dispatcher-visible cluster state at one decision point.
struct ClusterView {
  TimeNs now = 0;
  std::span<const ShardGauge> shards;
};

/// Front-end packet dispatcher: the NIC/load-balancer layer that assigns
/// each arriving packet to one shard NP before the shard's own scheduler
/// assigns it to a core.
///
/// Determinism contract: pick() and on_sync() must be pure functions of
/// (attach arguments, the sequence of prior pick/on_sync calls and their
/// arguments) — no wall clocks, no unseeded randomness, ties broken by
/// lowest shard id. That makes a run_cluster call a pure function of its
/// inputs, so concurrent runs, each with its own dispatcher, report
/// byte-identically to the same runs one after another (see
/// cluster/cluster.h).
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  /// Called once before any pick(); sizes state for `num_shards` shards.
  virtual void attach(std::size_t num_shards) = 0;

  /// Picks the target shard for `pkt` (must be < num_shards).
  virtual ShardId pick(const GeneratedPacket& pkt,
                       const ClusterView& view) = 0;

  /// Sync-barrier feedback. `completed` carries the global flow id of
  /// every packet that left the cluster (departed or dropped) since the
  /// previous barrier, in the deterministic merged egress order —
  /// in-flight-aware dispatchers decrement their per-flow estimates here.
  virtual void on_sync(const ClusterView& view,
                       std::span<const std::uint32_t> completed) {
    (void)view;
    (void)completed;
  }

  /// Whether this dispatcher reads on_sync's `completed` span. Defaults to
  /// true (safe for any subclass); dispatchers that ignore it return false
  /// so the fabric can skip building the per-barrier list — one push per
  /// packet on the merge path.
  virtual bool wants_completions() const { return true; }

  /// Display name for tables and the ClusterReport.
  virtual std::string name() const = 0;

  /// Dispatcher-specific counters merged into ClusterReport::extra.
  virtual std::map<std::string, double> extra_stats() const { return {}; }
};

}  // namespace laps
