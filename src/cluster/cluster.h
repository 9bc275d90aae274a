#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/report.h"
#include "sim/event_heap.h"
#include "sim/scheduler.h"
#include "traffic/generator.h"
#include "traffic/workload.h"
#include "util/time.h"

namespace laps {

struct FaultPlan;  // sim/fault.h

/// Configuration of a sharded multi-NP cluster run: N independent SimEngine
/// shards (each with its own scheduler instance, queues, flow state, and
/// optional fault plan) behind one front-end Dispatcher, driven from one
/// merged clock in fixed sync windows.
struct ClusterConfig {
  std::string name = "cluster";  ///< scenario label
  std::size_t num_shards = 2;
  std::size_t cores_per_shard = 16;
  std::uint32_t queue_capacity = 32;
  DelayModel delay;
  bool restore_order = false;  ///< per-shard egress ReorderBuffer
  /// Unread; perfbench sets it. Goes with the benchmark's next change.
  EventQueueKind event_queue = EventQueueKind::kHeap;
  /// Unread; perfbench sets it. Goes with the benchmark's next change.
  std::size_t threads = 1;

  /// Sync-window width: the coordinator dispatches all arrivals of one
  /// window, runs every shard to the window end, then merges egress and
  /// feeds the dispatcher its delayed feedback. Smaller = fresher NIC
  /// feedback, more barriers; the window also bounds how stale a
  /// dispatcher's delivered/dropped gauges can be.
  TimeNs sync_ns = 100 * kMicrosecond;

  /// Per-shard fault plans: empty, or exactly num_shards entries (null =
  /// fault-free shard). Plans must outlive the run. Traffic fault events
  /// (burst/crowd) are realized by the *arrival stream*, as in
  /// run_scenario — wrap the stream in FaultTrafficStream yourself.
  std::vector<std::shared_ptr<const FaultPlan>> shard_faults;

  /// Factory for each shard's scheduler instance (fresh per shard — shards
  /// must not share scheduler state). Required.
  std::function<std::unique_ptr<Scheduler>()> make_scheduler;
};

/// Runs `arrivals` through the cluster: `dispatcher` assigns every packet
/// to a shard, shards simulate independently between sync barriers, and
/// the coordinator merges their egress into the cluster-level accounting
/// (intra- vs cross-NP out-of-order, cross-NP migrations).
///
/// Shards settle in lockstep on the calling thread. Deterministic: same
/// config + same stream + same dispatcher state => byte-identical
/// ClusterReport JSON. Runs share nothing mutable, so independent runs may
/// go on separate threads (fig_cluster_dispatch runs its rows that way).
ClusterReport run_cluster(const ClusterConfig& config, ArrivalStream& arrivals,
                          Dispatcher& dispatcher);

}  // namespace laps
