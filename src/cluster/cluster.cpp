#include "cluster/cluster.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/probes.h"

namespace laps {
namespace {

/// Per-shard egress tap: records departures (time, flow, cluster seq) and
/// drops, drained by the coordinator at every sync barrier. The recorded
/// seq is the CLUSTER-global per-flow arrival seq the coordinator stamped
/// on the packet at dispatch (GeneratedPacket::cluster_seq), not the
/// engine's shard-local ingress seq — each engine numbers a flow's packets
/// from 0, so comparing local seqs across shards would charge a migrated
/// flow phantom inversions until the new shard's numbering caught up with
/// the old shard's high-water mark. Departure
/// times are nondecreasing within a shard and, because shards are settled
/// window by window, every batch a barrier drains lies strictly after the
/// previous barrier — so window-local merges compose into one globally
/// time-ordered cluster egress.
///
/// With restore_order the tap observes shard *completions* (the per-NP
/// ReorderBuffer sits downstream of the hook); the cluster-level detector
/// then measures the unrestored merge, which is the honest upper bound on
/// what a cross-NP wire would see.
class EgressTapProbe final : public SimProbe {
 public:
  struct Departure {
    TimeNs time;
    std::uint32_t gflow;
    std::uint32_t cluster_seq;
  };

  void on_departure(TimeNs now, const SimPacket& pkt, CoreId,
                    std::uint32_t) override {
    departures.push_back(Departure{now, pkt.gflow, pkt.cluster_seq});
  }
  void on_drop(TimeNs, const SimPacket& pkt, CoreId) override {
    drops.push_back(pkt.gflow);
  }

  std::vector<Departure> departures;
  std::vector<std::uint32_t> drops;
};

/// One shard NP: its scheduler instance, engine, probes, and the arrival
/// batch the coordinator assembled for the current window. Heap-allocated
/// so addresses stay stable (the engine holds references into the struct).
struct ShardState {
  std::unique_ptr<Scheduler> scheduler;
  ReportProbe report;
  EgressTapProbe tap;
  std::unique_ptr<SimEngine> engine;
  std::vector<GeneratedPacket> batch;
};

void grow_u32_lane(std::vector<std::uint32_t>& lane, std::uint32_t gflow) {
  if (gflow >= lane.size()) {
    lane.resize(std::max<std::size_t>(
        64, std::bit_ceil(static_cast<std::size_t>(gflow) + 1)));
  }
}

}  // namespace

ClusterReport run_cluster(const ClusterConfig& config, ArrivalStream& arrivals,
                          Dispatcher& dispatcher) {
  if (config.num_shards == 0) {
    throw std::invalid_argument("run_cluster: 0 shards");
  }
  if (config.sync_ns <= 0) {
    throw std::invalid_argument("run_cluster: sync_ns must be positive");
  }
  if (!config.make_scheduler) {
    throw std::invalid_argument("run_cluster: make_scheduler is required");
  }
  if (!config.shard_faults.empty() &&
      config.shard_faults.size() != config.num_shards) {
    throw std::invalid_argument(
        "run_cluster: shard_faults must be empty or have one entry per "
        "shard");
  }

  const std::size_t n = config.num_shards;
  std::vector<std::unique_ptr<ShardState>> shards;
  shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<ShardState>();
    shard->scheduler = config.make_scheduler();
    if (!shard->scheduler) {
      throw std::invalid_argument("run_cluster: make_scheduler returned null");
    }
    SimEngineConfig engine_config;
    engine_config.num_cores = config.cores_per_shard;
    engine_config.queue_capacity = config.queue_capacity;
    engine_config.delay = config.delay;
    engine_config.restore_order = config.restore_order;
    if (i < config.shard_faults.size() && config.shard_faults[i]) {
      engine_config.faults = config.shard_faults[i].get();
    }
    ProbeSet probes;
    probes.add(&shard->report);
    probes.add(&shard->tap);
    shard->engine = std::make_unique<SimEngine>(engine_config,
                                                *shard->scheduler, probes);
    shards.push_back(std::move(shard));
  }

  dispatcher.attach(n);

  const std::size_t total_flows = arrivals.total_flows();
  for (const auto& shard : shards) {
    shard->engine->begin_run(config.name, total_flows);
  }

  std::vector<ShardGauge> gauges(n);
  ClusterView view;
  view.shards = {gauges.data(), gauges.size()};

  // Cluster-level accounting lanes, indexed by global flow id.
  std::vector<std::uint32_t> last_shard_plus1;
  std::vector<std::uint32_t> egress_hi;
  std::vector<std::uint32_t> next_global_seq;
  if (total_flows > 0) {
    last_shard_plus1.resize(total_flows);
    egress_hi.resize(total_flows);
    next_global_seq.resize(total_flows);
  }

  std::uint64_t offered = 0;
  std::uint64_t cross_migrations = 0;
  std::uint64_t cluster_ooo = 0;
  std::vector<std::uint32_t> completed;  // per barrier: flows that left
  std::vector<std::size_t> cursor(n);    // per-shard merge positions

  // Feed each shard its window batch and settle it to the barrier. Shards
  // share no mutable state, so settling them one after another is exact.
  auto run_window = [&](TimeNs window_end) {
    for (std::size_t i = 0; i < n; ++i) {
      ShardState& shard = *shards[i];
      const std::size_t count = shard.batch.size();
      if (count > 0) shard.engine->prefetch_flow(shard.batch[0].gflow);
      for (std::size_t p = 0; p < count; ++p) {
        if (p + 1 < count) {
          shard.engine->prefetch_flow(shard.batch[p + 1].gflow);
        }
        shard.engine->feed(shard.batch[p]);
      }
      shard.batch.clear();
      shard.engine->advance_to(window_end);
    }
  };

  // Merge the window's departures into global egress order (time, ties by
  // shard id — deterministic), run the cluster-level high-water order
  // detector over the dispatcher-stamped cluster seqs — what a downstream
  // observer of the merged wire would measure — and collect the flows that
  // left the system (departed or dropped) for the dispatcher's in-flight
  // feedback. `completed` is skipped when the dispatcher declares it
  // ignores barrier feedback (wants_completions()).
  const bool feed_completions = dispatcher.wants_completions();
  auto detect = [&](const EgressTapProbe::Departure& d) {
    grow_u32_lane(egress_hi, d.gflow);
    std::uint32_t& hi = egress_hi[d.gflow];
    if (d.cluster_seq + 1 < hi) {
      ++cluster_ooo;
    } else {
      hi = d.cluster_seq + 1;
    }
    if (feed_completions) completed.push_back(d.gflow);
  };
  auto merge_egress = [&] {
    completed.clear();
    if (n == 1) {
      // Single shard: the merge is the shard's own departure list. Walk it
      // linearly, fetching the flow's high-water entry a few departures
      // ahead — with realistic flow populations every lookup is a cold
      // cache line, and the lookahead is most of this loop's speed.
      const auto& departures = shards[0]->tap.departures;
      const std::size_t count = departures.size();
      constexpr std::size_t kLookahead = 8;
      for (std::size_t i = 0; i < count; ++i) {
        if (i + kLookahead < count) {
          const std::uint32_t f = departures[i + kLookahead].gflow;
          if (f < egress_hi.size()) __builtin_prefetch(&egress_hi[f], 1);
        }
        detect(departures[i]);
      }
    } else {
      std::fill(cursor.begin(), cursor.end(), std::size_t{0});
      for (;;) {
        std::size_t best = n;
        TimeNs best_time = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const auto& departures = shards[i]->tap.departures;
          if (cursor[i] >= departures.size()) continue;
          const TimeNs t = departures[cursor[i]].time;
          if (best == n || t < best_time) {
            best = i;
            best_time = t;
          }
        }
        if (best == n) break;
        const auto& departures = shards[best]->tap.departures;
        // Hide the next high-water miss of this shard's lane behind the
        // current departure's detector work.
        if (cursor[best] + 1 < departures.size()) {
          const std::uint32_t f = departures[cursor[best] + 1].gflow;
          if (f < egress_hi.size()) __builtin_prefetch(&egress_hi[f], 1);
        }
        detect(departures[cursor[best]++]);
      }
    }
    for (const auto& shard : shards) {
      if (feed_completions) {
        completed.insert(completed.end(), shard->tap.drops.begin(),
                         shard->tap.drops.end());
      }
      shard->tap.departures.clear();
      shard->tap.drops.clear();
    }
  };

  auto sync_barrier = [&](TimeNs window_end) {
    merge_egress();
    for (std::size_t i = 0; i < n; ++i) {
      const SimReport& r = shards[i]->report.report();
      gauges[i].delivered = r.delivered;
      gauges[i].dropped = r.dropped;
    }
    view.now = window_end;
    dispatcher.on_sync(view, {completed.data(), completed.size()});
  };

  auto arrival = arrivals.next();
  TimeNs window_end = config.sync_ns;
  while (arrival) {
    // Dispatch every arrival in ((k-1)*sync, k*sync] from gauges frozen at
    // the last barrier plus the live dispatched counts.
    while (arrival && arrival->time <= window_end) {
      view.now = arrival->time;
      const ShardId target = dispatcher.pick(*arrival, view);
      if (target >= n) {
        throw std::logic_error("dispatcher returned invalid shard id");
      }
      ++offered;
      ++gauges[target].dispatched;
      grow_u32_lane(last_shard_plus1, arrival->gflow);
      std::uint32_t& prev = last_shard_plus1[arrival->gflow];
      if (prev != 0 && prev != target + 1) ++cross_migrations;
      prev = target + 1;
      grow_u32_lane(next_global_seq, arrival->gflow);
      shards[target]->batch.push_back(*arrival);
      // Stamp the cluster-global per-flow seq on the shard-bound copy (NIC
      // RX metadata); the egress tap reads it back so the merged order
      // detector compares one numbering across shards.
      shards[target]->batch.back().cluster_seq =
          next_global_seq[arrival->gflow]++;
      arrival = arrivals.next();
    }
    run_window(window_end);
    sync_barrier(window_end);
    window_end += config.sync_ns;
    // Idle gap: jump to the window containing the next arrival rather
    // than turning empty windows.
    if (arrival && arrival->time > window_end) {
      const TimeNs k = (arrival->time + config.sync_ns - 1) / config.sync_ns;
      window_end = k * config.sync_ns;
    }
  }

  // Drain: no more arrivals; run every shard to completion, then fold the
  // trailing departures into the merged accounting.
  for (const auto& shard : shards) shard->engine->finish_run();
  merge_egress();

  ClusterReport out;
  out.scenario = config.name;
  out.dispatcher = dispatcher.name();
  out.num_shards = n;
  out.offered = offered;
  out.cross_np_migrations = cross_migrations;
  out.cluster_out_of_order = cluster_ooo;
  out.extra = dispatcher.extra_stats();
  out.shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SimReport r = shards[i]->report.take_report();
    out.delivered += r.delivered;
    out.dropped += r.dropped;
    out.intra_np_out_of_order += r.out_of_order;
    out.intra_np_migrations += r.flow_migrations;
    out.sim_time = std::max(out.sim_time, r.sim_time);
    out.shards.push_back(std::move(r));
  }
  // The merged detector sees every inversion each shard's own detector saw:
  // the local-to-global seq relabeling is strictly increasing per (shard,
  // flow) — both numberings follow the same dispatch order — so it
  // preserves each shard's below-running-max structure, a shard's
  // departures keep their relative order in the merge, and interleaving
  // other shards can only raise the high-water mark. So this subtraction
  // cannot go negative; the guard documents the claim.
  out.cross_np_out_of_order =
      out.cluster_out_of_order >= out.intra_np_out_of_order
          ? out.cluster_out_of_order - out.intra_np_out_of_order
          : 0;
  return out;
}

}  // namespace laps
