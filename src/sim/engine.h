#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/event_heap.h"
#include "sim/packet.h"
#include "sim/probe.h"
#include "sim/reorder_buffer.h"
#include "sim/ring_queue.h"
#include "sim/scheduler.h"
#include "traffic/generator.h"
#include "traffic/workload.h"

namespace laps {

struct FaultPlan;  // sim/fault.h

/// Static configuration of the simulation kernel (paper Sec. II and IV-C:
/// Frame Manager feeding per-core input queues of 32 descriptors).
struct SimEngineConfig {
  std::size_t num_cores = 16;
  std::uint32_t queue_capacity = 32;
  DelayModel delay;
  /// If true, completions pass through an egress ReorderBuffer that
  /// restores per-flow order (the Shi et al. [35] alternative). The wire
  /// output is then perfectly ordered (`out_of_order` counts released
  /// packets, i.e. 0) and the buffer's cost shows up in the report's
  /// `rob_*` extra fields.
  bool restore_order = false;
  /// When positive, probes receive on_epoch at every multiple of this
  /// simulated-time interval (queue-depth sampling for the telemetry
  /// series). Epochs never alter the simulated physics.
  TimeNs epoch_ns = 0;
  /// Optional fault schedule (must outlive the engine; events sorted —
  /// validated against num_cores at construction). Core events execute as
  /// first-class simulation events; traffic events are markers here (the
  /// arrival stream realizes them, see FaultTrafficStream). Null or empty:
  /// the fault machinery costs one predicted branch per event
  /// (pay-for-what-you-use, gated by perf_kernel's bare-engine row).
  const FaultPlan* faults = nullptr;
  /// Unread; perfbench sets it. Goes with the benchmark's next change.
  EventQueueKind event_queue = EventQueueKind::kHeap;
};

/// Per-flow simulator state packed into a single block: four 4-byte lanes
/// (ingress seq, egress high-water, last assigned core, last processing
/// core) in one contiguous allocation, indexed by the dense global flow id.
/// The lanes of one flow are *interleaved* — a 16-byte record per flow —
/// because the kernel touches three of the four on every packet: with flow
/// populations in the hundreds of thousands the state does not fit in L2,
/// and one cache line per flow beats the three or four that per-lane arrays
/// (the seed Npu's layout) cost.
class FlowBlock {
 public:
  /// One flow's record. alignas(16) keeps records from straddling cache
  /// lines (4 records per 64-byte line, exactly), so the packet lifecycle
  /// pays at most one miss for all four lanes. Core lanes hold core id +
  /// 1, with 0 meaning "no previous core": the empty record is all-zeros,
  /// so growing the block is a zero-fill plus one memcpy — no scalar
  /// initialization pass over multi-megabyte flow populations.
  struct alignas(16) Record {
    std::uint32_t ingress_seq = 0;
    std::uint32_t egress_hi = 0;
    std::uint32_t last_assigned_plus1 = 0;
    std::uint32_t last_proc_plus1 = 0;
  };

  std::size_t size() const { return size_; }

  /// Grows (geometrically) so `gflow` is a valid index. New entries start
  /// as seq 0 / high-water 0 / no previous core.
  void ensure(std::uint32_t gflow) {
    if (gflow < size_) return;
    grow(static_cast<std::size_t>(gflow) + 1);
  }

  Record& at(std::uint32_t f) { return block_[f]; }
  const Record& at(std::uint32_t f) const { return block_[f]; }

  std::uint32_t& ingress_seq(std::uint32_t f) { return block_[f].ingress_seq; }
  std::uint32_t& egress_hi(std::uint32_t f) { return block_[f].egress_hi; }
  std::uint32_t& last_assigned_plus1(std::uint32_t f) {
    return block_[f].last_assigned_plus1;
  }
  std::uint32_t& last_proc_plus1(std::uint32_t f) {
    return block_[f].last_proc_plus1;
  }

 private:
  void grow(std::size_t need);

  std::vector<Record> block_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

/// The simulation kernel: a flat, allocation-free discrete-event loop over
/// ring-buffer core queues, with all measurement externalized to SimProbe
/// hooks (see probe.h).
///
/// Physics are identical to the seed Npu (same event ordering, same Eq. 3
/// delay charging, same drop/reorder accounting) — the golden determinism
/// suite asserts byte-identical reports. What changed is structure:
///
///  - per-core input queues are fixed-capacity RingQueues (no deque chunk
///    allocation on the fast path);
///  - per-flow state lives in one FlowBlock struct-of-arrays allocation;
///  - simulator-private per-core state (in-service packet, busy time,
///    I-cache service) is hard-separated from the scheduler-observable
///    CoreView, so schedulers structurally cannot read it;
///  - nothing is measured inline: probes observe arrivals, dispatches,
///    drops, service spans, departures, epochs, and scheduler-internal
///    events. With no probes attached the kernel does no reporting work at
///    all (the perf_kernel baseline).
///
/// Per arriving packet: the scheduler under test picks a core; if that
/// core's input queue is full the packet is dropped (Sec. IV-C2), otherwise
/// it is enqueued. Cores serve their queue FIFO, one packet at a time, with
/// the per-packet delay of Eq. 3. After the generator horizon, queued
/// packets are drained to completion, so offered == delivered + dropped
/// holds exactly for every run. One engine instance runs once.
class SimEngine final : public NpuView, public SchedEventSink {
 public:
  SimEngine(SimEngineConfig config, Scheduler& scheduler,
            ProbeSet probes = {});

  /// Runs the full simulation. `scenario` is a label passed to probes.
  /// Results are whatever the attached probes collected (e.g.
  /// ReportProbe::report()).
  void run(ArrivalStream& arrivals, const std::string& scenario);

  // --- Stepping interface -------------------------------------------------
  // run() is exactly begin_run + feed(one call per arrival, nondecreasing
  // times) + finish_run; the golden determinism suites prove the
  // decomposition bit-identical. External drivers (the cluster fabric in
  // src/cluster) use it to interleave several engines on one merged clock:
  // feed a batch of arrivals, then advance_to(t) to settle every completion
  // (and due fault) up to the sync barrier. One engine instance still runs
  // exactly once.

  /// Opens a run: probes' on_run_begin, scheduler attach, flow-block
  /// pre-size. `total_flows` is the stream's population hint (0 = unknown).
  void begin_run(const std::string& scenario, std::size_t total_flows);
  /// Processes one arrival, first settling every completion and fault due
  /// strictly before (or tied with) it — identical ordering to run()'s
  /// loop. Arrival times must be nondecreasing across calls.
  void feed(const GeneratedPacket& arrival);
  /// Settles all completions with time <= t. Fault events stay lazy
  /// (applied only when a completion at or after them runs), exactly as
  /// run() would with a future arrival pending: a fault due in the settled
  /// window but after the last completion is applied by the next
  /// feed()/finish_run(), preserving the trailing-fault frozen-clock rule
  /// when the stream ends instead.
  void advance_to(TimeNs t);
  /// Drains remaining completions, applies trailing faults with the clock
  /// frozen, and emits the RunEnd epilogue to probes.
  void finish_run();
  /// Starts fetching `gflow`'s flow record — the same hide-the-miss hint
  /// run()'s own loop issues one arrival ahead; batch feeders (the cluster
  /// shard tasks) call it so the stepping path keeps run()'s memory-level
  /// parallelism. Purely advisory: no effect on results.
  void prefetch_flow(std::uint32_t gflow) const {
    if (gflow < flows_.size()) __builtin_prefetch(&flows_.at(gflow), 1);
  }

  // NpuView (what the scheduler is allowed to observe):
  TimeNs now() const override { return now_; }
  std::span<const CoreView> cores() const override {
    return {views_.data(), views_.size()};
  }
  std::uint32_t queue_capacity() const override {
    return config_.queue_capacity;
  }

  // SchedEventSink: timestamps scheduler-internal events with the
  // simulated clock and fans them out to the probes.
  void sched_event(const SchedEvent& event) override;

 private:
  /// Simulator-private per-core state. Schedulers never see this struct;
  /// they get the CoreView span only.
  struct CoreState {
    explicit CoreState(std::uint32_t queue_capacity)
        : queue(queue_capacity) {}
    RingQueue<SimPacket> queue;
    SimPacket in_service;
    TimeNs busy_total = 0;
    TimeNs service_end = 0;          ///< when the in-service packet completes
    std::int32_t last_service = -1;  ///< I-cache contents (CC_penalty)
    /// Bumped by a core_down flush so the flushed packet's pending
    /// completion is recognized as stale when it pops (events in the heap
    /// cannot be cancelled).
    std::uint32_t gen = 0;
  };

  struct Completion {
    TimeNs time;
    CoreId core;
    std::uint32_t gen = 0;
    /// A stall-expiry wake-up, not a packet completion: re-attempt
    /// start_service on `core` (gen is ignored).
    bool resume = false;
  };

  void handle_arrival(SimPacket pkt);
  void handle_completion(CoreId core);
  /// Applies every not-yet-applied fault event with time <= limit,
  /// advancing the clock to each. Callers gate on faults_on_.
  void apply_due_faults(TimeNs limit);
  /// Pops and executes one completion (stall resume, stale-generation
  /// skip, or packet completion) — the body of run()'s completion branch.
  void pop_completion();
  void start_service(CoreId core);
  void emit_epochs_until(TimeNs t);
  /// Fans out on_engine_sample with current engine-internal state. Called
  /// per epoch boundary and once before on_run_end; probes-attached only.
  void emit_engine_sample(TimeNs t);
  /// Applies one fault event. `advance` moves the clock to event.time
  /// (epochs included); trailing events after drain apply frozen.
  void apply_fault(const FaultEvent& event, bool advance);
  /// Drops the queue and in-service packet of a failing core; returns the
  /// number of packets flushed.
  std::uint32_t flush_core(CoreId core);
  /// Restarts service after a stall expiry if the core can run.
  void maybe_resume(CoreId core);

  template <typename Fn>
  void for_probes(Fn&& fn) {
    for (SimProbe* probe : probes_.probes()) fn(*probe);
  }

  SimEngineConfig config_;
  Scheduler& scheduler_;
  ProbeSet probes_;
  TimeNs now_ = 0;
  TimeNs next_epoch_ = 0;
  std::vector<CoreState> cores_;
  std::vector<CoreView> views_;
  /// Fault-free it holds at most one completion per busy core; under faults
  /// also flushed cores' stale completions and one stall resume per core.
  EventHeap<Completion> completions_;
  std::uint64_t completions_handled_ = 0;  ///< for EngineSample telemetry
  FlowBlock flows_;
  ReorderBuffer rob_;  // used only when config_.restore_order

  // Fault state, sized only when config_.faults is a non-empty plan.
  bool faults_on_ = false;
  bool epochs_on_ = false;
  std::vector<std::uint8_t> down_;        ///< core currently failed
  std::vector<double> slow_;              ///< service-time multiplier (1.0)
  std::vector<TimeNs> stall_until_;       ///< no new service before this
  std::vector<std::uint8_t> resume_pending_;  ///< stall wake-up in heap
  std::uint64_t fault_events_applied_ = 0;
  std::uint64_t fault_flush_drops_ = 0;
  std::uint64_t fault_dead_route_drops_ = 0;

  // Stepping-run state (begin_run .. finish_run).
  std::size_t fault_next_ = 0;  ///< next unapplied config_.faults event
  TimeNs horizon_ = 0;          ///< last arrival time (RunEnd.horizon)
};

}  // namespace laps
