#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "sim/event_heap.h"
#include "sim/packet.h"
#include "sim/reorder_buffer.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/scheduler.h"
#include "traffic/generator.h"
#include "traffic/workload.h"

namespace laps {

/// Static configuration of the simulated network processor (paper Sec. II
/// and IV-C: Frame Manager feeding per-core input queues of 32 descriptors).
struct NpuConfig {
  std::size_t num_cores = 16;
  std::uint32_t queue_capacity = 32;
  DelayModel delay;
  /// If true, completions pass through an egress ReorderBuffer that
  /// restores per-flow order (the Shi et al. [35] alternative). The wire
  /// output is then perfectly ordered (`out_of_order` counts released
  /// packets, i.e. 0) and the buffer's cost shows up in the report's
  /// `rob_*` extra fields.
  bool restore_order = false;
};

/// Discrete-event model of the NPU fast path (paper Fig. 6).
///
/// This is the seed (pre-SimEngine) kernel, kept verbatim beside the tests
/// as the small, obviously-correct reference for the engine: the golden
/// determinism suite asserts that the SimEngine + ReportProbe pipeline
/// reproduces this class's SimReport byte-for-byte. It is compiled only
/// into the tests that use it; programs run SimEngine (sim/engine.h) via
/// run_scenario(). Do not grow this class.
///
/// Per arriving packet: the scheduler under test picks a core; if that
/// core's input queue is full the packet is dropped (Sec. IV-C2), otherwise
/// it is enqueued. Cores serve their queue FIFO, one packet at a time, with
/// the per-packet delay of Eq. 3: T_proc(service, size) plus FM_penalty when
/// the flow's previous packet ran on a different core, plus CC_penalty when
/// the previous packet on this core belonged to a different service.
/// Departures feed the out-of-order detector (a departure whose per-flow
/// ingress sequence number is below an already-departed one is counted OOO).
///
/// After the generator horizon, queued packets are drained to completion, so
/// `offered == delivered + dropped` holds exactly for every run.
class Npu final : public NpuView {
 public:
  Npu(NpuConfig config, Scheduler& scheduler);

  /// Runs the full simulation and returns the report. `scenario` is a label
  /// for the report only.
  SimReport run(ArrivalStream& arrivals, const std::string& scenario);

  // NpuView (what the scheduler is allowed to observe):
  TimeNs now() const override { return now_; }
  std::span<const CoreView> cores() const override {
    return {views_.data(), views_.size()};
  }
  std::uint32_t queue_capacity() const override {
    return config_.queue_capacity;
  }

 private:
  struct Core {
    std::deque<SimPacket> queue;
    SimPacket in_service;
    TimeNs busy_total = 0;
    /// Service of the most recently started packet (I-cache contents, for
    /// CC_penalty), or -1. Simulator-private: schedulers only ever see the
    /// CoreView span, which deliberately omits it.
    int last_service = -1;
  };

  struct Completion {
    TimeNs time;
    CoreId core;
  };

  void handle_arrival(SimPacket pkt, SimReport& report);
  void handle_completion(CoreId core, SimReport& report);
  void start_service(CoreId core, SimReport& report);
  void ensure_flow(std::uint32_t gflow);

  NpuConfig config_;
  Scheduler& scheduler_;
  TimeNs now_ = 0;
  std::vector<Core> cores_;
  std::vector<CoreView> views_;
  EventHeap<Completion> completions_;
  ReorderBuffer rob_;  // used only when config_.restore_order

  // Per-flow state, indexed by gflow (grown on demand).
  std::vector<std::uint32_t> ingress_seq_;
  std::vector<std::uint32_t> egress_hi_;        // max departed seq + 1
  std::vector<std::int32_t> last_assigned_core_;
  std::vector<std::int32_t> last_proc_core_;
};

/// Runs `config` through the seed kernel instead of the SimEngine: the
/// oracle side of the golden suite, which asserts run_scenario and
/// run_scenario_reference produce byte-identical report JSON. Throws
/// std::invalid_argument on a fault plan, which the seed kernel predates.
SimReport run_scenario_reference(const ScenarioConfig& config,
                                 Scheduler& scheduler);

}  // namespace laps
