#include "reference/npu.h"

#include <cstdio>
#include <stdexcept>

#include "sim/fault.h"

namespace laps {

Npu::Npu(NpuConfig config, Scheduler& scheduler)
    : config_(config), scheduler_(scheduler) {
  if (config_.num_cores == 0) throw std::invalid_argument("Npu: 0 cores");
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument("Npu: 0 queue capacity");
  }
  cores_.resize(config_.num_cores);
  views_.resize(config_.num_cores);
  for (CoreView& v : views_) v.idle_since = 0;  // all idle at t = 0
}

void Npu::ensure_flow(std::uint32_t gflow) {
  if (gflow >= ingress_seq_.size()) {
    const std::size_t n = static_cast<std::size_t>(gflow) + 1;
    ingress_seq_.resize(n, 0);
    egress_hi_.resize(n, 0);
    last_assigned_core_.resize(n, -1);
    last_proc_core_.resize(n, -1);
  }
}

SimReport Npu::run(ArrivalStream& arrivals, const std::string& scenario) {
  SimReport report;
  report.scheduler = scheduler_.name();
  report.scenario = scenario;
  scheduler_.attach(config_.num_cores);

  // Pre-size per-flow arrays when the generator knows its population.
  ensure_flow(arrivals.total_flows() > 0
                  ? static_cast<std::uint32_t>(arrivals.total_flows() - 1)
                  : 0);

  auto arrival = arrivals.next();
  TimeNs horizon = 0;

  while (arrival || !completions_.empty()) {
    // Completions at the same tick run before arrivals: the freed queue
    // slot is visible to a simultaneously arriving packet, matching
    // hardware where dequeue happens early in the cycle.
    if (arrival &&
        (completions_.empty() || arrival->time < completions_.top_time())) {
      now_ = arrival->time;
      horizon = now_;
      SimPacket pkt;
      pkt.arrival = arrival->time;
      pkt.tuple = arrival->record.tuple;
      pkt.gflow = arrival->gflow;
      pkt.size_bytes = arrival->record.size_bytes;
      pkt.service = arrival->service;
      handle_arrival(pkt, report);
      arrival = arrivals.next();
    } else {
      const Completion c = completions_.pop();
      now_ = c.time;
      handle_completion(c.core, report);
    }
  }

  report.sim_time = horizon;
  TimeNs busy_total = 0;
  for (const Core& core : cores_) busy_total += core.busy_total;
  const TimeNs end = now_ > horizon ? now_ : horizon;
  report.mean_core_utilization =
      end > 0 ? static_cast<double>(busy_total) /
                    (static_cast<double>(end) *
                     static_cast<double>(config_.num_cores))
              : 0.0;
  report.extra = scheduler_.extra_stats();
  if (config_.restore_order) {
    report.extra["rob_max_occupancy"] =
        static_cast<double>(rob_.max_occupancy());
    report.extra["rob_buffered_packets"] =
        static_cast<double>(rob_.buffered_total());
    report.extra["rob_mean_held_us"] =
        rob_.buffered_total() > 0
            ? to_us(rob_.total_held_ns()) /
                  static_cast<double>(rob_.buffered_total())
            : 0.0;
    report.extra["rob_released_packets"] =
        static_cast<double>(rob_.released_total());
    report.extra["rob_stranded_packets"] =
        static_cast<double>(rob_.occupancy());
  }
  return report;
}

void Npu::handle_arrival(SimPacket pkt, SimReport& report) {
  ensure_flow(pkt.gflow);
  pkt.seq = ingress_seq_[pkt.gflow]++;

  ++report.offered;
  ++report.offered_by_service[static_cast<std::size_t>(pkt.service)];

  const CoreId target = scheduler_.schedule(pkt, *this);
  if (target >= cores_.size()) {
    throw std::logic_error("scheduler returned invalid core id");
  }

  Core& core = cores_[target];
  CoreView& view = views_[target];
  if (view.queue_len >= config_.queue_capacity) {
    ++report.dropped;
    ++report.dropped_by_service[static_cast<std::size_t>(pkt.service)];
    if (config_.restore_order) {
      // The egress buffer must not wait for a packet that will never
      // complete; the drop may release held successors.
      rob_.on_drop(pkt.gflow, pkt.seq, now_);
    }
    return;
  }

  // Flow-migration accounting at dispatch (Fig. 9c counts migrations, i.e.
  // consecutive packets of a flow sent to different cores).
  const std::int32_t prev = last_assigned_core_[pkt.gflow];
  if (prev >= 0 && static_cast<CoreId>(prev) != target) {
    ++report.flow_migrations;
  }
  last_assigned_core_[pkt.gflow] = static_cast<std::int32_t>(target);

  core.queue.push_back(pkt);
  ++view.queue_len;
  view.idle_since = -1;
  if (!view.busy) start_service(target, report);
}

void Npu::start_service(CoreId core_id, SimReport& report) {
  Core& core = cores_[core_id];
  CoreView& view = views_[core_id];
  if (core.queue.empty()) throw std::logic_error("start_service: empty queue");

  core.in_service = core.queue.front();
  core.queue.pop_front();
  --view.queue_len;

  const SimPacket& pkt = core.in_service;
  const bool migrated =
      last_proc_core_[pkt.gflow] >= 0 &&
      static_cast<CoreId>(last_proc_core_[pkt.gflow]) != core_id;
  const bool cold =
      core.last_service >= 0 &&
      core.last_service != static_cast<int>(pkt.service);
  if (migrated) ++report.fm_penalties;
  if (cold) ++report.cold_cache_events;
  last_proc_core_[pkt.gflow] = static_cast<std::int32_t>(core_id);
  core.last_service = static_cast<int>(pkt.service);
  view.busy = true;

  const TimeNs delay =
      config_.delay.packet_delay(pkt.service, pkt.size_bytes, migrated, cold);
  core.busy_total += delay;
  completions_.push(Completion{now_ + delay, core_id});
}

void Npu::handle_completion(CoreId core_id, SimReport& report) {
  Core& core = cores_[core_id];
  CoreView& view = views_[core_id];
  const SimPacket& pkt = core.in_service;

  ++report.delivered;
  report.latency_ns.record(now_ - pkt.arrival);

  if (config_.restore_order) {
    // The wire sees the ReorderBuffer's output, which is ordered by
    // construction; still run the detector over released packets so a
    // buffer bug would surface as nonzero out_of_order.
    for (const ReorderBuffer::Released& rel :
         rob_.on_complete(pkt.gflow, pkt.seq, now_)) {
      std::uint32_t& hi = egress_hi_[rel.gflow];
      if (rel.seq + 1 < hi) {
        ++report.out_of_order;
      } else {
        hi = rel.seq + 1;
      }
    }
  } else {
    // Out-of-order detection: a departure below the per-flow high-water
    // mark means a later-arriving packet of the same flow already left.
    std::uint32_t& hi = egress_hi_[pkt.gflow];
    if (pkt.seq + 1 < hi) {
      ++report.out_of_order;
    } else {
      hi = pkt.seq + 1;
    }
  }

  view.busy = false;
  if (!core.queue.empty()) {
    start_service(core_id, report);
  } else {
    view.idle_since = now_;
  }
}

SimReport run_scenario_reference(const ScenarioConfig& config,
                                 Scheduler& scheduler) {
  if (config.faults != nullptr && !config.faults->empty()) {
    throw std::invalid_argument(
        "run_scenario_reference: fault plans are not supported by the "
        "reference Npu kernel");
  }
  if (config.services.empty()) {
    throw std::invalid_argument("run_scenario_reference: no services");
  }
  for (const ServiceTraffic& s : config.services) {
    if (!s.trace) {
      throw std::invalid_argument("run_scenario_reference: null trace");
    }
    s.trace->reset();
  }
  PacketGenerator generator(config.services, config.seed, config.seconds);
  NpuConfig npu_config;
  npu_config.num_cores = config.num_cores;
  npu_config.queue_capacity = config.queue_capacity;
  npu_config.delay = config.delay;
  npu_config.restore_order = config.restore_order;
  Npu npu(npu_config, scheduler);
  return npu.run(generator, config.name);
}

}  // namespace laps
