#include "sim/engine.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

#include "sim/fault.h"

namespace laps {

void FlowBlock::grow(std::size_t need) {
  static_assert(alignof(Record) <= alignof(std::max_align_t),
                "calloc must align a Record");
  if (need > cap_) {
    const std::size_t new_cap = std::max<std::size_t>(
        64, std::bit_ceil(need));
    // The all-zeros record is the default (core lanes store id + 1), so
    // calloc's zero pages are the entire initialization.
    std::unique_ptr<Record[], Free> next(
        static_cast<Record*>(std::calloc(new_cap, sizeof(Record))));
    if (next == nullptr) throw std::bad_alloc();
    if (size_ > 0) {
      std::memcpy(next.get(), block_.get(), size_ * sizeof(Record));
    }
    block_ = std::move(next);
    cap_ = new_cap;
  }
  size_ = need;
}

SimEngine::SimEngine(SimEngineConfig config, Scheduler& scheduler,
                     ProbeSet probes)
    : config_(config), scheduler_(scheduler), probes_(probes) {
  if (config_.num_cores == 0) {
    throw std::invalid_argument("SimEngine: 0 cores");
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument("SimEngine: 0 queue capacity");
  }
  cores_.reserve(config_.num_cores);
  for (std::size_t c = 0; c < config_.num_cores; ++c) {
    cores_.emplace_back(config_.queue_capacity);
  }
  views_.resize(config_.num_cores);
  for (CoreView& v : views_) v.idle_since = 0;  // all idle at t = 0

  if (config_.faults != nullptr && !config_.faults->empty()) {
    config_.faults->validate(config_.num_cores);
    faults_on_ = true;
    down_.assign(config_.num_cores, 0);
    slow_.assign(config_.num_cores, 1.0);
    stall_until_.assign(config_.num_cores, 0);
    resume_pending_.assign(config_.num_cores, 0);
  }
}

void SimEngine::sched_event(const SchedEvent& event) {
  for_probes([&](SimProbe& p) { p.on_sched_event(now_, event); });
}

void SimEngine::emit_epochs_until(TimeNs t) {
  // Emit one epoch per crossed boundary, carrying the queue state as of
  // the boundary instant (no event fires inside (now_, boundary], so the
  // current views ARE the boundary state).
  while (next_epoch_ <= t) {
    const TimeNs boundary = next_epoch_;
    next_epoch_ += config_.epoch_ns;
    for_probes([&](SimProbe& p) {
      p.on_epoch(boundary, {views_.data(), views_.size()});
    });
    emit_engine_sample(boundary);
  }
}

void SimEngine::emit_engine_sample(TimeNs t) {
  EngineSample sample;
  sample.completions = completions_handled_;
  sample.flows = flows_.size();
  sample.rob_occupancy =
      config_.restore_order ? static_cast<std::uint64_t>(rob_.occupancy()) : 0;
  std::uint32_t live = static_cast<std::uint32_t>(config_.num_cores);
  if (faults_on_) {
    live = 0;
    for (const std::uint8_t d : down_) live += (d == 0);
  }
  sample.live_cores = live;
  for_probes([&](SimProbe& p) { p.on_engine_sample(t, sample); });
}

void SimEngine::run(ArrivalStream& arrivals, const std::string& scenario) {
  begin_run(scenario, arrivals.total_flows());

  // Start fetching the next arrival's flow record while earlier events are
  // still being processed.
  auto arrival = arrivals.next();
  if (arrival) prefetch_flow(arrival->gflow);
  while (arrival) {
    feed(*arrival);
    arrival = arrivals.next();
    if (arrival) prefetch_flow(arrival->gflow);
  }
  finish_run();
}

void SimEngine::begin_run(const std::string& scenario,
                          std::size_t total_flows) {
  RunInfo info;
  info.scenario = scenario;
  info.scheduler = scheduler_.name();
  info.num_cores = config_.num_cores;
  info.queue_capacity = config_.queue_capacity;
  info.restore_order = config_.restore_order;
  for_probes([&](SimProbe& p) { p.on_run_begin(info); });

  scheduler_.set_event_sink(probes_.empty() ? nullptr : this);
  scheduler_.attach(config_.num_cores);

  // Pre-size the flow block when the generator knows its population.
  flows_.ensure(total_flows > 0 ? static_cast<std::uint32_t>(total_flows - 1)
                                : 0);

  epochs_on_ = config_.epoch_ns > 0 && !probes_.empty();
  next_epoch_ = config_.epoch_ns;
  fault_next_ = 0;
  horizon_ = 0;
}

void SimEngine::apply_due_faults(TimeNs limit) {
  const std::vector<FaultEvent>& events = config_.faults->events;
  while (fault_next_ < events.size() && events[fault_next_].time <= limit) {
    apply_fault(events[fault_next_++], /*advance=*/true);
  }
}

void SimEngine::pop_completion() {
  const Completion c = completions_.pop();
  if (faults_on_) {
    if (c.resume) {
      // Stall expiry: advance the clock and retry the core.
      if (epochs_on_) emit_epochs_until(c.time);
      now_ = c.time;
      resume_pending_[c.core] = 0;
      maybe_resume(c.core);
      return;
    }
    if (c.gen != cores_[c.core].gen) return;  // flushed; clock frozen
  }
  if (epochs_on_) emit_epochs_until(c.time);
  now_ = c.time;
  ++completions_handled_;
  handle_completion(c.core);
}

void SimEngine::feed(const GeneratedPacket& arrival) {
  for (;;) {
    // Fault events execute first at their tick: a core_down at t flushes
    // before a completion or arrival at the same t runs, so the scheduler
    // sees the post-fault topology for the simultaneous packet.
    if (faults_on_ && fault_next_ < config_.faults->events.size()) {
      TimeNs next_t = arrival.time;
      if (!completions_.empty()) {
        next_t = std::min(next_t, completions_.top_time());
      }
      apply_due_faults(next_t);
    }
    // Completions at the same tick run before arrivals: the freed queue
    // slot is visible to a simultaneously arriving packet, matching
    // hardware where dequeue happens early in the cycle.
    if (!completions_.empty() && completions_.top_time() <= arrival.time) {
      pop_completion();
      continue;
    }
    break;
  }
  if (epochs_on_) emit_epochs_until(arrival.time);
  now_ = arrival.time;
  horizon_ = now_;
  SimPacket pkt;
  pkt.arrival = arrival.time;
  pkt.tuple = arrival.record.tuple;
  pkt.gflow = arrival.gflow;
  pkt.cluster_seq = arrival.cluster_seq;
  pkt.size_bytes = arrival.record.size_bytes;
  pkt.service = arrival.service;
  handle_arrival(pkt);
}

void SimEngine::feed(std::span<const GeneratedPacket> batch) {
  if (batch.empty()) return;
  prefetch_flow(batch.front().gflow);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (k + 1 < batch.size()) prefetch_flow(batch[k + 1].gflow);
    feed(batch[k]);
  }
}

void SimEngine::advance_to(TimeNs t) {
  while (!completions_.empty() && completions_.top_time() <= t) {
    if (faults_on_) {
      apply_due_faults(completions_.top_time());
      // Defensive: faults never push completions, but re-check the bound.
      if (completions_.empty() || completions_.top_time() > t) break;
    }
    pop_completion();
  }
}

void SimEngine::finish_run() {
  while (!completions_.empty()) {
    if (faults_on_) {
      apply_due_faults(completions_.top_time());
      if (completions_.empty()) break;  // faults flushed the rest
    }
    pop_completion();
  }

  // Events scheduled past the drain point still apply (e.g. a trailing
  // core_up that balances an earlier down), with the clock frozen at the
  // drain time: they can no longer affect any packet.
  if (faults_on_) {
    const std::vector<FaultEvent>& events = config_.faults->events;
    while (fault_next_ < events.size()) {
      apply_fault(events[fault_next_++], /*advance=*/false);
    }
  }

  TimeNs busy_total = 0;
  for (const CoreState& core : cores_) busy_total += core.busy_total;

  RunEnd end;
  end.horizon = horizon_;
  end.end = now_ > horizon_ ? now_ : horizon_;
  end.busy_total = busy_total;
  end.extra = scheduler_.extra_stats();
  if (faults_on_) {
    end.extra["fault_events"] = static_cast<double>(fault_events_applied_);
    end.extra["fault_flush_drops"] =
        static_cast<double>(fault_flush_drops_);
    end.extra["fault_dead_route_drops"] =
        static_cast<double>(fault_dead_route_drops_);
    double down_now = 0;
    for (const std::uint8_t d : down_) down_now += d;
    end.extra["fault_cores_down_at_end"] = down_now;
  }
  if (config_.restore_order) {
    end.extra["rob_max_occupancy"] =
        static_cast<double>(rob_.max_occupancy());
    end.extra["rob_buffered_packets"] =
        static_cast<double>(rob_.buffered_total());
    end.extra["rob_mean_held_us"] =
        rob_.buffered_total() > 0
            ? to_us(rob_.total_held_ns()) /
                  static_cast<double>(rob_.buffered_total())
            : 0.0;
    end.extra["rob_released_packets"] =
        static_cast<double>(rob_.released_total());
    end.extra["rob_stranded_packets"] =
        static_cast<double>(rob_.occupancy());
  }
  if (!probes_.empty()) emit_engine_sample(end.end);
  for_probes([&](SimProbe& p) { p.on_run_end(end); });
  scheduler_.set_event_sink(nullptr);
}

void SimEngine::handle_arrival(SimPacket pkt) {
  flows_.ensure(pkt.gflow);
  pkt.seq = flows_.ingress_seq(pkt.gflow)++;

  for_probes([&](SimProbe& p) { p.on_arrival(now_, pkt); });

  const CoreId target = scheduler_.schedule(pkt, *this);
  if (target >= cores_.size()) {
    throw std::logic_error("scheduler returned invalid core id");
  }

  // A dead core accepts nothing: the packet is lost at the Frame Manager,
  // never enqueued (the no-packet-to-a-dead-core invariant). Schedulers
  // that honor notify_core_down never hit this; the counter exposes the
  // ones that do not.
  if (faults_on_ && down_[target] != 0) {
    ++fault_dead_route_drops_;
    for_probes([&](SimProbe& p) { p.on_drop(now_, pkt, target); });
    if (config_.restore_order) rob_.on_drop(pkt.gflow, pkt.seq, now_);
    return;
  }

  CoreState& core = cores_[target];
  CoreView& view = views_[target];
  if (view.queue_len >= config_.queue_capacity) {
    for_probes([&](SimProbe& p) { p.on_drop(now_, pkt, target); });
    if (config_.restore_order) {
      // The egress buffer must not wait for a packet that will never
      // complete; the drop may release held successors.
      rob_.on_drop(pkt.gflow, pkt.seq, now_);
    }
    return;
  }

  // Flow-migration accounting at dispatch (Fig. 9c counts migrations, i.e.
  // consecutive packets of a flow sent to different cores). 0 = no
  // previous core (the lane stores core id + 1).
  std::uint32_t& prev = flows_.last_assigned_plus1(pkt.gflow);
  const bool migrated = prev != 0 && prev != target + 1;
  prev = target + 1;
  for_probes([&](SimProbe& p) { p.on_dispatch(now_, pkt, target, migrated); });

  core.queue.push_back(pkt);
  ++view.queue_len;
  view.idle_since = -1;
  if (!view.busy) start_service(target);
}

void SimEngine::start_service(CoreId core_id) {
  CoreState& core = cores_[core_id];
  CoreView& view = views_[core_id];
  if (core.queue.empty()) throw std::logic_error("start_service: empty queue");

  // A stalled core keeps its queue (visible backpressure) but starts no
  // service until the stall expires; one wake-up per core at a time.
  if (faults_on_ && now_ < stall_until_[core_id]) {
    if (resume_pending_[core_id] == 0) {
      resume_pending_[core_id] = 1;
      completions_.push(
          Completion{stall_until_[core_id], core_id, 0, /*resume=*/true});
    }
    return;
  }

  core.in_service = core.queue.front();
  core.queue.pop_front();
  --view.queue_len;

  const SimPacket& pkt = core.in_service;
  std::uint32_t& last_proc = flows_.last_proc_plus1(pkt.gflow);
  const bool migrated = last_proc != 0 && last_proc != core_id + 1;
  const bool cold =
      core.last_service >= 0 &&
      core.last_service != static_cast<std::int32_t>(pkt.service);
  last_proc = core_id + 1;
  core.last_service = static_cast<std::int32_t>(pkt.service);
  view.busy = true;

  TimeNs delay =
      config_.delay.packet_delay(pkt.service, pkt.size_bytes, migrated, cold);
  if (faults_on_ && slow_[core_id] != 1.0) {
    delay = std::max<TimeNs>(
        1, static_cast<TimeNs>(static_cast<double>(delay) * slow_[core_id] +
                               0.5));
  }
  core.busy_total += delay;
  core.service_end = now_ + delay;
  completions_.push(Completion{core.service_end, core_id, core.gen, false});
  for_probes([&](SimProbe& p) {
    p.on_service_start(now_, pkt, core_id, delay, migrated, cold);
  });
}

void SimEngine::handle_completion(CoreId core_id) {
  CoreState& core = cores_[core_id];
  CoreView& view = views_[core_id];
  const SimPacket& pkt = core.in_service;

  std::uint32_t new_ooo = 0;
  if (config_.restore_order) {
    // The wire sees the ReorderBuffer's output, which is ordered by
    // construction; still run the detector over released packets so a
    // buffer bug would surface as nonzero out_of_order.
    for (const ReorderBuffer::Released& rel :
         rob_.on_complete(pkt.gflow, pkt.seq, now_)) {
      std::uint32_t& hi = flows_.egress_hi(rel.gflow);
      if (rel.seq + 1 < hi) {
        ++new_ooo;
      } else {
        hi = rel.seq + 1;
      }
    }
  } else {
    // Out-of-order detection: a departure below the per-flow high-water
    // mark means a later-arriving packet of the same flow already left.
    std::uint32_t& hi = flows_.egress_hi(pkt.gflow);
    if (pkt.seq + 1 < hi) {
      ++new_ooo;
    } else {
      hi = pkt.seq + 1;
    }
  }
  for_probes([&](SimProbe& p) {
    p.on_departure(now_, pkt, core_id, new_ooo);
  });

  view.busy = false;
  if (!core.queue.empty()) {
    start_service(core_id);
  } else {
    view.idle_since = now_;
  }
}

std::uint32_t SimEngine::flush_core(CoreId core_id) {
  CoreState& core = cores_[core_id];
  CoreView& view = views_[core_id];
  std::uint32_t flushed = 0;
  if (view.busy) {
    // The pending completion cannot be removed from the heap; bumping the
    // generation makes it stale. The unserved remainder of the packet's
    // service span never ran, so it comes back out of busy_total.
    ++core.gen;
    core.busy_total -= core.service_end - now_;
    for_probes([&](SimProbe& p) { p.on_drop(now_, core.in_service, core_id); });
    if (config_.restore_order) {
      rob_.on_drop(core.in_service.gflow, core.in_service.seq, now_);
    }
    ++flushed;
  }
  while (!core.queue.empty()) {
    const SimPacket pkt = core.queue.front();
    core.queue.pop_front();
    for_probes([&](SimProbe& p) { p.on_drop(now_, pkt, core_id); });
    if (config_.restore_order) rob_.on_drop(pkt.gflow, pkt.seq, now_);
    ++flushed;
  }
  // Down cores read as empty, not-busy and never idle-claimable, so
  // idle-timer schedulers cannot surplus-mark them.
  view = CoreView{};  // idle_since defaults to -1
  fault_flush_drops_ += flushed;
  return flushed;
}

void SimEngine::maybe_resume(CoreId core_id) {
  // start_service re-checks the stall window, so an extended stall simply
  // re-arms the wake-up.
  if (down_[core_id] == 0 && !views_[core_id].busy &&
      !cores_[core_id].queue.empty()) {
    start_service(core_id);
  }
}

void SimEngine::apply_fault(const FaultEvent& event, bool advance) {
  if (advance) {
    if (epochs_on_) emit_epochs_until(event.time);
    now_ = event.time;
  }
  std::uint32_t flushed = 0;
  SchedEvent::Kind kind = SchedEvent::Kind::kTrafficFault;
  switch (event.kind) {
    case FaultKind::kCoreDown: {
      kind = SchedEvent::Kind::kCoreDown;
      const auto core = static_cast<CoreId>(event.core);
      if (down_[core] == 0) {  // idempotent: double-down is a no-op
        flushed = flush_core(core);
        down_[core] = 1;
        scheduler_.notify_core_down(core, *this);
      }
      break;
    }
    case FaultKind::kCoreUp: {
      kind = SchedEvent::Kind::kCoreUp;
      const auto core = static_cast<CoreId>(event.core);
      if (down_[core] != 0) {
        down_[core] = 0;
        views_[core].idle_since = now_;  // rejoins the pool idle
        scheduler_.notify_core_up(core, *this);
      }
      break;
    }
    case FaultKind::kCoreSlowdown:
      kind = SchedEvent::Kind::kCoreSlowdown;
      slow_[static_cast<std::size_t>(event.core)] = event.factor;
      break;
    case FaultKind::kCoreStall: {
      kind = SchedEvent::Kind::kCoreStall;
      const auto core = static_cast<std::size_t>(event.core);
      stall_until_[core] =
          std::max(stall_until_[core], event.time + event.duration);
      break;
    }
    case FaultKind::kCollisionBurst:
    case FaultKind::kFlashCrowd:
      // Realized by FaultTrafficStream; executed here only as a timeline
      // marker so probes can correlate load spikes with the schedule.
      break;
  }
  ++fault_events_applied_;
  if (!probes_.empty()) {
    SchedEvent se;
    se.kind = kind;
    se.core = event.is_core_event() ? event.core : -1;
    // Stamped with the event's own time: trailing events apply with the
    // simulation clock frozen at the drain point.
    for_probes([&](SimProbe& p) {
      p.on_sched_event(event.time, se);
      p.on_fault(event.time, event, flushed);
    });
  }
}

}  // namespace laps
