#include "telemetry/probe.h"

#include <algorithm>
#include <string>

#include "sim/fault.h"

namespace laps::telemetry {

namespace {

/// Per-core queue-depth gauges are registered for at most this many cores;
/// larger machines still get the total/max gauges.
constexpr std::size_t kMaxPerCoreGauges = 64;

}  // namespace

TelemetryProbe::TelemetryProbe(TelemetryConfig config,
                               const Scheduler* scheduler,
                               FlightRecorderProbe* trace)
    : config_(config), scheduler_(scheduler), trace_(trace) {
  register_instruments();
}

void TelemetryProbe::register_instruments() {
  c_offered_ = registry_.counter("engine.offered");
  c_dropped_ = registry_.counter("engine.dropped");
  c_dispatched_ = registry_.counter("engine.dispatched");
  c_delivered_ = registry_.counter("engine.delivered");
  c_ooo_ = registry_.counter("engine.out_of_order");
  c_migrations_ = registry_.counter("engine.flow_migrations");
  c_completions_ = registry_.counter("engine.completions");
  c_core_grants_ = registry_.counter("sched.core_grants");
  c_core_denied_ = registry_.counter("sched.core_denied");
  c_parks_ = registry_.counter("sched.parks");
  c_wakes_ = registry_.counter("sched.wakes");
  c_afd_promotions_ = registry_.counter("sched.afd_promotions");
  c_aggressive_migrations_ = registry_.counter("sched.aggressive_migrations");
  c_fault_events_ = registry_.counter("fault.events");
  g_queue_total_ = registry_.gauge("engine.queue_depth_total");
  g_queue_max_ = registry_.gauge("engine.queue_depth_max");
  g_live_cores_ = registry_.gauge("engine.live_cores");
  g_rob_occupancy_ = registry_.gauge("engine.rob_occupancy");
  g_flows_ = registry_.gauge("engine.flows");
  g_outages_ = registry_.gauge("fault.outages_in_flight");
  h_latency_ = registry_.histogram("engine.latency_ns");
}

void TelemetryProbe::on_run_begin(const RunInfo& info) {
  info_ = info;
  finished_ = false;
  snapshots_.clear();
  next_snapshot_ = config_.interval;

  // Late registration happens here, before the cell pointers below freeze
  // the instrument set: per-core queue gauges, and the sched.* fields this
  // policy actually exports (telemetry_sample() returns -1 for mechanisms
  // it does not own — those gauges are never created).
  const std::size_t per_core = std::min(info.num_cores, kMaxPerCoreGauges);
  g_queue_core_.clear();
  for (std::size_t c = 0; c < per_core; ++c) {
    g_queue_core_.push_back(
        registry_.gauge("engine.queue_depth.core" + std::to_string(c)));
  }
  if (scheduler_ != nullptr) {
    const SchedTelemetry probe = scheduler_->telemetry_sample();
    if (probe.afc_occupancy >= 0) {
      g_afc_occupancy_ = registry_.gauge("sched.afc_occupancy");
    }
    if (probe.afd_hits >= 0) g_afd_hits_ = registry_.gauge("sched.afd_hits");
    if (probe.afd_evictions >= 0) {
      g_afd_evictions_ = registry_.gauge("sched.afd_evictions");
    }
    if (probe.pinned_flows >= 0) {
      g_pinned_flows_ = registry_.gauge("sched.pinned_flows");
    }
    if (probe.parked_cores >= 0) {
      g_parked_cores_ = registry_.gauge("sched.parked_cores");
    }
    if (probe.wake_strikes >= 0) {
      g_wake_strikes_ = registry_.gauge("sched.wake_strikes");
    }
    if (probe.core_transitions >= 0) {
      g_core_transitions_ = registry_.gauge("sched.core_transitions");
    }
  }

  registry_.reset();
  offered_ = registry_.counter_cell(c_offered_);
  dropped_ = registry_.counter_cell(c_dropped_);
  dispatched_ = registry_.counter_cell(c_dispatched_);
  delivered_ = registry_.counter_cell(c_delivered_);
  ooo_ = registry_.counter_cell(c_ooo_);
  migrations_ = registry_.counter_cell(c_migrations_);
  latency_ = registry_.histogram_cell(h_latency_);
  last_completions_ = 0;
  outages_in_flight_ = 0;
}

void TelemetryProbe::on_arrival(TimeNs, const SimPacket&) { ++*offered_; }

void TelemetryProbe::on_drop(TimeNs, const SimPacket&, CoreId) {
  ++*dropped_;
}

void TelemetryProbe::on_dispatch(TimeNs, const SimPacket&, CoreId,
                                 bool migrated) {
  ++*dispatched_;
  if (migrated) ++*migrations_;
}

void TelemetryProbe::on_departure(TimeNs now, const SimPacket& pkt, CoreId,
                                  std::uint32_t new_ooo) {
  ++*delivered_;
  if (new_ooo != 0) *ooo_ += new_ooo;
  latency_->record(now - pkt.arrival);
}

void TelemetryProbe::on_epoch(TimeNs, std::span<const CoreView> cores) {
  std::int64_t total = 0;
  std::int64_t max = 0;
  for (std::size_t c = 0; c < cores.size(); ++c) {
    const std::int64_t depth = static_cast<std::int64_t>(cores[c].queue_len);
    total += depth;
    if (depth > max) max = depth;
    if (c < g_queue_core_.size()) registry_.set(g_queue_core_[c], depth);
  }
  registry_.set(g_queue_total_, total);
  registry_.set(g_queue_max_, max);

  if (scheduler_ != nullptr) {
    const SchedTelemetry t = scheduler_->telemetry_sample();
    const auto set_if_registered = [&](GaugeId id, std::int64_t v) {
      if (id.valid()) registry_.set(id, v);
    };
    set_if_registered(g_afc_occupancy_, t.afc_occupancy);
    set_if_registered(g_afd_hits_, t.afd_hits);
    set_if_registered(g_afd_evictions_, t.afd_evictions);
    set_if_registered(g_pinned_flows_, t.pinned_flows);
    set_if_registered(g_parked_cores_, t.parked_cores);
    set_if_registered(g_wake_strikes_, t.wake_strikes);
    set_if_registered(g_core_transitions_, t.core_transitions);
  }
}

void TelemetryProbe::on_engine_sample(TimeNs now, const EngineSample& sample) {
  // Cumulative engine meters arrive as totals; publish deltas so the
  // instruments stay monotone counters in the JSONL series.
  registry_.add(c_completions_, sample.completions - last_completions_);
  last_completions_ = sample.completions;
  registry_.set(g_live_cores_, static_cast<std::int64_t>(sample.live_cores));
  registry_.set(g_rob_occupancy_,
                static_cast<std::int64_t>(sample.rob_occupancy));
  registry_.set(g_flows_, static_cast<std::int64_t>(sample.flows));

  // The snapshot decision rides the engine sample (not on_epoch) so the
  // published snapshot always carries the engine gauges set just above.
  if (now >= next_snapshot_) {
    take_snapshot(now);
    while (next_snapshot_ <= now) next_snapshot_ += config_.interval;
  }
}

void TelemetryProbe::on_sched_event(TimeNs, const SchedEvent& event) {
  switch (event.kind) {
    case SchedEvent::Kind::kCoreGrant:
      registry_.add(c_core_grants_);
      break;
    case SchedEvent::Kind::kCoreDenied:
      registry_.add(c_core_denied_);
      break;
    case SchedEvent::Kind::kAggressiveMigration:
      registry_.add(c_aggressive_migrations_);
      break;
    case SchedEvent::Kind::kAfdPromotion:
      registry_.add(c_afd_promotions_);
      break;
    case SchedEvent::Kind::kPark:
      registry_.add(c_parks_);
      break;
    case SchedEvent::Kind::kWake:
      registry_.add(c_wakes_);
      break;
    default:
      break;  // fault-injection markers are counted via on_fault
  }
}

void TelemetryProbe::on_fault(TimeNs, const FaultEvent& event, std::uint32_t) {
  registry_.add(c_fault_events_);
  if (event.kind == FaultKind::kCoreDown) {
    ++outages_in_flight_;
  } else if (event.kind == FaultKind::kCoreUp && outages_in_flight_ > 0) {
    --outages_in_flight_;
  }
  registry_.set(g_outages_, outages_in_flight_);
}

void TelemetryProbe::on_run_end(const RunEnd& end) {
  final_ = registry_.snapshot(end.end);
  finished_ = true;
}

void TelemetryProbe::take_snapshot(TimeNs now) {
  MetricsSnapshot snap = registry_.snapshot(now);
  if (trace_ != nullptr) emit_trace_counters(now, snap);
  snapshots_.push_back(std::move(snap));
}

void TelemetryProbe::emit_trace_counters(TimeNs now,
                                         const MetricsSnapshot& snap) {
  const auto gauge = [&](GaugeId id) -> std::int64_t {
    return id.valid() ? snap.gauges[id.index] : 0;
  };
  const auto counter = [&](CounterId id) -> std::uint64_t {
    return snap.counters[id.index];
  };
  trace_->add_counter(now, "queue_depth",
                      "{\"total\":" + std::to_string(gauge(g_queue_total_)) +
                          ",\"max\":" + std::to_string(gauge(g_queue_max_)) +
                          "}");
  trace_->add_counter(
      now, "occupancy",
      "{\"live_cores\":" + std::to_string(gauge(g_live_cores_)) +
          ",\"rob\":" + std::to_string(gauge(g_rob_occupancy_)) +
          (g_afc_occupancy_.valid()
               ? ",\"afc\":" + std::to_string(gauge(g_afc_occupancy_))
               : "") +
          "}");
  trace_->add_counter(
      now, "totals",
      "{\"drops\":" + std::to_string(counter(c_dropped_)) +
          ",\"migrations\":" + std::to_string(counter(c_migrations_)) + "}");
}

}  // namespace laps::telemetry
