#include "sim/telemetry.h"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "sim/fault.h"
#include "util/fileio.h"
#include "util/json_writer.h"

namespace laps {

namespace {

// The JSONL names, in column order.
constexpr const char* kCounterNames[] = {
    "engine.offered",
    "engine.dropped",
    "engine.dispatched",
    "engine.delivered",
    "engine.out_of_order",
    "engine.flow_migrations",
    "engine.completions",
    "sched.core_grants",
    "sched.core_denied",
    "sched.parks",
    "sched.wakes",
    "sched.afd_promotions",
    "sched.aggressive_migrations",
    "fault.events",
};
static_assert(std::size(kCounterNames) == TelemetryProbe::kNumCounters);

constexpr const char* kGaugeNames[] = {
    "engine.queue_depth_total",
    "engine.queue_depth_max",
    "engine.live_cores",
    "engine.rob_occupancy",
    "engine.flows",
    "fault.outages_in_flight",
};
static_assert(std::size(kGaugeNames) == TelemetryProbe::kNumGauges);

struct SchedGauge {
  const char* name;
  std::int64_t SchedTelemetry::*field;
};
constexpr SchedGauge kSchedGauges[] = {
    {"sched.afc_occupancy", &SchedTelemetry::afc_occupancy},
    {"sched.afd_hits", &SchedTelemetry::afd_hits},
    {"sched.afd_evictions", &SchedTelemetry::afd_evictions},
    {"sched.pinned_flows", &SchedTelemetry::pinned_flows},
    {"sched.parked_cores", &SchedTelemetry::parked_cores},
    {"sched.wake_strikes", &SchedTelemetry::wake_strikes},
    {"sched.core_transitions", &SchedTelemetry::core_transitions},
};

/// Appends `"name":value`, after a comma unless it opens its object.
template <typename T>
void append_field(std::string& out, std::string_view name, T value) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += name;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

TelemetryProbe::TelemetryProbe(TelemetryConfig config,
                               const Scheduler* scheduler,
                               FlightRecorderProbe* trace)
    : config_(config), scheduler_(scheduler), trace_(trace) {}

void TelemetryProbe::on_run_begin(const RunInfo& info) {
  info_ = info;
  finished_ = false;
  snapshots_.clear();
  next_snapshot_ = config_.interval;
  next_seq_ = 0;
  last_completions_ = 0;

  counters_.fill(0);
  gauges_.fill(0);
  queue_depth_.assign(std::min(info.num_cores, kMaxPerCore), 0);
  latency_.clear();
  // The sched.* fields this policy actually exports: telemetry_sample()
  // returns -1 for mechanisms it does not own, and those are never written.
  exported_ = scheduler_ != nullptr ? scheduler_->telemetry_sample()
                                    : SchedTelemetry{};
  for (const SchedGauge& g : kSchedGauges) sched_.*g.field = 0;
}

void TelemetryProbe::on_arrival(TimeNs, const SimPacket&) {
  ++counters_[kOffered];
}

void TelemetryProbe::on_drop(TimeNs, const SimPacket&, CoreId) {
  ++counters_[kDropped];
}

void TelemetryProbe::on_dispatch(TimeNs, const SimPacket&, CoreId,
                                 bool migrated) {
  ++counters_[kDispatched];
  if (migrated) ++counters_[kFlowMigrations];
}

void TelemetryProbe::on_departure(TimeNs now, const SimPacket& pkt, CoreId,
                                  std::uint32_t new_ooo) {
  ++counters_[kDelivered];
  if (new_ooo != 0) counters_[kOutOfOrder] += new_ooo;
  latency_.record(now - pkt.arrival);
}

void TelemetryProbe::on_epoch(TimeNs, std::span<const CoreView> cores) {
  std::int64_t total = 0;
  std::int64_t max = 0;
  for (std::size_t c = 0; c < cores.size(); ++c) {
    const std::int64_t depth = static_cast<std::int64_t>(cores[c].queue_len);
    total += depth;
    if (depth > max) max = depth;
    if (c < queue_depth_.size()) queue_depth_[c] = depth;
  }
  gauges_[kQueueDepthTotal] = total;
  gauges_[kQueueDepthMax] = max;
  if (scheduler_ != nullptr) sched_ = scheduler_->telemetry_sample();
}

void TelemetryProbe::on_engine_sample(TimeNs now, const EngineSample& sample) {
  // Cumulative engine meters arrive as totals; count deltas so the
  // counter stays monotone in the JSONL series.
  counters_[kCompletions] += sample.completions - last_completions_;
  last_completions_ = sample.completions;
  gauges_[kLiveCores] = static_cast<std::int64_t>(sample.live_cores);
  gauges_[kRobOccupancy] = static_cast<std::int64_t>(sample.rob_occupancy);
  gauges_[kFlows] = static_cast<std::int64_t>(sample.flows);

  // The snapshot decision rides the engine sample (not on_epoch) so the
  // published snapshot always carries the engine gauges set just above.
  if (now >= next_snapshot_) {
    Snapshot snap = snapshot(now);
    if (trace_ != nullptr) emit_trace_counters(now, snap);
    snapshots_.push_back(std::move(snap));
    while (next_snapshot_ <= now) next_snapshot_ += config_.interval;
  }
}

void TelemetryProbe::on_sched_event(TimeNs, const SchedEvent& event) {
  switch (event.kind) {
    case SchedEvent::Kind::kCoreGrant:
      ++counters_[kCoreGrants];
      break;
    case SchedEvent::Kind::kCoreDenied:
      ++counters_[kCoreDenied];
      break;
    case SchedEvent::Kind::kAggressiveMigration:
      ++counters_[kAggressiveMigrations];
      break;
    case SchedEvent::Kind::kAfdPromotion:
      ++counters_[kAfdPromotions];
      break;
    case SchedEvent::Kind::kPark:
      ++counters_[kParks];
      break;
    case SchedEvent::Kind::kWake:
      ++counters_[kWakes];
      break;
    default:
      break;  // fault-injection markers are counted via on_fault
  }
}

void TelemetryProbe::on_fault(TimeNs, const FaultEvent& event, std::uint32_t) {
  ++counters_[kFaultEvents];
  std::int64_t& outages = gauges_[kOutagesInFlight];
  if (event.kind == FaultKind::kCoreDown) {
    ++outages;
  } else if (event.kind == FaultKind::kCoreUp && outages > 0) {
    --outages;
  }
}

void TelemetryProbe::on_run_end(const RunEnd& end) {
  final_ = snapshot(end.end);
  finished_ = true;
}

TelemetryProbe::Snapshot TelemetryProbe::snapshot(TimeNs now) {
  return {now,
          next_seq_++,
          counters_,
          gauges_,
          queue_depth_,
          sched_,
          {latency_.count(), latency_.sum(), latency_.max(),
           latency_.quantile(0.50), latency_.quantile(0.90),
           latency_.quantile(0.99)}};
}

void TelemetryProbe::emit_trace_counters(TimeNs now, const Snapshot& snap) {
  trace_->add_counter(
      now, "queue_depth",
      "{\"total\":" + std::to_string(snap.gauges[kQueueDepthTotal]) +
          ",\"max\":" + std::to_string(snap.gauges[kQueueDepthMax]) + "}");
  trace_->add_counter(
      now, "occupancy",
      "{\"live_cores\":" + std::to_string(snap.gauges[kLiveCores]) +
          ",\"rob\":" + std::to_string(snap.gauges[kRobOccupancy]) +
          (exported_.afc_occupancy >= 0
               ? ",\"afc\":" + std::to_string(snap.sched.afc_occupancy)
               : "") +
          "}");
  trace_->add_counter(
      now, "totals",
      "{\"drops\":" + std::to_string(snap.counters[kDropped]) +
          ",\"migrations\":" + std::to_string(snap.counters[kFlowMigrations]) +
          "}");
}

std::string TelemetryProbe::line(const Snapshot& snap) const {
  std::string out = "{\"t_ns\":" + std::to_string(snap.t) +
                    ",\"seq\":" + std::to_string(snap.seq) + ",\"counters\":{";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    append_field(out, kCounterNames[i], snap.counters[i]);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    append_field(out, kGaugeNames[i], snap.gauges[i]);
  }
  for (std::size_t c = 0; c < snap.queue_depth.size(); ++c) {
    append_field(out, "engine.queue_depth.core" + std::to_string(c),
                 snap.queue_depth[c]);
  }
  for (const SchedGauge& g : kSchedGauges) {
    if (exported_.*g.field >= 0) append_field(out, g.name, snap.sched.*g.field);
  }
  const Latency& lat = snap.latency;
  out += "},\"histograms\":{\"engine.latency_ns\":{";
  append_field(out, "count", lat.count);
  append_field(out, "sum", lat.sum);
  append_field(out, "max", lat.max);
  append_field(out, "p50", lat.p50);
  append_field(out, "p90", lat.p90);
  append_field(out, "p99", lat.p99);
  out += "}}}";
  return out;
}

void TelemetryProbe::write(const std::string& path) const {
  util::AtomicFileWriter out(path, "telemetry JSONL");
  for (const Snapshot& snap : snapshots_) out.append(line(snap) + "\n");
  // The final line also labels the run, so a stream file stands alone:
  // num_cores turns engine.queue_depth_total into a per-core mean.
  std::string last = line(final_);
  last.pop_back();  // '}'
  last += ",\"final\":true,\"scenario\":" + JsonWriter::quote(info_.scenario) +
          ",\"scheduler\":" + JsonWriter::quote(info_.scheduler) +
          ",\"num_cores\":" + std::to_string(info_.num_cores) +
          ",\"interval_ns\":" + std::to_string(config_.interval) + "}\n";
  out.append(last);
  out.commit();
}

}  // namespace laps
