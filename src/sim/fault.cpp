#include "sim/fault.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/duration.h"
#include "util/fileio.h"
#include "util/json_writer.h"
#include "util/rng.h"

namespace laps {

namespace {

/// Largest unit that divides `t` exactly, so specs read naturally
/// ("10ms", not "10000000ns") and round-trip bit-exactly.
std::string format_time(TimeNs t) {
  if (t != 0 && t % kSecond == 0) return std::to_string(t / kSecond) + "s";
  if (t != 0 && t % kMillisecond == 0) {
    return std::to_string(t / kMillisecond) + "ms";
  }
  if (t != 0 && t % kMicrosecond == 0) {
    return std::to_string(t / kMicrosecond) + "us";
  }
  return std::to_string(t) + "ns";
}

/// Trims a compact double ("2", "1.5") without trailing zeros.
std::string format_double(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  std::string s = std::to_string(v);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

[[noreturn]] void bad_spec(const std::string& component,
                           const std::string& why) {
  throw std::invalid_argument("parse_fault_plan: " + why + " in '" +
                              component + "'");
}

double parse_double(const std::string& text, const std::string& component,
                    const char* what) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    bad_spec(component, std::string("bad ") + what + " '" + text + "'");
  }
  if (pos != text.size()) {
    bad_spec(component, std::string("bad ") + what + " '" + text + "'");
  }
  return value;
}

std::int32_t parse_core(const std::string& text,
                        const std::string& component) {
  const double v = parse_double(text, component, "core id");
  if (v < 0 || v != std::floor(v) || v > 1e6) {
    bad_spec(component, "bad core id '" + text + "'");
  }
  return static_cast<std::int32_t>(v);
}

/// The util::parse_duration context for the times of `component`.
std::string time_context(const std::string& component) {
  return "parse_fault_plan: time in '" + component + "'";
}

/// "TIME+DURATION" -> pair.
void parse_time_span(const std::string& text, const std::string& component,
                     TimeNs& time, TimeNs& duration) {
  const std::size_t plus = text.find('+');
  if (plus == std::string::npos) {
    bad_spec(component, "expected TIME+DURATION");
  }
  time = util::parse_duration(time_context(component), text.substr(0, plus));
  duration =
      util::parse_duration(time_context(component), text.substr(plus + 1));
  if (duration <= 0) bad_spec(component, "duration must be positive");
}

/// "rate=2,flows=16" (either order) for traffic events.
void parse_traffic_args(const std::string& text, const std::string& component,
                        FaultEvent& ev) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string kv = text.substr(start, comma - start);
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) bad_spec(component, "expected key=value");
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    if (key == "rate") {
      ev.rate_mpps = parse_double(value, component, "rate");
      if (ev.rate_mpps <= 0) bad_spec(component, "rate must be positive");
    } else if (key == "flows") {
      const double f = parse_double(value, component, "flow count");
      if (f < 1 || f != std::floor(f) || f > 1e7) {
        bad_spec(component, "bad flow count '" + value + "'");
      }
      ev.flows = static_cast<std::uint32_t>(f);
    } else {
      bad_spec(component, "unknown key '" + key + "'");
    }
    start = comma + 1;
  }
  if (ev.rate_mpps <= 0) bad_spec(component, "missing rate=");
  if (ev.flows == 0) bad_spec(component, "missing flows=");
}

FaultEvent parse_component(const std::string& component) {
  FaultEvent ev;
  const std::size_t at = component.find('@');
  if (at == std::string::npos) bad_spec(component, "missing '@TIME'");
  const std::string head = component.substr(0, at);
  std::string tail = component.substr(at + 1);

  if (head.rfind("down:", 0) == 0 || head.rfind("up:", 0) == 0) {
    const bool down = head[0] == 'd';
    ev.kind = down ? FaultKind::kCoreDown : FaultKind::kCoreUp;
    ev.core = parse_core(head.substr(down ? 5 : 3), component);
    ev.time = util::parse_duration(time_context(component), tail);
  } else if (head.rfind("slow:", 0) == 0) {
    ev.kind = FaultKind::kCoreSlowdown;
    const std::string body = head.substr(5);
    const std::size_t x = body.find('x');
    if (x == std::string::npos) bad_spec(component, "expected CORExFACTOR");
    ev.core = parse_core(body.substr(0, x), component);
    ev.factor = parse_double(body.substr(x + 1), component, "factor");
    if (ev.factor <= 0) bad_spec(component, "factor must be positive");
    ev.time = util::parse_duration(time_context(component), tail);
  } else if (head.rfind("stall:", 0) == 0) {
    ev.kind = FaultKind::kCoreStall;
    ev.core = parse_core(head.substr(6), component);
    parse_time_span(tail, component, ev.time, ev.duration);
  } else if (head == "burst" || head == "crowd") {
    ev.kind = head == "burst" ? FaultKind::kCollisionBurst
                              : FaultKind::kFlashCrowd;
    const std::size_t colon = tail.find(':');
    if (colon == std::string::npos) {
      bad_spec(component, "expected TIME+DUR:rate=...,flows=...");
    }
    parse_time_span(tail.substr(0, colon), component, ev.time, ev.duration);
    parse_traffic_args(tail.substr(colon + 1), component, ev);
  } else {
    bad_spec(component, "unknown fault kind");
  }
  return ev;
}

}  // namespace

const char* FaultEvent::kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCoreDown: return "core_down";
    case FaultKind::kCoreUp: return "core_up";
    case FaultKind::kCoreSlowdown: return "core_slowdown";
    case FaultKind::kCoreStall: return "core_stall";
    case FaultKind::kCollisionBurst: return "collision_burst";
    case FaultKind::kFlashCrowd: return "flash_crowd";
  }
  return "unknown";
}

std::string FaultEvent::to_spec() const {
  switch (kind) {
    case FaultKind::kCoreDown:
      return "down:" + std::to_string(core) + "@" + format_time(time);
    case FaultKind::kCoreUp:
      return "up:" + std::to_string(core) + "@" + format_time(time);
    case FaultKind::kCoreSlowdown:
      return "slow:" + std::to_string(core) + "x" + format_double(factor) +
             "@" + format_time(time);
    case FaultKind::kCoreStall:
      return "stall:" + std::to_string(core) + "@" + format_time(time) + "+" +
             format_time(duration);
    case FaultKind::kCollisionBurst:
    case FaultKind::kFlashCrowd:
      return std::string(kind == FaultKind::kCollisionBurst ? "burst"
                                                            : "crowd") +
             "@" + format_time(time) + "+" + format_time(duration) +
             ":rate=" + format_double(rate_mpps) +
             ",flows=" + std::to_string(flows);
  }
  return "?";
}

void FaultPlan::sort_events() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
}

void FaultPlan::validate(std::size_t num_cores) const {
  TimeNs prev = 0;
  for (const FaultEvent& ev : events) {
    const std::string where = ev.to_spec();
    if (ev.time < 0) {
      throw std::invalid_argument("FaultPlan: negative time in " + where);
    }
    if (ev.time < prev) {
      throw std::invalid_argument("FaultPlan: events not sorted at " + where);
    }
    prev = ev.time;
    if (ev.is_core_event()) {
      if (ev.core < 0) {
        throw std::invalid_argument("FaultPlan: core event without core: " +
                                    where);
      }
      if (num_cores > 0 &&
          static_cast<std::size_t>(ev.core) >= num_cores) {
        throw std::invalid_argument(
            "FaultPlan: core " + std::to_string(ev.core) + " out of range (" +
            std::to_string(num_cores) + " cores): " + where);
      }
      if (ev.kind == FaultKind::kCoreSlowdown && ev.factor <= 0) {
        throw std::invalid_argument("FaultPlan: non-positive factor: " +
                                    where);
      }
      if (ev.kind == FaultKind::kCoreStall && ev.duration <= 0) {
        throw std::invalid_argument("FaultPlan: stall without duration: " +
                                    where);
      }
    } else {
      if (ev.duration <= 0 || ev.rate_mpps <= 0 || ev.flows == 0) {
        throw std::invalid_argument(
            "FaultPlan: traffic event needs duration, rate and flows: " +
            where);
      }
    }
  }
}

std::string FaultPlan::to_spec() const {
  std::string out;
  for (const FaultEvent& ev : events) {
    if (!out.empty()) out += ";";
    out += ev.to_spec();
  }
  return out;
}

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t semi = spec.find(';', start);
    if (semi == std::string::npos) semi = spec.size();
    std::string component = spec.substr(start, semi - start);
    start = semi + 1;
    // Trim surrounding whitespace; empty components (trailing ';') skip.
    while (!component.empty() && component.front() == ' ') {
      component.erase(component.begin());
    }
    while (!component.empty() && component.back() == ' ') component.pop_back();
    if (component.empty()) continue;
    plan.events.push_back(parse_component(component));
  }
  plan.sort_events();
  plan.validate();
  return plan;
}

FaultPlan random_fault_plan(std::uint64_t seed,
                            const RandomFaultParams& params) {
  if (params.num_cores == 0) {
    throw std::invalid_argument("random_fault_plan: 0 cores");
  }
  if (params.horizon <= 0) {
    throw std::invalid_argument("random_fault_plan: non-positive horizon");
  }
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(mix64(seed ^ 0x9E3779B97F4A7C15ull));
  const std::size_t cap = params.max_concurrent_down > 0
                              ? params.max_concurrent_down
                              : std::max<std::size_t>(1, params.num_cores / 4);
  // Events land inside [10%, 80%] of the horizon so recoveries and their
  // first re-dispatch still happen while traffic flows.
  const TimeNs lo = params.horizon / 10;
  const TimeNs hi = params.horizon * 8 / 10;
  const auto time_in = [&](TimeNs a, TimeNs b) {
    return a + static_cast<TimeNs>(rng.below(
                   static_cast<std::uint64_t>(std::max<TimeNs>(1, b - a))));
  };

  // Down/up pairs on distinct cores, capped for simultaneity: every down
  // recovers before the next one starts when the cap is 1; otherwise pairs
  // may overlap but never exceed `cap` cores at once (pairs are nested in
  // disjoint time slices per core).
  const std::size_t downs = 1 + rng.below(std::min<std::size_t>(cap, 3));
  std::vector<std::uint8_t> used(params.num_cores, 0);
  for (std::size_t i = 0; i < downs; ++i) {
    CoreId core = static_cast<CoreId>(rng.below(params.num_cores));
    for (std::size_t tries = 0; used[core] && tries < params.num_cores;
         ++tries) {
      core = static_cast<CoreId>((core + 1) % params.num_cores);
    }
    if (used[core]) break;
    used[core] = 1;
    const TimeNs down_at = time_in(lo, hi);
    const TimeNs up_at = time_in(down_at + params.horizon / 100,
                                 std::max(hi, down_at + params.horizon / 50));
    FaultEvent down;
    down.kind = FaultKind::kCoreDown;
    down.core = static_cast<std::int32_t>(core);
    down.time = down_at;
    plan.events.push_back(down);
    FaultEvent up = down;
    up.kind = FaultKind::kCoreUp;
    up.time = up_at;
    plan.events.push_back(up);
  }

  // One slowdown episode (factor 2-6x, then reset) on a core that never
  // goes down, when one exists.
  if (rng.chance(0.7)) {
    CoreId core = static_cast<CoreId>(rng.below(params.num_cores));
    for (std::size_t tries = 0; used[core] && tries < params.num_cores;
         ++tries) {
      core = static_cast<CoreId>((core + 1) % params.num_cores);
    }
    if (!used[core]) {
      const TimeNs at = time_in(lo, hi);
      FaultEvent slow;
      slow.kind = FaultKind::kCoreSlowdown;
      slow.core = static_cast<std::int32_t>(core);
      slow.factor = 2.0 + static_cast<double>(rng.below(5));
      slow.time = at;
      plan.events.push_back(slow);
      FaultEvent reset = slow;
      reset.factor = 1.0;
      reset.time = time_in(at, std::max(hi, at + params.horizon / 50));
      plan.events.push_back(reset);
      used[core] = 1;
    }
  }

  // One stall on yet another core.
  if (rng.chance(0.6)) {
    CoreId core = static_cast<CoreId>(rng.below(params.num_cores));
    for (std::size_t tries = 0; used[core] && tries < params.num_cores;
         ++tries) {
      core = static_cast<CoreId>((core + 1) % params.num_cores);
    }
    if (!used[core]) {
      FaultEvent stall;
      stall.kind = FaultKind::kCoreStall;
      stall.core = static_cast<std::int32_t>(core);
      stall.time = time_in(lo, hi);
      stall.duration = std::max<TimeNs>(kMicrosecond,
                                        time_in(0, params.horizon / 20));
      plan.events.push_back(stall);
    }
  }

  if (params.traffic_faults && rng.chance(0.8)) {
    FaultEvent traffic;
    traffic.kind = rng.chance(0.5) ? FaultKind::kCollisionBurst
                                   : FaultKind::kFlashCrowd;
    traffic.time = time_in(lo, hi);
    traffic.duration = std::max<TimeNs>(10 * kMicrosecond,
                                        time_in(0, params.horizon / 10));
    traffic.rate_mpps = 0.5 + rng.uniform() * 2.0;
    traffic.flows = traffic.kind == FaultKind::kCollisionBurst
                        ? 4 + static_cast<std::uint32_t>(rng.below(13))
                        : 64 + static_cast<std::uint32_t>(rng.below(960));
    plan.events.push_back(traffic);
  }

  plan.sort_events();
  plan.validate(params.num_cores);
  return plan;
}

// --------------------------------------------------- FaultTrafficStream ---

namespace {

FiveTuple random_tuple(Rng& rng) {
  FiveTuple t;
  t.src_ip = static_cast<std::uint32_t>(rng.next());
  t.dst_ip = static_cast<std::uint32_t>(rng.next());
  t.src_port = static_cast<std::uint16_t>(rng.below(65536));
  t.dst_port = static_cast<std::uint16_t>(rng.below(65536));
  t.protocol = rng.chance(0.8) ? 6 : 17;
  return t;
}

/// `count` tuples sharing one CRC16 value — the adversarial input that
/// defeats every CRC16-bucketed scheme (StaticHash, AFS buckets, the LAPS
/// map table): the whole flood lands in a single bucket. Brute force over
/// random tuples; ~65536 tries per collision, trivially fast offline.
std::vector<FiveTuple> collision_tuples(Rng& rng, std::uint32_t count) {
  std::vector<FiveTuple> out;
  out.reserve(count);
  out.push_back(random_tuple(rng));
  const std::uint16_t target = out.front().crc16();
  while (out.size() < count) {
    FiveTuple t = random_tuple(rng);
    if (t.crc16() == target) out.push_back(t);
  }
  return out;
}

}  // namespace

FaultTrafficStream::FaultTrafficStream(ArrivalStream& base,
                                       const FaultPlan& plan)
    : base_(base) {
  Rng rng(mix64(plan.seed ^ 0xD1B54A32D192ED03ull));
  for (const FaultEvent& ev : plan.events) {
    if (!ev.is_traffic_event()) continue;
    const double span_s = to_seconds(ev.duration);
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(ev.rate_mpps * 1e6 * span_s + 0.5));
    const std::uint32_t nflows =
        std::min<std::uint32_t>(ev.flows, static_cast<std::uint32_t>(count));
    std::vector<FiveTuple> tuples;
    if (ev.kind == FaultKind::kCollisionBurst) {
      tuples = collision_tuples(rng, nflows);
    } else {
      tuples.reserve(nflows);
      for (std::uint32_t i = 0; i < nflows; ++i) {
        tuples.push_back(random_tuple(rng));
      }
    }
    const std::uint32_t flow_base =
        static_cast<std::uint32_t>(injected_flow_count_);
    for (std::size_t i = 0; i < count; ++i) {
      GeneratedPacket pkt;
      pkt.time = ev.time + static_cast<TimeNs>(
                               static_cast<double>(ev.duration) *
                                   static_cast<double>(i) /
                                   static_cast<double>(count) +
                               0.5);
      pkt.service = ServicePath::kIpForward;
      const std::uint32_t f = static_cast<std::uint32_t>(i % nflows);
      pkt.record.tuple = tuples[f];
      pkt.record.size_bytes = 64;
      // Odd ids: disjoint from the (even-remapped) base flows; see fault.h.
      pkt.gflow = 2 * (flow_base + f) + 1;
      pkt.record.flow_id = pkt.gflow;  // informational; gflow is used
      injected_.push_back(pkt);
    }
    injected_flow_count_ += nflows;
  }
  std::stable_sort(injected_.begin(), injected_.end(),
                   [](const GeneratedPacket& a, const GeneratedPacket& b) {
                     return a.time < b.time;
                   });
}

std::size_t FaultTrafficStream::total_flows() const {
  if (injected_.empty()) return base_.total_flows();
  // Pre-size hint only; the engine grows its flow block per arrival, so an
  // evolving (churned) base population stays correct.
  return 2 * std::max(base_.total_flows(), injected_flow_count_);
}

std::optional<GeneratedPacket> FaultTrafficStream::next() {
  if (injected_.empty()) return base_.next();  // core-event-only plan
  if (!base_primed_) {
    pending_base_ = base_.next();
    base_primed_ = true;
  }
  const bool have_injected = pos_ < injected_.size();
  if (pending_base_ &&
      (!have_injected || pending_base_->time <= injected_[pos_].time)) {
    GeneratedPacket out = *pending_base_;
    out.gflow *= 2;  // even ids; see fault.h
    pending_base_ = base_.next();
    return out;
  }
  if (have_injected) return injected_[pos_++];
  return std::nullopt;
}

// ------------------------------------------------------------ FaultProbe ---

void FaultProbe::on_run_begin(const RunInfo& info) {
  scenario_ = info.scenario;
  scheduler_ = info.scheduler;
  timeline_.clear();
  recoveries_.clear();
  open_.assign(info.num_cores, -1);
  waiting_.assign(info.num_cores, 0);
  awaiting_ = 0;
  flush_drops_ = 0;
}

void FaultProbe::on_fault(TimeNs now, const FaultEvent& event,
                          std::uint32_t flushed) {
  timeline_.push_back(TimelineRow{now, event, flushed});
  flush_drops_ += flushed;
  if (!event.is_core_event() || event.core < 0 ||
      static_cast<std::size_t>(event.core) >= open_.size()) {
    return;
  }
  const auto core = static_cast<std::size_t>(event.core);
  if (event.kind == FaultKind::kCoreDown && open_[core] < 0) {
    Recovery r;
    r.core = event.core;
    r.down_at = now;
    r.flushed = flushed;
    open_[core] = static_cast<std::int32_t>(recoveries_.size());
    recoveries_.push_back(r);
    if (waiting_[core]) {
      waiting_[core] = 0;
      --awaiting_;
    }
  } else if (event.kind == FaultKind::kCoreUp && open_[core] >= 0) {
    recoveries_[static_cast<std::size_t>(open_[core])].up_at = now;
    open_[core] = -1;
    if (!waiting_[core]) {
      waiting_[core] = 1;
      ++awaiting_;
    }
  }
}

void FaultProbe::on_dispatch(TimeNs now, const SimPacket& pkt, CoreId core,
                             bool migrated) {
  (void)pkt;
  (void)migrated;
  if (awaiting_ == 0) return;  // fast path: no recovery pending
  if (core >= waiting_.size() || !waiting_[core]) return;
  waiting_[core] = 0;
  --awaiting_;
  // Newest recovery of this core that has an up_at but no dispatch yet.
  for (auto it = recoveries_.rbegin(); it != recoveries_.rend(); ++it) {
    if (it->core == static_cast<std::int32_t>(core) && it->up_at >= 0 &&
        it->first_dispatch_after_up < 0) {
      it->first_dispatch_after_up = now;
      break;
    }
  }
}

std::string FaultProbe::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "laps-bench-v1");
  w.field("tool", "fault_probe");
  w.field("scenario", scenario_);
  w.field("scheduler", scheduler_);
  w.key("timeline");
  w.begin_array();
  for (const TimelineRow& row : timeline_) {
    w.begin_object();
    w.field("time_ns", row.time);
    w.field("kind", FaultEvent::kind_name(row.event.kind));
    w.field("spec", row.event.to_spec());
    if (row.event.is_core_event()) {
      w.field("core", static_cast<std::int64_t>(row.event.core));
    }
    w.field("flushed", static_cast<std::int64_t>(row.flushed));
    w.end_object();
  }
  w.end_array();
  w.key("recoveries");
  w.begin_array();
  for (const Recovery& r : recoveries_) {
    w.begin_object();
    w.field("core", static_cast<std::int64_t>(r.core));
    w.field("down_ns", r.down_at);
    w.field("up_ns", r.up_at);
    w.field("outage_us", r.up_at >= 0 ? to_us(r.outage_ns()) : -1.0);
    w.field("reintegrate_us",
            r.reintegrate_ns() >= 0 ? to_us(r.reintegrate_ns()) : -1.0);
    w.field("flushed", static_cast<std::int64_t>(r.flushed));
    w.end_object();
  }
  w.end_array();
  w.key("totals");
  w.begin_object();
  w.field("fault_events", static_cast<std::int64_t>(timeline_.size()));
  w.field("flush_drops", static_cast<std::int64_t>(flush_drops_));
  w.field("recoveries", static_cast<std::int64_t>(recoveries_.size()));
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

void FaultProbe::write(const std::string& path) const {
  util::write_file_atomic(path, to_json(), "fault timeline");
}

}  // namespace laps
