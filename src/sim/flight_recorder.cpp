#include "sim/flight_recorder.h"

#include <stdexcept>

#include "traffic/workload.h"
#include "util/fileio.h"
#include "util/json_writer.h"

namespace laps {

FlightRecorderProbe::FlightRecorderProbe(FlightRecorderConfig config)
    : config_(config) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("FlightRecorder: capacity must be >= 1");
  }
  if (config_.window_ns <= 0) {
    throw std::invalid_argument("FlightRecorder: window must be positive");
  }
}

void FlightRecorderProbe::on_run_begin(const RunInfo& info) {
  info_ = info;
  ring_.clear();
  head_ = 0;
  frozen_ = false;
  post_trigger_left_ = 0;
  counters_.clear();
  window_index_ = 0;
  window_drops_ = 0;
  window_ooo_ = 0;
  triggered_ = false;
  reason_.clear();
  trigger_time_ = 0;
}

void FlightRecorderProbe::push(const Event& e) {
  if (frozen_) return;
  // The log grows until it holds `capacity` events and only then wraps,
  // overwriting the oldest.
  if (ring_.size() < config_.capacity) {
    ring_.push_back(e);
  } else {
    ring_[head_] = e;
    if (++head_ == ring_.size()) head_ = 0;
  }
  if (triggered_ && post_trigger_left_ > 0 && --post_trigger_left_ == 0) {
    frozen_ = true;
  }
}

void FlightRecorderProbe::roll_window(TimeNs now) {
  const TimeNs index = now / config_.window_ns;
  if (index != window_index_) {
    window_index_ = index;
    window_drops_ = 0;
    window_ooo_ = 0;
  }
}

void FlightRecorderProbe::trip(const char* reason, TimeNs now) {
  if (triggered_) return;  // first anomaly wins; later ones change nothing
  triggered_ = true;
  reason_ = reason;
  trigger_time_ = now;
  post_trigger_left_ = config_.capacity / 2;
  if (post_trigger_left_ == 0) frozen_ = true;
}

void FlightRecorderProbe::on_drop(TimeNs now, const SimPacket& pkt,
                                  CoreId core) {
  roll_window(now);
  Event e;
  e.type = Type::kDrop;
  e.t = now;
  e.flow_key = pkt.flow_key();
  e.a = pkt.seq;
  e.tid = static_cast<std::uint16_t>(core);
  push(e);
  if (config_.drop_storm > 0 && ++window_drops_ >= config_.drop_storm) {
    trip("drop_storm", now);
  }
}

void FlightRecorderProbe::on_service_start(TimeNs now, const SimPacket& pkt,
                                           CoreId core, TimeNs delay,
                                           bool fm_penalty, bool cold_cache) {
  Event e;
  e.type = Type::kService;
  e.t = now;
  e.duration = delay;
  e.flow_key = pkt.flow_key();
  e.a = pkt.seq;
  e.tid = static_cast<std::uint16_t>(core);
  // flags: bit0 fm_penalty, bit1 cold_cache, bits 2+ the service id (the
  // span name at dump time); seq keeps all 32 bits of `a`.
  e.flags = static_cast<std::uint8_t>((fm_penalty ? 1 : 0) |
                                      (cold_cache ? 2 : 0) |
                                      (static_cast<unsigned>(pkt.service)
                                       << 2));
  push(e);
}

void FlightRecorderProbe::on_departure(TimeNs now, const SimPacket& pkt,
                                       CoreId core, std::uint32_t new_ooo) {
  if (new_ooo == 0) return;  // clean departures carry no anomaly signal
  roll_window(now);
  Event e;
  e.type = Type::kOoo;
  e.t = now;
  e.flow_key = pkt.flow_key();
  e.a = new_ooo;
  e.tid = static_cast<std::uint16_t>(core);
  push(e);
  if (config_.ooo_spike > 0 &&
      (window_ooo_ += new_ooo) >= config_.ooo_spike) {
    trip("ooo_spike", now);
  }
}

void FlightRecorderProbe::on_sched_event(TimeNs now, const SchedEvent& event) {
  Event e;
  e.type = Type::kSched;
  e.t = now;
  e.flow_key = event.flow_key;
  e.a = static_cast<std::uint32_t>(event.core + 1) |
        (static_cast<std::uint32_t>(event.service + 1) << 16);
  e.tid = static_cast<std::uint16_t>(info_.num_cores);  // scheduler row
  e.flags = static_cast<std::uint8_t>(event.kind);
  push(e);
}

void FlightRecorderProbe::add_counter(TimeNs now, const std::string& name,
                                      const std::string& args_json) {
  counters_.push_back("{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" +
                      std::to_string(to_us(now)) +
                      ",\"name\":" + JsonWriter::quote(name) +
                      ",\"args\":" + args_json + "}");
}

template <typename Out>
void FlightRecorderProbe::render(Out& out) const {
  // Hand-assembled compact form: one event per line, names and labels
  // escaped through JsonWriter::quote. Each line goes to `out` as soon as
  // it is built.
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  auto append = [&](const std::string& line) {
    if (!first) out.append(",\n");
    first = false;
    out.append(line);
  };
  std::string title = info_.scenario + " / " + info_.scheduler;
  if (config_.capacity != SIZE_MAX) {
    title += " [flight recorder";
    if (triggered_) {
      title += ": " + reason_ + " @ " +
               std::to_string(to_us(trigger_time_)) + " us";
    }
    title += "]";
  }
  append("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{"
         "\"name\":" +
         JsonWriter::quote(title) + "}}");
  for (std::size_t c = 0; c <= info_.num_cores; ++c) {
    const std::string label =
        c < info_.num_cores ? "core " + std::to_string(c) : "scheduler";
    append("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(c) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":" +
           JsonWriter::quote(label) + "}}");
  }
  if (triggered_) {
    // The anomaly itself, as an instant on the scheduler row.
    append("{\"ph\":\"i\",\"pid\":0,\"tid\":" +
           std::to_string(info_.num_cores) +
           ",\"ts\":" + std::to_string(to_us(trigger_time_)) +
           ",\"s\":\"g\",\"name\":" + JsonWriter::quote(reason_) + "}");
  }

  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Event& e = ring_[(head_ + i) % ring_.size()];
    std::string line = "{\"ph\":\"";
    std::string name;
    std::string args;
    switch (e.type) {
      case Type::kDrop:
        line += 'i';
        name = "drop";
        args = "{\"flow_key\":" + std::to_string(e.flow_key) +
               ",\"seq\":" + std::to_string(e.a) + "}";
        break;
      case Type::kService:
        line += 'X';
        name = service_name(static_cast<ServicePath>(e.flags >> 2));
        args = "{\"flow_key\":" + std::to_string(e.flow_key) +
               ",\"seq\":" + std::to_string(e.a);
        if (e.flags & 1) args += ",\"fm_penalty\":true";
        if (e.flags & 2) args += ",\"cold_cache\":true";
        args += "}";
        break;
      case Type::kOoo:
        line += 'i';
        name = "ooo";
        args = "{\"flow_key\":" + std::to_string(e.flow_key) +
               ",\"count\":" + std::to_string(e.a) + "}";
        break;
      case Type::kSched: {
        line += 'i';
        name = SchedEvent::kind_name(static_cast<SchedEvent::Kind>(e.flags));
        args = "{";
        const std::uint32_t core_plus1 = e.a & 0xffffu;
        const std::uint32_t service_plus1 = e.a >> 16;
        if (core_plus1 != 0) {
          args += "\"core\":" + std::to_string(core_plus1 - 1);
        }
        if (service_plus1 != 0) {
          if (args.size() > 1) args += ",";
          args += "\"service\":" + std::to_string(service_plus1 - 1);
        }
        if (e.flow_key != 0) {
          if (args.size() > 1) args += ",";
          args += "\"flow_key\":" + std::to_string(e.flow_key);
        }
        args += "}";
        break;
      }
    }
    line += "\",\"pid\":0,\"tid\":" + std::to_string(e.tid) +
            ",\"ts\":" + std::to_string(to_us(e.t));
    if (e.type == Type::kService) {
      line += ",\"dur\":" + std::to_string(to_us(e.duration));
    } else {
      line += ",\"s\":\"t\"";
    }
    line += ",\"name\":" + JsonWriter::quote(name);
    if (args != "{}") line += ",\"args\":" + args;
    line += "}";
    append(line);
  }
  for (const std::string& counter : counters_) append(counter);
  out.append("\n]}\n");
}

std::string FlightRecorderProbe::to_json() const {
  std::string out;
  render(out);
  return out;
}

void FlightRecorderProbe::write(const std::string& path) const {
  util::AtomicFileWriter out(path, "Chrome trace");
  render(out);
  out.commit();
}

}  // namespace laps
