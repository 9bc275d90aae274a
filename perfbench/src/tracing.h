// Host-time tracing for the benchmark's traced run.
//
// Decorators wrap the public entry point of each layer (scheduler decision,
// arrival stream, trace source, cluster dispatcher) and add the host time
// and call count of every call into a named Boundary. Nothing is recorded
// per call: a traced pass makes ~10^7 calls, so totals and counts live in
// memory and the ledger is written once at the end. Each boundary names the
// boundary that calls it, which is what lets the report turn spans into
// self times (a span minus the spans of its children).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "sim/scheduler.h"
#include "trace/packet_record.h"
#include "traffic/generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Total host time and call count of one layer boundary.
struct Boundary {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::string parent;  ///< boundary whose span contains this one; "" = root
};

/// Adds the duration of one call to a boundary.
class Span {
 public:
  explicit Span(Boundary& boundary)
      : boundary_(boundary), t0_(Clock::now()) {}
  ~Span() {
    boundary_.ns += elapsed_ns(t0_, Clock::now());
    ++boundary_.calls;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Boundary& boundary_;
  Clock::time_point t0_;
};

/// The boundaries of one traced run, keyed by name. std::map nodes never
/// move, so the references the decorators hold stay valid.
class Ledger {
 public:
  /// The boundary `name`, created on first use under `parent`. A name is
  /// reached from one parent only; anything else would make self times
  /// ambiguous, so it throws.
  Boundary& at(const std::string& name, const std::string& parent);

  /// Whether any call has been charged to `name`.
  bool called(const std::string& name) const {
    const auto it = boundaries_.find(name);
    return it != boundaries_.end() && it->second.calls > 0;
  }

  const std::map<std::string, Boundary>& boundaries() const {
    return boundaries_;
  }

 private:
  std::map<std::string, Boundary> boundaries_;
};

/// What timing itself costs, measured on this host at run time.
struct TimerCost {
  double span_ns = 0;  ///< what an empty timed region reads (per call)
  double pair_ns = 0;  ///< wall time one timed region adds to its caller
};

/// Median over batches of empty Span regions.
TimerCost calibrate_timer();

/// Scheduler decorator: times schedule() and forwards every other virtual,
/// so the wrapped policy sees the same attach/sink/fault calls and reports
/// the same name and counters.
class TimedScheduler final : public laps::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<laps::Scheduler> inner, Boundary& schedule)
      : inner_(std::move(inner)), schedule_(schedule) {}

  void attach(std::size_t num_cores) override { inner_->attach(num_cores); }
  laps::CoreId schedule(const laps::SimPacket& pkt,
                        const laps::NpuView& view) override {
    Span span(schedule_);
    return inner_->schedule(pkt, view);
  }
  std::string name() const override { return inner_->name(); }
  std::map<std::string, double> extra_stats() const override {
    return inner_->extra_stats();
  }
  void set_event_sink(laps::SchedEventSink* sink) override {
    inner_->set_event_sink(sink);
  }
  void notify_core_down(laps::CoreId core,
                        const laps::NpuView& view) override {
    inner_->notify_core_down(core, view);
  }
  void notify_core_up(laps::CoreId core, const laps::NpuView& view) override {
    inner_->notify_core_up(core, view);
  }
  std::vector<std::uint64_t> aggressive_snapshot() const override {
    return inner_->aggressive_snapshot();
  }
  laps::SchedTelemetry telemetry_sample() const override {
    return inner_->telemetry_sample();
  }

 private:
  std::unique_ptr<laps::Scheduler> inner_;
  Boundary& schedule_;
};

/// Arrival-stream decorator: times next().
class TimedStream final : public laps::ArrivalStream {
 public:
  TimedStream(laps::ArrivalStream& inner, Boundary& next)
      : inner_(inner), next_(next) {}

  std::optional<laps::GeneratedPacket> next() override {
    Span span(next_);
    return inner_.next();
  }
  std::size_t total_flows() const override { return inner_.total_flows(); }

 private:
  laps::ArrivalStream& inner_;
  Boundary& next_;
};

/// Trace-source decorator: times next(); metadata calls are forwarded so
/// load calibration sees through it.
class TimedTrace final : public laps::TraceSource {
 public:
  TimedTrace(std::shared_ptr<laps::TraceSource> inner, Boundary& next)
      : inner_(std::move(inner)), next_(next) {}

  std::optional<laps::PacketRecord> next() override {
    Span span(next_);
    return inner_->next();
  }
  void reset() override { inner_->reset(); }
  std::size_t flow_count_hint() const override {
    return inner_->flow_count_hint();
  }
  bool size_mix(std::vector<std::uint16_t>& sizes,
                std::vector<double>& weights) const override {
    return inner_->size_mix(sizes, weights);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<laps::TraceSource> inner_;
  Boundary& next_;
};

/// Dispatcher decorator: times pick() and on_sync(); forwards
/// wants_completions() so the fabric skips the completion list exactly when
/// the wrapped dispatcher would.
class TimedDispatcher final : public laps::Dispatcher {
 public:
  TimedDispatcher(std::unique_ptr<laps::Dispatcher> inner, Boundary& pick,
                  Boundary& sync)
      : inner_(std::move(inner)), pick_(pick), sync_(sync) {}

  void attach(std::size_t num_shards) override { inner_->attach(num_shards); }
  laps::ShardId pick(const laps::GeneratedPacket& pkt,
                     const laps::ClusterView& view) override {
    Span span(pick_);
    return inner_->pick(pkt, view);
  }
  void on_sync(const laps::ClusterView& view,
               std::span<const std::uint32_t> completed) override {
    Span span(sync_);
    inner_->on_sync(view, completed);
  }
  bool wants_completions() const override {
    return inner_->wants_completions();
  }
  std::string name() const override { return inner_->name(); }
  std::map<std::string, double> extra_stats() const override {
    return inner_->extra_stats();
  }

 private:
  std::unique_ptr<laps::Dispatcher> inner_;
  Boundary& pick_;
  Boundary& sync_;
};

}  // namespace perfbench
