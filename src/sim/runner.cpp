#include "sim/runner.h"

#include <optional>
#include <stdexcept>

#include "sim/fault.h"
#include "sim/probes.h"

namespace laps {

namespace {

/// Arrivals pulled per round. Each engine feeds a whole batch before the
/// next one starts, so its hot state is reloaded once per batch rather
/// than once per packet. On `fig7_scheduler_comparison --scenarios=T1,T5`
/// (medians of 9 runs, 4-CPU x86 host), batches of 1 and 16 ran 1.16x and
/// 1.04x slower than 256, and 4096 ran no faster.
constexpr std::size_t kBatch = 256;

PacketGenerator make_generator(const ScenarioConfig& config) {
  if (config.services.empty()) {
    throw std::invalid_argument("run_scenario: no services");
  }
  for (const ServiceTraffic& s : config.services) {
    if (!s.trace) throw std::invalid_argument("run_scenario: null trace");
    s.trace->reset();
  }
  return PacketGenerator(config.services, config.seed, config.seconds);
}

/// One cell's engine and the ReportProbe it reports through. Lanes are
/// built in place and never move: the engine holds the probe's address.
struct Lane {
  ReportProbe report;
  std::optional<SimEngine> engine;
};

}  // namespace

std::vector<CellOutcome> run_lockstep(const ScenarioConfig& config,
                                      std::span<const LockstepCell> cells) {
  PacketGenerator generator = make_generator(config);
  SimEngineConfig engine_config;
  engine_config.num_cores = config.num_cores;
  engine_config.queue_capacity = config.queue_capacity;
  engine_config.delay = config.delay;
  engine_config.restore_order = config.restore_order;

  std::optional<FaultTrafficStream> faulted;
  if (config.faults != nullptr && !config.faults->empty()) {
    engine_config.faults = config.faults.get();
    faulted.emplace(generator, *config.faults);
  }
  ArrivalStream& arrivals =
      faulted ? static_cast<ArrivalStream&>(*faulted) : generator;

  std::vector<CellOutcome> out(cells.size());
  std::vector<Lane> lanes(cells.size());
  std::vector<std::size_t> live;  // cells still running, in cell order
  for (std::size_t i = 0; i < cells.size(); ++i) {
    try {
      ProbeSet probes;
      probes.add(&lanes[i].report);
      for (SimProbe* p : cells[i].probes.probes()) probes.add(p);
      engine_config.epoch_ns = cells[i].epoch_ns;
      lanes[i].engine.emplace(engine_config, *cells[i].scheduler, probes);
      lanes[i].engine->begin_run(config.name, arrivals.total_flows());
      live.push_back(i);
    } catch (...) {
      out[i].error = std::current_exception();
    }
  }

  // A cell that throws drops out of `live`; its siblings keep going.
  auto step_all = [&](auto&& step) {
    std::erase_if(live, [&](std::size_t i) {
      try {
        step(*lanes[i].engine);
        return false;
      } catch (...) {
        out[i].error = std::current_exception();
        return true;
      }
    });
  };

  std::vector<GeneratedPacket> batch;
  batch.reserve(kBatch);
  while (!live.empty()) {
    batch.clear();
    while (batch.size() < kBatch) {
      std::optional<GeneratedPacket> arrival = arrivals.next();
      if (!arrival) break;
      batch.push_back(*arrival);
    }
    if (batch.empty()) break;
    step_all([&](SimEngine& engine) { engine.feed(batch); });
    if (batch.size() < kBatch) break;  // the stream has ended
  }
  step_all([](SimEngine& engine) { engine.finish_run(); });
  for (const std::size_t i : live) {
    out[i].report = lanes[i].report.take_report();
  }
  return out;
}

SimReport run_scenario(const ScenarioConfig& config, Scheduler& scheduler) {
  return run_scenario(config, scheduler, ProbeSet{});
}

SimReport run_scenario(const ScenarioConfig& config, Scheduler& scheduler,
                       const ProbeSet& extra_probes, TimeNs epoch_ns) {
  const LockstepCell cell{&scheduler, extra_probes, epoch_ns, "", ""};
  std::vector<CellOutcome> out = run_lockstep(config, {&cell, 1});
  if (out.front().error) std::rethrow_exception(out.front().error);
  return std::move(out.front().report);
}

}  // namespace laps
