// Reproduces Sec. III-G "Timing Analysis of LAPS": the scheduler's critical
// path is Hash -> Map Table -> Mux, and must sustain >= 100 Mpps (the paper
// argues >= 200 Mpps for an FPGA CRC16). Here google-benchmark measures the
// software model of each stage and the full decision path; one packet per
// iteration, so `items_per_second` reads directly in packets/s.
//
// Also benchmarks the AFD (off the critical path), traffic generation, the
// DES substrate, and end-to-end simulation throughput, documenting the
// harness's own capacity.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "baselines/afs.h"
#include "baselines/fcfs.h"
#include "cache/afd.h"
#include "core/laps.h"
#include "core/map_table.h"
#include "exp/trace_store.h"
#include "sim/event_heap.h"
#include "sim/scenarios.h"
#include "trace/synthetic.h"
#include "util/crc.h"
#include "util/samplers.h"
#include "util/toeplitz.h"

namespace laps {
namespace {

std::vector<SimPacket> make_packets(std::size_t n, std::uint64_t seed) {
  SyntheticTraceSpec spec;
  spec.num_flows = 100'000;
  spec.seed = seed;
  SyntheticTrace trace(spec);
  std::vector<SimPacket> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto rec = trace.next();
    SimPacket pkt;
    pkt.tuple = rec->tuple;
    pkt.gflow = rec->flow_id;
    pkt.size_bytes = rec->size_bytes;
    pkt.service = static_cast<ServicePath>(rec->flow_id % kNumServices);
    out.push_back(pkt);
  }
  return out;
}

class IdleView final : public NpuView {
 public:
  explicit IdleView(std::size_t n) : cores_(n) {
    for (auto& c : cores_) c.idle_since = -1;  // never trigger idle logic
  }
  TimeNs now() const override { return 0; }
  std::span<const CoreView> cores() const override {
    return {cores_.data(), cores_.size()};
  }
  std::uint32_t queue_capacity() const override { return 32; }

 private:
  std::vector<CoreView> cores_;
};

// Stage 1 of the critical path: CRC16 over the 13-byte 5-tuple.
void BM_Crc16FiveTuple(benchmark::State& state) {
  const auto packets = make_packets(4096, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(packets[i].tuple.crc16());
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Crc16FiveTuple);

// The NIC front end's hash of the same tuple: Toeplitz over the 12-byte
// RSS input (the `rss` and `fdir` cluster dispatchers' pick).
void BM_ToeplitzFiveTuple(benchmark::State& state) {
  const auto packets = make_packets(4096, 1);
  const ToeplitzHash hash;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.hash(packets[i].tuple));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ToeplitzFiveTuple);

// Traffic generation, off the critical path but most of an online grid
// cell's host time. One Zipf rank draw over caida1's shape (300k ranks,
// alpha 1.02): the guided inverse-CDF search every synthetic header pays.
void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf(300'000, 1.02);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

// One PacketGenerator::next() of the paper's T1 mix (four Holt-Winters
// services over churned caida/auck traces, 250 ms at seed 2013), reading
// headers from a TraceStore as grid cells do: thinning, the noise term,
// the service merge and the global flow id. The store is filled before the
// loop, so trace synthesis is not timed.
void BM_GeneratorNext(benchmark::State& state) {
  ScenarioOptions options;
  options.seconds = 0.25;
  options.seed = 2013;
  auto store = std::make_shared<TraceStore>();
  options.trace_factory = store->factory();
  const ScenarioConfig config = make_paper_scenario("T1", options);
  auto fresh = [&config] {
    for (const ServiceTraffic& s : config.services) s.trace->reset();
    return std::make_unique<PacketGenerator>(config.services, config.seed,
                                             config.seconds);
  };
  auto generator = fresh();
  while (generator->next()) {
  }
  generator = fresh();
  for (auto _ : state) {
    auto pkt = generator->next();
    if (!pkt) {
      state.PauseTiming();
      generator = fresh();
      state.ResumeTiming();
      pkt = generator->next();
    }
    benchmark::DoNotOptimize(pkt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeneratorNext);

// Stage 2: map-table (incremental hashing) bucket lookup.
void BM_MapTableLookup(benchmark::State& state) {
  std::vector<CoreId> cores;
  for (CoreId c = 0; c < 11; ++c) cores.push_back(c);  // non-power-of-two b
  MapTable table(cores);
  std::uint16_t h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.core_for(h++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapTableLookup);

// The full LAPS decision path per packet (hash + map + migration-table
// lookup + AFD access + imbalance checks), on an idle 16-core system.
void BM_LapsDecision(benchmark::State& state) {
  LapsConfig cfg;
  cfg.num_services = 4;
  LapsScheduler laps(cfg);
  laps.attach(16);
  IdleView view(16);
  const auto packets = make_packets(8192, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(laps.schedule(packets[i], view));
    i = (i + 1) & 8191;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LapsDecision);

// Baseline decision paths for comparison.
void BM_AfsDecision(benchmark::State& state) {
  AfsScheduler afs;
  afs.attach(16);
  IdleView view(16);
  const auto packets = make_packets(8192, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(afs.schedule(packets[i], view));
    i = (i + 1) & 8191;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AfsDecision);

void BM_FcfsDecision(benchmark::State& state) {
  FcfsScheduler fcfs;
  fcfs.attach(16);
  IdleView view(16);
  const auto packets = make_packets(8192, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fcfs.schedule(packets[i], view));
    i = (i + 1) & 8191;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FcfsDecision);

// AFD access (background path) across annex sizes — Fig. 8a's sweep axis.
void BM_AfdAccess(benchmark::State& state) {
  AfdConfig cfg;
  cfg.annex_entries = static_cast<std::size_t>(state.range(0));
  Afd afd(cfg);
  const auto packets = make_packets(8192, 5);
  std::size_t i = 0;
  for (auto _ : state) {
    afd.access(packets[i].flow_key());
    i = (i + 1) & 8191;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AfdAccess)->Arg(64)->Arg(512)->Arg(1024);

// DES substrate: the engine's completion queue. Pop-modify-push cycle at
// the simulator's steady-state occupancy (one pending completion per busy
// core, 17 events). The Arg is the reschedule horizon in ticks: 150 is the
// engine's regime (service latencies a couple hundred ns out); 10000 is a
// coarse-timer workload's spread.
void BM_EventHeapPushPop(benchmark::State& state) {
  struct Ev {
    TimeNs time;
  };
  const auto horizon = static_cast<std::uint64_t>(state.range(0));
  EventHeap<Ev> queue;
  Rng rng(6);
  for (int i = 0; i < 17; ++i) {
    queue.push(Ev{static_cast<TimeNs>(rng.below(horizon))});
  }
  for (auto _ : state) {
    Ev e = queue.pop();
    e.time += static_cast<TimeNs>(rng.below(horizon));
    queue.push(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventHeapPushPop)->Arg(150)->Arg(10'000);

// End-to-end simulator throughput in simulated packets per wall second.
void BM_FullSimulation(benchmark::State& state) {
  ScenarioOptions options;
  options.seconds = 0.01;
  options.seed = 7;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    const auto cfg = make_paper_scenario("T1", options);
    LapsConfig laps_cfg;
    laps_cfg.num_services = 4;
    LapsScheduler sched(laps_cfg);
    const auto report = run_scenario(cfg, sched);
    packets += report.offered;
    benchmark::DoNotOptimize(report.delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_FullSimulation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace laps

// Like BENCHMARK_MAIN(), but unrecognized arguments (e.g. a typo'd
// --benchmark_filter) exit nonzero instead of being silently ignored.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
