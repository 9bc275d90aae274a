#include "traffic/generator.h"

#include <algorithm>
#include <stdexcept>

#include "trace/synthetic.h"
#include "util/samplers.h"

namespace laps {

PacketGenerator::PacketGenerator(std::vector<ServiceTraffic> services,
                                 std::uint64_t seed, double horizon_seconds)
    : horizon_s_(horizon_seconds) {
  if (services.empty()) {
    throw std::invalid_argument("PacketGenerator: no services");
  }
  if (horizon_seconds <= 0) {
    throw std::invalid_argument("PacketGenerator: horizon <= 0");
  }
  Rng seeder(seed);
  std::uint32_t offset = 0;
  services_.reserve(services.size());
  for (std::size_t i = 0; i < services.size(); ++i) {
    ServiceTraffic& traffic = services[i];
    if (!traffic.trace) {
      throw std::invalid_argument("PacketGenerator: service without trace");
    }
    const HoltWintersParams rate = traffic.rate;
    PerService s{
        std::move(traffic),
        HoltWintersRate(rate, mix64(seed + 17 * i + 1)),
        /*noise=*/{},
        seeder.stream(i),
        /*next_time_s=*/0.0,
        /*bound_mpps=*/0.0,
        /*gflow_offset=*/0,
        /*exhausted=*/false,
        /*has_hint=*/false,
        /*dynamic_ids=*/{},
    };
    s.bound_mpps = s.curve.rate_bound_mpps(horizon_seconds);
    s.gflow_offset = offset;
    const std::size_t hint = s.traffic.trace->flow_count_hint();
    s.has_hint = hint > 0;
    offset += static_cast<std::uint32_t>(hint);
    services_.push_back(std::move(s));
    advance(services_.back());
  }
  total_flows_ = offset;
  dynamic_next_ = offset;
}

void PacketGenerator::advance(PerService& s) {
  // Poisson thinning against the constant envelope bound_mpps. Rates are in
  // Mpps; time bookkeeping in seconds (double), converted to ns on emit.
  const double rate_bound_pps = s.bound_mpps * 1e6;
  double t = s.next_time_s;
  while (true) {
    t += sample_exponential(s.rng, rate_bound_pps);
    if (t > horizon_s_) {
      s.exhausted = true;
      s.next_time_s = t;
      return;
    }
    // The curve draws nothing from s.rng, so taking u before deciding
    // keeps the draw order of `uniform() < rate / bound`.
    const double u = s.rng.uniform();
    if (s.curve.accepts(t, u, s.bound_mpps, s.noise)) {
      s.next_time_s = t;
      return;
    }
  }
}

std::uint32_t PacketGenerator::global_flow(PerService& s,
                                           std::uint32_t local_id) {
  if (s.has_hint) {
    return s.gflow_offset + local_id;
  }
  if (local_id >= s.dynamic_ids.size()) {
    s.dynamic_ids.resize(std::size_t{local_id} + 1);
  }
  std::uint32_t& id = s.dynamic_ids[local_id];
  if (id == 0) {  // first appearance: next id of the shared pool
    id = ++dynamic_next_;
    ++total_flows_;
  }
  return id - 1;
}

ReplayStream ReplayStream::record(ArrivalStream& source) {
  auto chunks = std::make_shared<std::vector<Chunk>>();
  std::size_t size = 0;
  while (auto pkt = source.next()) {
    if (size % kChunkPackets == 0) {
      chunks->emplace_back().reserve(kChunkPackets);
    }
    chunks->back().push_back(*pkt);
    ++size;
  }
  ReplayStream replay;
  replay.chunks_ = std::move(chunks);
  replay.size_ = size;
  replay.total_flows_ = source.total_flows();
  return replay;
}

bool ReplayStream::enter_next_chunk() {
  if (next_chunk_ == chunks_->size()) return false;
  const Chunk& chunk = (*chunks_)[next_chunk_++];
  pos_ = chunk.data();
  end_ = pos_ + chunk.size();  // never empty
  return true;
}

std::optional<GeneratedPacket> PacketGenerator::next() {
  PerService* best = nullptr;
  for (PerService& s : services_) {
    if (s.exhausted) continue;
    if (!best || s.next_time_s < best->next_time_s) best = &s;
  }
  if (!best) return std::nullopt;

  auto rec = best->traffic.trace->next();
  if (!rec) {  // finite trace: wrap around
    best->traffic.trace->reset();
    rec = best->traffic.trace->next();
    if (!rec) throw std::runtime_error("PacketGenerator: empty trace");
  }

  GeneratedPacket out;
  out.time = from_seconds(best->next_time_s);
  out.service = best->traffic.path;
  out.record = *rec;
  out.gflow = global_flow(*best, rec->flow_id);
  advance(*best);
  return out;
}

namespace {

/// Packet-size mix of a service's trace; synthetic traces expose theirs,
/// anything else gets the default internet mix.
void size_mix_of(const TraceSource* trace, std::vector<std::uint16_t>& sizes,
                 std::vector<double>& weights) {
  if (trace != nullptr && trace->size_mix(sizes, weights)) return;
  sizes = SyntheticTraceSpec{}.size_bytes;
  weights = SyntheticTraceSpec{}.size_weights;
}

}  // namespace

double mean_offered_load(const std::vector<ServiceTraffic>& services,
                         const DelayModel& delay, std::size_t num_cores,
                         double horizon_seconds) {
  if (num_cores == 0 || horizon_seconds <= 0) {
    throw std::invalid_argument("mean_offered_load: bad arguments");
  }
  // Trapezoid integration of the noise-free rate curves; 1000 steps is
  // far finer than any Table IV seasonal period over a 60 s horizon.
  constexpr int kSteps = 1000;
  double total_core_seconds = 0.0;
  for (const ServiceTraffic& s : services) {
    std::vector<std::uint16_t> sizes;
    std::vector<double> weights;
    size_mix_of(s.trace.get(), sizes, weights);
    const double t_mean_us = delay.mean_proc_time_us(s.path, sizes, weights);
    const HoltWintersRate curve(s.rate, /*seed=*/0);
    double integral = 0.0;  // Mpps * s
    const double dt = horizon_seconds / kSteps;
    for (int i = 0; i < kSteps; ++i) {
      const double t0 = i * dt;
      const double t1 = t0 + dt;
      integral +=
          0.5 * (curve.mean_rate_mpps(t0) + curve.mean_rate_mpps(t1)) * dt;
    }
    // Mpps * s * us/packet = 1e6 pkt * us = seconds of core time.
    total_core_seconds += integral * t_mean_us;
  }
  return total_core_seconds /
         (static_cast<double>(num_cores) * horizon_seconds);
}

std::vector<ServiceTraffic> scale_to_load(std::vector<ServiceTraffic> services,
                                          const DelayModel& delay,
                                          std::size_t num_cores,
                                          double horizon_seconds,
                                          double target_load) {
  const double load =
      mean_offered_load(services, delay, num_cores, horizon_seconds);
  if (load <= 0) throw std::logic_error("scale_to_load: zero offered load");
  const double k = target_load / load;
  for (ServiceTraffic& s : services) {
    s.rate.a *= k;
    s.rate.b *= k;
    s.rate.c *= k;
    s.rate.sigma *= k;
  }
  return services;
}

}  // namespace laps
