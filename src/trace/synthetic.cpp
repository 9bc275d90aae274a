#include "trace/synthetic.h"

#include <algorithm>
#include <stdexcept>

namespace laps {

SyntheticTrace::SyntheticTrace(SyntheticTraceSpec spec)
    : spec_(std::move(spec)),
      zipf_(std::make_shared<const ZipfSampler>(spec_.num_flows,
                                                spec_.zipf_alpha)),
      sizes_(spec_.size_weights),
      rng_(spec_.seed) {
  if (spec_.size_bytes.size() != spec_.size_weights.size()) {
    throw std::invalid_argument(
        "SyntheticTrace: size_bytes/size_weights length mismatch");
  }
  if (spec_.burstiness < 0.0 || spec_.burstiness >= 1.0) {
    throw std::invalid_argument("SyntheticTrace: burstiness must be in [0,1)");
  }
  if (spec_.churn_per_packet < 0.0 || spec_.churn_per_packet > 1.0) {
    throw std::invalid_argument("SyntheticTrace: churn must be in [0,1]");
  }
  if (spec_.churn_per_packet > 0.0 &&
      spec_.churn_min_rank >= spec_.num_flows) {
    throw std::invalid_argument(
        "SyntheticTrace: churn_min_rank must be below num_flows");
  }
  if (spec_.head_dormant_fraction < 0.0 || spec_.head_dormant_fraction > 0.9) {
    throw std::invalid_argument(
        "SyntheticTrace: head_dormant_fraction must be in [0, 0.9]");
  }
  init_phases();
}

void SyntheticTrace::init_phases() {
  if (spec_.head_dormant_fraction <= 0.0) return;
  const std::size_t head =
      std::min(spec_.churn_min_rank, spec_.num_flows);
  dormant_.assign(head, false);
  // Deterministic initial phases drawn from a seed-derived stream so
  // reset() restores them exactly.
  Rng phase_rng(mix64(spec_.seed ^ 0xD0837A57));
  for (std::size_t r = 0; r < head; ++r) {
    dormant_[r] = phase_rng.chance(spec_.head_dormant_fraction);
  }
}

std::uint32_t SyntheticTrace::redirect_if_dormant(std::uint32_t rank) {
  if (dormant_.empty() || rank >= dormant_.size() || !dormant_[rank]) {
    return rank;
  }
  // A dormant head rank's traffic goes to the next active head flow
  // (wrapping), so the aggregate head share is preserved while individual
  // elephants pulse on and off.
  for (std::size_t step = 1; step <= dormant_.size(); ++step) {
    const auto candidate =
        static_cast<std::uint32_t>((rank + step) % dormant_.size());
    if (!dormant_[candidate]) return candidate;
  }
  return rank;  // every head rank dormant (possible only at fraction ~1)
}

FiveTuple SyntheticTrace::tuple_of(std::uint32_t flow_id) const {
  // Deterministic unique tuple per (seed, rank, generation). The low 24
  // bits of the source address embed the rank, guaranteeing uniqueness
  // within a generation; everything else is mixed bits so CRC16 sees
  // realistic entropy.
  const std::uint64_t gen =
      generation_.empty() ? 0 : generation_[flow_id];
  const std::uint64_t h = mix64(spec_.seed * 0x9E3779B97F4A7C15ULL +
                                flow_id + (gen << 40));
  FiveTuple t;
  // Generation rotates the /8 so retired identities never collide.
  t.src_ip = ((0x0Au + static_cast<std::uint32_t>(gen & 0xFF)) << 24) |
             (flow_id & 0x00FFFFFFu);
  t.dst_ip = static_cast<std::uint32_t>(h >> 32) | 0x01u;     // never 0
  t.src_port = static_cast<std::uint16_t>(1024 + (h & 0xFFFF) % 64000);
  t.dst_port = static_cast<std::uint16_t>((h >> 16) & 0x1 ? 80 : 443);
  t.protocol = (h >> 17) & 0x7 ? 6 : 17;  // mostly TCP, some UDP
  return t;
}

std::optional<PacketRecord> SyntheticTrace::next() {
  if (spec_.churn_per_packet > 0.0 && rng_.chance(spec_.churn_per_packet)) {
    // Retire one tail identity: its slot keeps the rank's popularity but a
    // brand-new flow takes it over.
    if (generation_.empty()) {
      generation_.assign(spec_.num_flows, 0);
      slot_id_.resize(spec_.num_flows);
      for (std::uint32_t r = 0; r < spec_.num_flows; ++r) slot_id_[r] = r;
      next_id_ = static_cast<std::uint32_t>(spec_.num_flows);
    }
    const auto span = spec_.num_flows - spec_.churn_min_rank;
    const auto victim =
        spec_.churn_min_rank + static_cast<std::size_t>(rng_.below(span));
    ++generation_[victim];
    slot_id_[victim] = next_id_++;  // successor is a brand-new flow
  }
  if (!dormant_.empty() && rng_.chance(spec_.head_toggle_per_packet)) {
    // Re-draw one head rank's phase; stationary dormant fraction equals
    // head_dormant_fraction.
    const auto rank = static_cast<std::size_t>(rng_.below(dormant_.size()));
    dormant_[rank] = rng_.chance(spec_.head_dormant_fraction);
  }
  std::uint32_t flow;
  if (has_prev_ && rng_.chance(spec_.burstiness)) {
    flow = prev_flow_;
  } else {
    flow = redirect_if_dormant(
        static_cast<std::uint32_t>(zipf_->sample(rng_)));
  }
  prev_flow_ = flow;
  has_prev_ = true;

  PacketRecord rec;
  rec.flow_id = slot_id_.empty() ? flow : slot_id_[flow];
  rec.tuple = tuple_of(flow);
  rec.size_bytes = spec_.size_bytes[sizes_.sample(rng_)];
  return rec;
}

void SyntheticTrace::reset() {
  rng_.reseed(spec_.seed);
  has_prev_ = false;
  prev_flow_ = 0;
  generation_.clear();
  slot_id_.clear();
  init_phases();
}

namespace {

SyntheticTraceSpec caida_like(const std::string& name, std::uint64_t seed,
                              double alpha, std::size_t flows) {
  SyntheticTraceSpec spec;
  spec.name = name;
  spec.num_flows = flows;
  spec.zipf_alpha = alpha;
  spec.burstiness = 0.30;
  // Backbone link: heavy short-lived-mice churn and strongly pulsing
  // elephants — the regime where Fig. 8a needs a 1024-entry annex.
  spec.churn_per_packet = 0.10;
  spec.churn_min_rank = 64;
  spec.head_dormant_fraction = 0.05;
  spec.head_toggle_per_packet = 0.0005;
  spec.seed = seed;
  return spec;
}

SyntheticTraceSpec auck_like(const std::string& name, std::uint64_t seed,
                             double alpha, std::size_t flows) {
  SyntheticTraceSpec spec;
  spec.name = name;
  spec.num_flows = flows;
  spec.zipf_alpha = alpha;
  spec.burstiness = 0.25;
  // University uplink: mild churn, steadier elephants than a backbone.
  spec.churn_per_packet = 0.02;
  spec.churn_min_rank = 64;
  spec.head_dormant_fraction = 0.0;
  spec.head_toggle_per_packet = 0.0001;
  // University uplink in 2000: smaller packets on average than a 2011
  // backbone link.
  spec.size_bytes = {64, 128, 576, 1024, 1500};
  spec.size_weights = {0.50, 0.15, 0.15, 0.08, 0.12};
  spec.seed = seed;
  return spec;
}

}  // namespace

SyntheticTraceSpec trace_spec(const std::string& name) {
  // CAIDA equinix-sanjose (OC-192 backbone, 2011): very large concurrently
  // active flow population, flat Zipf head — many near-equal elephants, the
  // regime where Fig. 8a shows a 512-entry annex is not quite enough.
  if (name == "caida1") return caida_like(name, 101, 1.02, 300'000);
  if (name == "caida2") return caida_like(name, 102, 1.00, 320'000);
  if (name == "caida3") return caida_like(name, 103, 1.05, 260'000);
  if (name == "caida4") return caida_like(name, 104, 1.06, 240'000);
  if (name == "caida5") return caida_like(name, 105, 1.04, 280'000);
  if (name == "caida6") return caida_like(name, 106, 1.03, 290'000);
  // Auckland-II (university uplink, 2000): far fewer active flows, steeper
  // head — the top-16 stand out clearly, so a 512-entry annex identifies
  // them perfectly in Fig. 8a.
  if (name == "auck1") return auck_like(name, 201, 1.30, 30'000);
  if (name == "auck2") return auck_like(name, 202, 1.35, 26'000);
  if (name == "auck3") return auck_like(name, 203, 1.28, 34'000);
  if (name == "auck4") return auck_like(name, 204, 1.32, 28'000);
  if (name == "auck5") return auck_like(name, 205, 1.27, 36'000);
  if (name == "auck6") return auck_like(name, 206, 1.33, 24'000);
  if (name == "auck7") return auck_like(name, 207, 1.29, 32'000);
  if (name == "auck8") return auck_like(name, 208, 1.31, 30'000);
  throw std::out_of_range("trace_spec: unknown trace '" + name + "'");
}

std::vector<std::string> trace_registry_names() {
  return {"caida1", "caida2", "caida3", "caida4", "caida5", "caida6",
          "auck1",  "auck2",  "auck3",  "auck4",  "auck5",  "auck6",
          "auck7",  "auck8"};
}

std::unique_ptr<SyntheticTrace> make_trace(const std::string& name) {
  return std::make_unique<SyntheticTrace>(trace_spec(name));
}

}  // namespace laps
