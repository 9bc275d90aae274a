#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/packet_record.h"
#include "util/rng.h"
#include "util/samplers.h"

namespace laps {

/// Parameters of a synthetic header trace.
///
/// Substitute for the CAIDA / Auckland-II captures of paper Tables I-II,
/// which are not redistributable. The properties that drive every result in
/// the paper are modeled explicitly:
///  * heavy-tailed flow-size distribution (Fig. 2) — `zipf_alpha` over
///    `num_flows` ranks;
///  * number of concurrently active flows (CAIDA >> Auckland, which drives
///    the annex-size requirement in Fig. 8a) — `num_flows`;
///  * short-range burstiness of real captures — `burstiness`, the
///    probability that the next packet repeats the previous flow;
///  * packet-size mix (drives Eqs. 4-5 processing time) — `size_bytes` /
///    `size_weights`, defaulting to the classic trimodal internet mix.
struct SyntheticTraceSpec {
  std::string name = "synthetic";
  std::size_t num_flows = 100'000;
  double zipf_alpha = 1.1;
  double burstiness = 0.3;
  /// Flow churn: expected identity retirements per packet. Each retirement
  /// replaces one tail flow (rank >= churn_min_rank) with a brand-new
  /// 5-tuple in the same popularity slot, modeling the short-lived mice of
  /// real captures. Elephants (head ranks) stay long-lived, as they do in
  /// practice. Churn is what makes the annex size matter (paper Fig. 8a):
  /// without it a cumulative-LFU annex eventually protects every elephant
  /// regardless of size.
  double churn_per_packet = 0.0;
  std::size_t churn_min_rank = 64;
  /// Head non-stationarity: at any instant, roughly this fraction of the
  /// head ranks (rank < churn_min_rank) is *dormant* — its traffic share is
  /// redirected to active head flows, modeling elephants that burst and go
  /// quiet within a capture. This is what exercises the annex cache's
  /// victim/inertia role (paper Sec. III-F): a detector must *retain* a
  /// currently-quiet elephant to report the cumulative top-16 correctly.
  double head_dormant_fraction = 0.0;
  /// Per-packet probability of re-drawing one random head rank's
  /// active/dormant state (stationary fraction = head_dormant_fraction).
  double head_toggle_per_packet = 0.0;
  std::vector<std::uint16_t> size_bytes = {64, 128, 576, 1024, 1500};
  std::vector<double> size_weights = {0.40, 0.10, 0.15, 0.10, 0.25};
  std::uint64_t seed = 1;
};

/// Infinite synthetic header stream over a fixed flow population.
///
/// Flow rank r (0 = most popular) is drawn Zipf(alpha); each rank maps to a
/// unique 5-tuple constructed deterministically from (seed, rank), so two
/// generators with the same spec emit the same flows — and the scheduler's
/// CRC16 sees realistic, well-spread header bytes.
///
/// The Zipf table is immutable and shared: a copy of a trace that has not
/// been read is a fresh stream over the same table, costing no O(num_flows)
/// work (TraceStore hands out such copies).
class SyntheticTrace final : public TraceSource {
 public:
  explicit SyntheticTrace(SyntheticTraceSpec spec);

  std::optional<PacketRecord> next() override;
  void reset() override;
  /// Without churn the flow-id space is exactly the rank space. With churn
  /// retired identities receive fresh dense ids, so the population is
  /// unbounded and the hint is 0 (callers fall back to dynamic mapping).
  std::size_t flow_count_hint() const override {
    return spec_.churn_per_packet > 0.0 ? 0 : spec_.num_flows;
  }
  std::string name() const override { return spec_.name; }
  bool size_mix(std::vector<std::uint16_t>& sizes,
                std::vector<double>& weights) const override {
    sizes = spec_.size_bytes;
    weights = spec_.size_weights;
    return true;
  }

  const SyntheticTraceSpec& spec() const { return spec_; }
  /// The rank-popularity table, shared by every copy of this trace.
  const ZipfSampler& zipf() const { return *zipf_; }

  /// The 5-tuple currently assigned to a popularity *rank* (generation-
  /// aware when churn is enabled). Without churn, rank == flow_id, so tests
  /// can reconstruct ground truth without replaying the stream.
  FiveTuple tuple_of(std::uint32_t rank) const;

 private:
  SyntheticTraceSpec spec_;
  std::shared_ptr<const ZipfSampler> zipf_;
  DiscreteSampler sizes_;
  Rng rng_;
  std::uint32_t prev_flow_ = 0;
  bool has_prev_ = false;
  /// generation_[rank] bumps each time the rank's identity is retired;
  /// allocated at the first retirement, so a trace without churn, or one
  /// not yet read, holds none.
  std::vector<std::uint32_t> generation_;
  /// slot_id_[rank] = dense flow id of the rank's *current* identity. A
  /// retired identity's id is never reused, so per-flow state downstream
  /// (ordering, migration accounting) treats the newcomer as a new flow.
  std::vector<std::uint32_t> slot_id_;
  std::uint32_t next_id_ = 0;
  /// dormant_[rank] for head ranks; allocated only when head dormancy is on.
  std::vector<bool> dormant_;

  void init_phases();
  std::uint32_t redirect_if_dormant(std::uint32_t rank);
};

/// The named traces of paper Tables I-II ("caida1".."caida6",
/// "auck1".."auck8"), realized as calibrated synthetic specs. CAIDA-like
/// traces model an OC-192 backbone monitor (hundreds of thousands of
/// concurrently active flows, flatter Zipf head); Auckland-like traces model
/// a university uplink (tens of thousands of flows, steeper head). Throws
/// std::out_of_range for unknown names.
SyntheticTraceSpec trace_spec(const std::string& name);

/// All registry names, CAIDA first, in paper order.
std::vector<std::string> trace_registry_names();

/// Convenience: construct the named trace.
std::unique_ptr<SyntheticTrace> make_trace(const std::string& name);

}  // namespace laps
