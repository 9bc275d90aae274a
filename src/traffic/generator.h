#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "trace/packet_record.h"
#include "traffic/holt_winters.h"
#include "traffic/workload.h"
#include "util/rng.h"
#include "util/time.h"

namespace laps {

/// One packet emitted by the generator: arrival time, owning service, the
/// trace header, and a *global* dense flow id (unique across services) the
/// simulator uses to index per-flow state.
struct GeneratedPacket {
  TimeNs time = 0;
  ServicePath service = ServicePath::kIpForward;
  PacketRecord record;
  std::uint32_t gflow = 0;
  /// Cluster-global per-flow sequence, stamped by the cluster dispatcher on
  /// its shard-bound copy (src/cluster) — the generator and single-engine
  /// paths leave it 0. Rides the packet like NIC RX metadata so per-shard
  /// engines need no shared numbering state.
  std::uint32_t cluster_seq = 0;
};

/// Traffic description for one service: its rate curve and header trace.
struct ServiceTraffic {
  ServicePath path = ServicePath::kIpForward;
  HoltWintersParams rate;
  std::shared_ptr<TraceSource> trace;
};

/// Multi-service packet generator, paper Fig. 6 "Packet Generator":
/// per-service arrival times follow a non-homogeneous Poisson process whose
/// intensity is the Holt-Winters curve of Eq. 1 (sampled by thinning), and
/// each arrival's header is the next record of that service's trace —
/// "the use of real network traces ensures that realistic flow scenarios
/// are created" (Sec. IV-C1). Finite traces wrap around.
/// What the simulation kernels consume: a time-ordered arrival sequence.
/// PacketGenerator produces it online; ReplayStream serves a pre-recorded
/// one (generation cost paid once, e.g. for kernel microbenchmarks or for
/// running several schedulers over byte-identical traffic).
class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;

  /// Next packet in nondecreasing time order, or nullopt at end of stream.
  virtual std::optional<GeneratedPacket> next() = 0;

  /// Total distinct global flow ids the stream can emit (for pre-sizing
  /// per-flow arrays); 0 = unknown.
  virtual std::size_t total_flows() const = 0;
};

///
/// Packets are emitted in nondecreasing global time order. Deterministic
/// for a fixed (services, seed) pair.
class PacketGenerator final : public ArrivalStream {
 public:
  /// `horizon_seconds` bounds generation (packets after the horizon are not
  /// produced) and is also used to bound the thinning envelope.
  PacketGenerator(std::vector<ServiceTraffic> services, std::uint64_t seed,
                  double horizon_seconds);

  /// Next packet across all services, or nullopt once every service has
  /// passed the horizon.
  std::optional<GeneratedPacket> next() override;

  /// Total distinct global flow ids this generator can emit (for sizing
  /// per-flow arrays). Exact when every trace reports a hint.
  std::size_t total_flows() const override { return total_flows_; }

  /// Number of services.
  std::size_t num_services() const { return services_.size(); }

 private:
  struct PerService {
    ServiceTraffic traffic;
    HoltWintersRate curve;
    // The curve's noise term for the interval the thinning loop is in.
    HoltWintersRate::NoiseMemo noise;
    Rng rng;
    double next_time_s = 0.0;   // tentative next arrival (seconds)
    double bound_mpps = 0.0;    // thinning envelope
    std::uint32_t gflow_offset = 0;
    bool exhausted = false;
    // Cached trace->flow_count_hint() > 0: global_flow runs per packet and
    // must not pay a virtual call to re-learn a static property.
    bool has_hint = false;
    // For traces without a flow-count hint: gflow + 1 of each local flow
    // id seen so far, indexed by the trace's dense local id (0 = not seen
    // yet). A deque grows in fixed-size blocks, so growing never copies
    // the table or holds two copies of it.
    std::deque<std::uint32_t> dynamic_ids;
  };

  void advance(PerService& s);
  std::uint32_t global_flow(PerService& s, std::uint32_t local_id);

  std::vector<PerService> services_;
  double horizon_s_;
  std::size_t total_flows_ = 0;
  std::uint32_t dynamic_next_ = 0;  // shared id pool for hint-less traces
};

/// A pre-materialized arrival sequence. `record` drains a generator into
/// fixed-size chunks of kChunkPackets packets, appended as the source
/// drains, so recording never copies a stored packet and never holds two
/// copies of the stream; `rewind` makes the same traffic replayable any
/// number of times. Kernel microbenchmarks use this to time the simulator
/// without the (dominant) cost of online generation in the loop.
///
/// The recorded chunks are immutable and shared: `fork()` returns an
/// independent cursor over the same packets, so several consumers (e.g.
/// grid cells timing different configurations, or differential runs that
/// must see byte-identical traffic) each get the full deterministic
/// sequence without re-recording or double-consuming one stream.
class ReplayStream final : public ArrivalStream {
 public:
  /// Packets per chunk; every chunk but the last is full.
  static constexpr std::size_t kChunkPackets = 4096;

  /// Drains `source` to exhaustion.
  static ReplayStream record(ArrivalStream& source);

  std::optional<GeneratedPacket> next() override {
    if (pos_ == end_ && !enter_next_chunk()) return std::nullopt;
    return *pos_++;
  }
  std::size_t total_flows() const override { return total_flows_; }

  void rewind() {
    next_chunk_ = 0;
    pos_ = end_ = nullptr;
  }
  std::size_t size() const { return size_; }

  /// Independent cursor at position 0 over the same recorded chunks.
  /// Cheap (shared_ptr copy); the forked stream's consumption does not
  /// affect this one and vice versa.
  ReplayStream fork() const {
    ReplayStream copy(*this);
    copy.rewind();
    return copy;
  }

 private:
  using Chunk = std::vector<GeneratedPacket>;

  // Points the cursor at the next chunk; false past the last one.
  bool enter_next_chunk();

  std::shared_ptr<const std::vector<Chunk>> chunks_ =
      std::make_shared<std::vector<Chunk>>();
  std::size_t size_ = 0;
  std::size_t total_flows_ = 0;
  // The cursor: [pos_, end_) is what is left of chunk next_chunk_ - 1.
  std::size_t next_chunk_ = 0;
  const GeneratedPacket* pos_ = nullptr;
  const GeneratedPacket* end_ = nullptr;
};

/// Computes the mean offered load of `services` relative to the ideal
/// capacity of `num_cores` cores over [0, horizon]:
///
///   load = (1/horizon) * Integral sum_i x_i(t) * E[T_proc,i] dt / cores
///
/// using each trace's packet-size mix for E[T_proc,i] (`fallback mix` for
/// traces that do not expose one). A value of 1.0 means the system is
/// exactly at its ideal capacity — the boundary between the paper's
/// "under-load" (Set 1) and "overload" (Set 2) regimes.
double mean_offered_load(const std::vector<ServiceTraffic>& services,
                         const DelayModel& delay, std::size_t num_cores,
                         double horizon_seconds);

/// Returns a copy of `services` with every rate curve scaled by a constant
/// factor so that mean_offered_load(...) == target_load. Used by the
/// Fig. 7 harness to pin Set 1 / Set 2 at calibrated under/over-load points
/// regardless of trace packet-size mixes (see DESIGN.md substitutions).
std::vector<ServiceTraffic> scale_to_load(std::vector<ServiceTraffic> services,
                                          const DelayModel& delay,
                                          std::size_t num_cores,
                                          double horizon_seconds,
                                          double target_load);

}  // namespace laps
