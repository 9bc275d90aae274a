#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/flow.h"

namespace laps {

/// One packet header drawn from a trace: the information the paper's
/// scheduler hardware sees (5-tuple + length). Timing is *not* part of the
/// record — per the paper's methodology (Sec. IV-C1), headers come from the
/// trace while arrival times come from the Holt-Winters traffic model.
struct PacketRecord {
  FiveTuple tuple;
  /// Dense per-trace flow index (0-based, assigned in order of first
  /// appearance). Lets the simulator keep per-flow state in flat arrays.
  std::uint32_t flow_id = 0;
  /// IP datagram length in bytes; drives the size-dependent processing
  /// times of paper Eqs. 4-5.
  std::uint16_t size_bytes = 64;
};

/// A replayable stream of packet headers. Implementations: synthetic traces
/// (SyntheticTrace), real captures (PcapTrace), and in-memory vectors for
/// tests. Streams are infinite for synthetic sources and finite for files;
/// the packet generator wraps finite sources around.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Next header, or nullopt at end-of-trace (synthetic sources never end).
  virtual std::optional<PacketRecord> next() = 0;

  /// Rewinds to the beginning (synthetic sources also reset their RNG, so a
  /// reset stream replays identically).
  virtual void reset() = 0;

  /// Upper bound on the number of distinct flow_ids this source can emit,
  /// used to size per-flow arrays. 0 = unknown.
  virtual std::size_t flow_count_hint() const { return 0; }

  /// Packet-size mix of this source (for offered-load calibration against
  /// Eqs. 4-5 processing times). Returns false when the source does not
  /// know its mix; callers fall back to the default trimodal internet mix.
  /// Wrapper sources (e.g. a test's counting or timing wrapper) forward
  /// this so calibration sees through them.
  virtual bool size_mix(std::vector<std::uint16_t>& sizes,
                        std::vector<double>& weights) const {
    (void)sizes;
    (void)weights;
    return false;
  }

  /// Trace name for reports ("caida1", "auck3", a pcap path, ...).
  virtual std::string name() const = 0;
};

}  // namespace laps
