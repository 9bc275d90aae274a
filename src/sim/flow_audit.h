#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "sim/probe.h"

namespace laps {

/// Run-level attribution metrics derived from the per-flow rows — the
/// paper's headline claim ("reordering is confined to the handful of
/// migrated aggressive flows") as numbers a dashboard can alert on.
struct FlowAuditSummary {
  std::uint64_t flows = 0;            ///< distinct flows observed
  std::uint64_t migrated_flows = 0;   ///< flows with >= 1 migration
  std::uint64_t ooo_flows = 0;        ///< flows with >= 1 OOO departure
  std::uint64_t ooo_total = 0;        ///< all OOO departures
  /// OOO departures of flows that migrated at least once / ooo_total.
  /// LAPS should keep this near 1.0 with few migrated flows; a hash
  /// scheduler reorders nothing, a naive balancer reorders everywhere.
  double ooo_migrated_share = 0.0;
  /// OOO departures absorbed by the top_k flows ranked by migration count
  /// / ooo_total — the single-number form of Fig. 9b/c: if the k = AFC-size
  /// most-migrated flows absorb ~all reordering, migration is surgical.
  double ooo_topk_migrated_share = 0.0;
  /// Packets of the top_k flows ranked by packet count / total packets
  /// (heavy-hitter concentration, the premise the AFD relies on).
  double topk_packet_share = 0.0;
  std::size_t top_k = 16;             ///< the k used for both shares
};

/// Exact per-flow accounting of a simulation run: packets, drops,
/// migrations, OOO departures, penalty charges, and a compact latency
/// histogram per flow, plus derived attribution metrics. Emits a
/// laps-bench-v1 artifact whose `flow_audit` table holds the top flows and
/// whose `flow_audit_summary` table holds the attribution numbers.
///
/// There is one row per engine flow: rows are keyed by the dense flow
/// index the engine hands every hook (SimPacket::gflow) and carry the
/// flow's 64-bit 5-tuple key (FiveTuple::key64), so artifact rows are
/// directly comparable with AFC contents, migration-table pins, and
/// offline trace analysis. Totals across all rows sum exactly to the
/// ReportProbe aggregates of the same run (asserted by the golden-grid
/// audit test), and every row equals a per-flow reference updated in the
/// hooks themselves, so the rows are a decomposition of the run report,
/// not a parallel approximation.
///
/// Hot-path design: probe hooks only append fixed 16-byte records to a flat
/// preallocated log (one raw store and one pointer compare per event, no
/// random access), so the simulation loop pays nanoseconds per event
/// regardless of flow population. Arrivals are not logged at all: the
/// engine follows every arrival with exactly one drop or dispatch, so those
/// two records carry the per-flow packet count for free. The log is folded
/// into the rows by the first accessor after the run (artifact-write time),
/// or mid-run once kMaxPending events are buffered, so memory stays
/// O(flows + kMaxPending) for arbitrarily long simulations.
class FlowAuditProbe final : public SimProbe {
 public:
  /// Compact per-flow latency histogram: power-of-two buckets of the
  /// ingress->departure latency. Bucket 0 holds latencies below 512 ns
  /// (under the minimum service time, only possible for tiny delay models);
  /// bucket b >= 1 holds [2^(b+8), 2^(b+9)) ns; the last bucket is
  /// open-ended (~69 s and beyond never happens in practice).
  static constexpr std::size_t kLatencyBuckets = 28;
  static constexpr int kLatencyShift = 9;  ///< bucket 0 upper bound: 2^9 ns

  /// One flow's row. The counters live in the first 64 bytes (one cache
  /// line: every folded event touches exactly that line), the latency
  /// histogram in the lines after it (touched once per departure). Narrow
  /// u32 lanes for the rare counters keep the counter section in one line;
  /// 4G drops/migrations per *single flow* is beyond any simulated run, and
  /// run-level sums are accumulated in u64.
  struct alignas(64) Entry {
    std::uint64_t key = 0;            ///< 5-tuple flow key
    std::uint64_t packets = 0;        ///< arrivals presented to the scheduler
    std::uint64_t delivered = 0;      ///< completed processing
    std::int64_t latency_sum = 0;     ///< exact sum over delivered packets
    std::int64_t latency_max = 0;     ///< exact max
    std::uint32_t dropped = 0;        ///< lost to full input queues
    std::uint32_t migrations = 0;     ///< dispatches to a different core
    std::uint32_t out_of_order = 0;   ///< OOO departures charged to this flow
    std::uint32_t fm_penalties = 0;   ///< Eq. 3 FM_penalty charges
    std::uint32_t cold_cache = 0;     ///< Eq. 3 CC_penalty charges
    std::array<std::uint32_t, kLatencyBuckets> latency_log2{};
  };

  struct Options {
    /// k for the attribution shares (default: the paper's AFC size).
    std::size_t top_k = 16;
    /// Per-flow rows emitted in the artifact, ranked by packet count
    /// (descending; ties by key). 0 = all flows. The artifact always
    /// records how many flows the run had, so capping is explicit, never
    /// silent.
    std::size_t max_rows = 256;
  };

  /// Events buffered before a mid-run fold into the rows (32 MiB of log).
  /// Sized so runs up to ~2M probe events — including the perf_kernel
  /// default of 0.02 simulated seconds — never fold inside the simulation
  /// loop: the fold then happens once, at artifact-write time, where its
  /// memory-latency cost belongs. Longer runs amortize periodic folds.
  static constexpr std::size_t kMaxPending = std::size_t{1} << 21;

  FlowAuditProbe();  ///< default Options
  explicit FlowAuditProbe(Options options);

  void on_run_begin(const RunInfo& info) override;
  void on_drop(TimeNs now, const SimPacket& pkt, CoreId core) override;
  void on_dispatch(TimeNs now, const SimPacket& pkt, CoreId core,
                   bool migrated) override;
  void on_service_start(TimeNs now, const SimPacket& pkt, CoreId core,
                        TimeNs delay, bool fm_penalty,
                        bool cold_cache) override;
  void on_departure(TimeNs now, const SimPacket& pkt, CoreId core,
                    std::uint32_t new_ooo) override;

  /// One row per flow, in the order the run first saw each flow (folds any
  /// pending events first).
  const std::vector<Entry>& rows() const {
    flush_pending();
    return rows_;
  }

  /// Rows sorted by (packets desc, key asc) — the artifact row order,
  /// deterministic for identical runs.
  std::vector<Entry> sorted_entries() const;

  /// Attribution metrics over every row (never row-capped).
  FlowAuditSummary summary() const;

  /// Full laps-bench-v1 document (tables `flow_audit` +
  /// `flow_audit_summary`).
  std::string to_json() const;
  /// Writes to_json() to `path`. Throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

  /// Which latency bucket `latency_ns` falls into.
  static std::size_t latency_bucket(std::int64_t latency_ns);
  /// Exclusive upper bound of latency bucket `b` in ns (int64 max for the
  /// open-ended last bucket).
  static std::int64_t latency_bucket_bound(std::size_t b);

 private:
  enum : std::uint32_t {
    kEvDispatch = 0,
    kEvDrop = 1,
    kEvPenalty = 2,
    kEvDeparture = 3,
  };

  /// One logged probe event: 16 bytes, append-only. `tag` packs the event
  /// type in the low 3 bits and the payload (dispatch migrated flag,
  /// penalty fm|cold flags, or departure new_ooo) in the rest. `a` is the
  /// flow key for dispatch-class events and the ingress->departure latency
  /// for departures — a departure never needs the key, because the flow's
  /// dispatch necessarily precedes it in the log and opens its row.
  struct alignas(16) Pending {
    std::uint64_t a;
    std::uint32_t gflow;
    std::uint32_t tag;
  };
  static_assert(sizeof(Pending) == 16, "Pending must stay a packed 16 bytes");

  /// The whole hot path: one 16-byte store plus one pointer compare. The
  /// log is preallocated (uninitialized — pages fault in as used), so there
  /// is no capacity bookkeeping per event the way a vector push would pay.
  /// On x86 the store is non-temporal: the log is written once and read
  /// once much later, so letting it through the cache would cost a
  /// read-for-ownership per line AND evict the simulation's working set —
  /// write-combining avoids both. flush_pending() fences before reading.
  void push(std::uint64_t a, std::uint32_t gflow, std::uint32_t tag) {
#if defined(__SSE2__)
    const __m128i v = _mm_set_epi64x(
        static_cast<long long>((static_cast<std::uint64_t>(tag) << 32) |
                               gflow),
        static_cast<long long>(a));
    _mm_stream_si128(reinterpret_cast<__m128i*>(cursor_), v);
    ++cursor_;
#else
    *cursor_++ = Pending{a, gflow, tag};
#endif
    if (cursor_ == log_end_) flush_pending();
  }

  /// Folds the pending log into the rows. Idempotent; const because every
  /// read accessor triggers it (the log and the rows are mutable caches of
  /// the same information).
  void flush_pending() const;

  Options options_;
  RunInfo info_;
  mutable std::vector<Entry> rows_;
  /// gflow -> index into rows_ + 1 (0 = the flow has no row yet).
  mutable std::vector<std::uint32_t> row_of_;
  /// Fixed event log of kMaxPending records; cursor_ is the next write.
  mutable std::unique_ptr<Pending[]> log_;
  mutable Pending* cursor_ = nullptr;
  Pending* log_end_ = nullptr;
};

}  // namespace laps
