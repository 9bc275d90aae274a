#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/time.h"

namespace laps::telemetry {

/// Opaque dense handles returned by registration. Instruments are addressed
/// by index, not name, so the hot path never hashes a string.
struct CounterId {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct GaugeId {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct HistogramId {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};

/// Exact aggregates plus bucket-bound quantiles of a merged Histogram.
/// count/sum/max are exact; p50/p90/p99 inherit Histogram::quantile's
/// bucket-upper-bound error (<= 1/32 relative, see util/histogram.h).
struct HistogramSummary {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
};

/// One point-in-time aggregation of a MetricsRegistry: every instrument in
/// registration order (pair values with the registry's *_names()). Plain
/// data, safe to move across threads.
struct MetricsSnapshot {
  TimeNs sim_time = 0;
  std::uint64_t seq = 0;  ///< monotone per registry, across both snapshot kinds
  std::vector<std::uint64_t> counters;
  std::vector<std::int64_t> gauges;
  std::vector<HistogramSummary> histograms;  ///< empty for counters-only snapshots
};

/// A registry of cheap, contention-free instruments: monotonic counters,
/// gauges, and log2 Histograms (the quantile instrument).
///
/// Concurrency model — sharded single-writer, relaxed-atomic publication:
///
///  * Registration (`counter()`/`gauge()`/`histogram()`) is mutex-guarded
///    and idempotent (re-registering a name returns the existing id). It is
///    frozen at the first `local_shard()` call; registering a new name
///    after that throws (shards are sized at creation and never resize, so
///    writers never reallocate under a concurrent snapshot).
///  * Each writing thread owns a private Shard obtained via
///    `local_shard()`. Counter/gauge cells are atomics written with a
///    relaxed load+store by their single owner — on x86 this compiles to a
///    plain cache-local memory add, not a `lock` RMW, which is what keeps
///    an instrument to ~1 cycle on the engine hot path.
///  * `snapshot_counters()` may run on any thread at any time: it only
///    does relaxed atomic loads and sums across shards. Values are
///    per-cell consistent but not a cross-cell atomic cut (fine for
///    monitoring; exact totals are read after writers quiesce).
///  * Histograms are deliberately *not* atomic (multi-word buckets); a full
///    `snapshot()` / `merged_histogram()` touches them and is only safe
///    when writers are quiesced or when caller and writer are the same
///    thread (the single-threaded sim loop). The TSan suite pins this
///    split: concurrent `snapshot_counters()` is race-free, full
///    aggregation is owner-only.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or looks up) an instrument by name. Thread-safe; throws
  /// std::logic_error for a *new* name once shards exist.
  CounterId counter(const std::string& name);
  GaugeId gauge(const std::string& name);
  HistogramId histogram(const std::string& name);

  /// Instrument names in id order. Stable once frozen; callers pairing
  /// these with snapshots should read them after their own registrations.
  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;

  /// One thread's private slice of every instrument.
  class Shard {
   public:
    void add(CounterId id, std::uint64_t n = 1) {
      bump(counters_[id.index], n);
    }
    void set(GaugeId id, std::int64_t v) {
      gauges_[id.index].store(v, std::memory_order_relaxed);
    }
    void record(HistogramId id, std::int64_t v) {
      histograms_[id.index].record(v);
    }

    /// Raw cell access for hook bodies that cannot afford the id->cell
    /// indexing per event: cache the pointer once, bump it forever.
    std::atomic<std::uint64_t>* counter_cell(CounterId id) {
      return &counters_[id.index];
    }
    std::atomic<std::int64_t>* gauge_cell(GaugeId id) {
      return &gauges_[id.index];
    }
    Histogram* histogram_cell(HistogramId id) { return &histograms_[id.index]; }

    /// Single-writer counter publication: relaxed load+store, not
    /// fetch_add. The cell has exactly one writer (this shard's owner), so
    /// the RMW needs no atomicity — only the store must be atomic so
    /// cross-thread snapshot loads are race-free.
    static void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n = 1) {
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    }

   private:
    friend class MetricsRegistry;
    Shard(std::size_t counters, std::size_t gauges, std::size_t histograms)
        : counters_(counters), gauges_(gauges), histograms_(histograms) {}
    std::vector<std::atomic<std::uint64_t>> counters_;
    std::vector<std::atomic<std::int64_t>> gauges_;
    std::vector<Histogram> histograms_;
  };

  /// Returns the calling thread's shard for this registry, creating it on
  /// first use (and freezing registration). The slot is generation-stamped,
  /// so a registry constructed at a reused address cannot serve another
  /// instance's stale shard. O(#registries this thread touched) lookup —
  /// hot paths cache the Shard& (or raw cells) instead of re-calling.
  Shard& local_shard();

  std::size_t num_shards() const;

  /// Counters + gauges only; safe concurrently with writers (relaxed loads).
  MetricsSnapshot snapshot_counters(TimeNs sim_time) const;

  /// Everything including histogram summaries. Requires writers quiesced
  /// (or a single-threaded writer == caller); see class comment.
  MetricsSnapshot snapshot(TimeNs sim_time) const;

  /// Merge of one histogram across all shards, with full buckets (for the
  /// Prometheus exposition). Same quiescence requirement as snapshot().
  Histogram merged_histogram(HistogramId id) const;

 private:
  std::uint32_t intern(std::vector<std::string>& names, const std::string& name,
                       const char* kind);
  void sum_atomics(MetricsSnapshot& snap,
                   const std::vector<Shard*>& shards) const;

  mutable std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool frozen_ = false;
  const std::uint64_t generation_;
  mutable std::atomic<std::uint64_t> next_seq_{0};
};

}  // namespace laps::telemetry
