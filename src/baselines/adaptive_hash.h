#pragma once

#include <cstdint>
#include <vector>

#include "baselines/static_hash.h"
#include "cache/afd.h"
#include "core/laps.h"
#include "core/migration_table.h"

namespace laps {

/// Adaptive hashing — Shi & Kencl's sequence-preserving adaptive load
/// balancer (ANCS'06, the paper's reference [36]/[22]): the bucket-to-core
/// mapping is re-weighted periodically from *measured* per-bucket load, so
/// persistent bundle skew is corrected without per-flow state. Bundle moves
/// preserve order within each flow (a flow changes core only when its whole
/// bundle moves).
///
/// Every `period` packets: compute per-core load from bucket counters; while
/// the most loaded core exceeds (1 + slack) * average, move its
/// lightest-that-helps bucket to the least loaded core, up to
/// `max_moves_per_period`. Counters then decay by half so the measurement
/// tracks the recent window.
class AdaptiveHashScheduler : public StaticHashScheduler {
 public:
  struct Options {
    std::uint64_t period = 8'192;         ///< packets between rebalances
    double slack = 0.15;                   ///< tolerated overload fraction
    std::size_t max_moves_per_period = 4;  ///< bundle moves per rebalance
    std::size_t num_buckets = 0;           ///< 0 = StaticHash default
  };

  AdaptiveHashScheduler() : AdaptiveHashScheduler(Options{}) {}
  explicit AdaptiveHashScheduler(Options options)
      : StaticHashScheduler(options.num_buckets), options_(options) {}

  void attach(std::size_t num_cores) override;
  CoreId schedule(const SimPacket& pkt, const NpuView& view) override;
  std::string name() const override { return "AdaptiveHash"; }

  std::map<std::string, double> extra_stats() const override {
    return {{"bundle_moves", static_cast<double>(bundle_moves_)},
            {"rebalances", static_cast<double>(rebalances_)}};
  }

  /// Measured load currently attributed to a core (sum of its buckets'
  /// counters); for tests.
  std::uint64_t measured_core_load(CoreId core) const;

 protected:
  /// One rebalance pass; returns the number of bundle moves performed.
  std::size_t rebalance();

  Options options_;
  std::vector<std::uint64_t> bucket_count_;  // packets per bucket (window)
  std::uint64_t seen_ = 0;
  std::uint64_t bundle_moves_ = 0;
  std::uint64_t rebalances_ = 0;
};

/// Combined scheme — Shi & Kencl's adaptive hashing *plus* migration of
/// aggressive bundles/flows (the paper's [36], called out in Sec. VI as
/// "complementary to LAPS"): adaptive bundle re-weighting handles the slow
/// skew, while AFD-identified elephants are pinned to the least-loaded core
/// on acute imbalance, exactly like LAPS's migration path but without
/// service partitioning or dynamic core allocation.
class CombinedAdaptiveScheduler final : public AdaptiveHashScheduler {
 public:
  struct CombinedOptions {
    Options adaptive;
    /// AFD tuned like the integrated LAPS detector (AFC-min guard on).
    AfdConfig afd = LapsConfig::make_default_afd();
    std::uint32_t high_thresh = 24;
    std::size_t migration_table_capacity = 1024;
  };

  CombinedAdaptiveScheduler() : CombinedAdaptiveScheduler(CombinedOptions{}) {}
  explicit CombinedAdaptiveScheduler(CombinedOptions options);

  void attach(std::size_t num_cores) override;
  CoreId schedule(const SimPacket& pkt, const NpuView& view) override;
  std::string name() const override { return "Adaptive+AFD"; }

  std::map<std::string, double> extra_stats() const override;

  /// Live AFC contents for accuracy probes (a read-only lookup that never
  /// perturbs the detector).
  std::vector<std::uint64_t> aggressive_snapshot() const override {
    return afd_.aggressive_flows();
  }

 private:
  CombinedOptions combined_;
  Afd afd_;
  MigrationTable pins_;
  std::uint64_t aggressive_migrations_ = 0;
};

}  // namespace laps
