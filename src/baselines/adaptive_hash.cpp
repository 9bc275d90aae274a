#include "baselines/adaptive_hash.h"

#include <algorithm>
#include <numeric>

namespace laps {

void AdaptiveHashScheduler::attach(std::size_t num_cores) {
  StaticHashScheduler::attach(num_cores);
  bucket_count_.assign(table_.size(), 0);
  seen_ = 0;
  bundle_moves_ = 0;
  rebalances_ = 0;
}

std::uint64_t AdaptiveHashScheduler::measured_core_load(CoreId core) const {
  std::uint64_t load = 0;
  for (std::size_t b = 0; b < table_.size(); ++b) {
    if (table_[b] == core) load += bucket_count_[b];
  }
  return load;
}

std::size_t AdaptiveHashScheduler::rebalance() {
  ++rebalances_;
  std::vector<std::uint64_t> core_load(num_cores_, 0);
  for (std::size_t b = 0; b < table_.size(); ++b) {
    core_load[table_[b]] += bucket_count_[b];
  }
  const std::uint64_t total =
      std::accumulate(core_load.begin(), core_load.end(), std::uint64_t{0});
  const double avg =
      static_cast<double>(total) / static_cast<double>(num_cores_);

  std::size_t moves = 0;
  while (moves < options_.max_moves_per_period) {
    const auto max_it = std::max_element(core_load.begin(), core_load.end());
    const auto min_it = std::min_element(core_load.begin(), core_load.end());
    if (static_cast<double>(*max_it) <= (1.0 + options_.slack) * avg) break;

    const CoreId hot = static_cast<CoreId>(max_it - core_load.begin());
    const CoreId cold = static_cast<CoreId>(min_it - core_load.begin());
    // Pick the hot core's largest bucket that still fits under the average
    // at the cold core — moving the biggest helpful chunk converges with
    // the fewest bundle disruptions.
    const std::uint64_t headroom =
        avg > static_cast<double>(*min_it)
            ? static_cast<std::uint64_t>(avg) - *min_it
            : 0;
    std::size_t best_bucket = table_.size();
    std::uint64_t best_size = 0;
    for (std::size_t b = 0; b < table_.size(); ++b) {
      if (table_[b] != hot) continue;
      if (bucket_count_[b] > best_size && bucket_count_[b] <= headroom) {
        best_size = bucket_count_[b];
        best_bucket = b;
      }
    }
    if (best_bucket == table_.size() || best_size == 0) break;  // stuck
    table_[best_bucket] = cold;
    *max_it -= best_size;
    *min_it += best_size;
    ++bundle_moves_;
    ++moves;
  }

  // Exponential decay: the measurement window tracks recent traffic.
  for (auto& count : bucket_count_) count /= 2;
  return moves;
}

CoreId AdaptiveHashScheduler::schedule(const SimPacket& pkt,
                                       const NpuView& view) {
  static_cast<void>(view);
  const std::size_t bucket = bucket_of(pkt);
  ++bucket_count_[bucket];
  if (++seen_ % options_.period == 0) rebalance();
  return table_[bucket];
}

CombinedAdaptiveScheduler::CombinedAdaptiveScheduler(CombinedOptions options)
    : AdaptiveHashScheduler(options.adaptive),
      combined_(options),
      afd_(options.afd),
      pins_(options.migration_table_capacity) {}

void CombinedAdaptiveScheduler::attach(std::size_t num_cores) {
  AdaptiveHashScheduler::attach(num_cores);
  afd_.reset();
  pins_.clear();
  aggressive_migrations_ = 0;
}

CoreId CombinedAdaptiveScheduler::schedule(const SimPacket& pkt,
                                           const NpuView& view) {
  const std::uint64_t key = pkt.flow_key();
  afd_.access(key);

  // Flow pins take priority over the (adaptive) hash path.
  if (const auto pin = pins_.lookup(key)) {
    // Keep the bundle counters honest: attribute the packet to its bucket
    // so the adaptive layer sees true bundle weights.
    ++bucket_count_[bucket_of(pkt)];
    if (++seen_ % options_.period == 0) rebalance();
    return *pin;
  }

  CoreId target = AdaptiveHashScheduler::schedule(pkt, view);
  if (view.cores()[target].queue_len >= combined_.high_thresh) {
    CoreId best = target;
    std::uint32_t best_load = view.load(target);
    for (std::size_t c = 0; c < num_cores_; ++c) {
      const std::uint32_t load = view.load(static_cast<CoreId>(c));
      if (load < best_load) {
        best_load = load;
        best = static_cast<CoreId>(c);
      }
    }
    if (best != target &&
        view.cores()[best].queue_len < combined_.high_thresh &&
        afd_.is_aggressive(key)) {
      pins_.add(key, best);
      afd_.invalidate(key);
      ++aggressive_migrations_;
      target = best;
    }
  }
  return target;
}

std::map<std::string, double> CombinedAdaptiveScheduler::extra_stats() const {
  auto stats = AdaptiveHashScheduler::extra_stats();
  stats["aggressive_migrations"] = static_cast<double>(aggressive_migrations_);
  stats["afd_promotions"] = static_cast<double>(afd_.stats().promotions);
  return stats;
}

}  // namespace laps
