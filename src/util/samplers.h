#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace laps {

/// Samples ranks 1..n from a Zipf(alpha) distribution:
/// P(rank = k) proportional to 1 / k^alpha.
///
/// Internet flow-size distributions are well modeled as Zipfian ("the war
/// between mice and elephants", Guo & Matta 2001); the paper's Fig. 2 shows
/// exactly this rank/size behaviour for the CAIDA and Auckland traces. The
/// sampler precomputes the CDF once (O(n) memory) and inverts it per draw
/// by a binary search that a guide table over G equal slices of [0, 1]
/// narrows to a few ranks, so that draws are cheap during trace generation.
class ZipfSampler {
 public:
  /// `n` ranks, skew `alpha` > 0. Larger alpha = heavier head.
  ZipfSampler(std::size_t n, double alpha);

  /// Draws a rank in [0, n). Rank 0 is the most popular item.
  std::size_t sample(Rng& rng) const { return rank(rng.uniform()); }

  /// The rank a uniform value `u` in [0, 1) maps to: the first k with
  /// cdf()[k] >= u, exactly what std::lower_bound over the whole CDF
  /// returns. With j = floor(u*G), j/G <= u < (j+1)/G, and both u*G and j/G
  /// are exact because G is a power of two, so the answer lies in
  /// [guide_[j], guide_[j+1]]: the search runs over [guide_[j],
  /// guide_[j+1]) and ends at guide_[j+1] when nothing before it reaches u.
  std::size_t rank(double u) const {
    const auto j = static_cast<std::size_t>(u * guide_slices_);
    const auto first = cdf_.begin() + guide_[j];
    const auto last = cdf_.begin() + guide_[j + 1];
    return static_cast<std::size_t>(std::lower_bound(first, last, u) -
                                    cdf_.begin());
  }

  /// Probability mass of rank `k` (0-based).
  double pmf(std::size_t k) const;

  std::size_t size() const { return cdf_.size(); }
  double alpha() const { return alpha_; }
  /// cdf()[k] = P(rank <= k); the last entry is exactly 1.
  const std::vector<double>& cdf() const { return cdf_; }
  /// G, the number of guide slices.
  std::size_t guide_slices() const { return guide_.size() - 1; }

 private:
  std::vector<double> cdf_;
  // guide_[j] = first rank whose CDF reaches j/G, for j = 0..G; G is the
  // largest power of two <= max(n/16, 1).
  std::vector<std::uint32_t> guide_;
  double guide_slices_ = 1.0;         // G as a double
  double alpha_;
};

/// Exponential inter-arrival sampler: mean 1/rate.
/// Returns +inf-free positive doubles; rate must be > 0.
double sample_exponential(Rng& rng, double rate);

/// Bounded Pareto sampler over [lo, hi] with tail index `shape`.
/// Used for flow duration and burst length modeling.
double sample_bounded_pareto(Rng& rng, double shape, double lo, double hi);

/// Normal(0, sigma) via Box-Muller (single value; simple and allocation
/// free). Used for the Holt-Winters noise term n(sigma) of paper Eq. 1.
double sample_gaussian(Rng& rng, double sigma);

/// Weighted discrete sampler over a fixed set of outcomes (alias method,
/// O(1) per draw). Used for the empirical packet-size mix.
class DiscreteSampler {
 public:
  /// `weights` need not be normalized; must be non-empty, all >= 0, sum > 0.
  explicit DiscreteSampler(const std::vector<double>& weights);

  /// Draws an index in [0, weights.size()).
  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;        // alias-method acceptance probability
  std::vector<std::uint32_t> alias_;
};

}  // namespace laps
