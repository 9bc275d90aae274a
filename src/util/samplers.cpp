#include "util/samplers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace laps {

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfSampler: n must fit in 32 bits");
  }
  if (alpha <= 0) throw std::invalid_argument("ZipfSampler: alpha must be > 0");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += std::pow(static_cast<double>(k + 1), -alpha);
    cdf_[k] = acc;
  }
  const double norm = 1.0 / acc;
  for (auto& c : cdf_) c *= norm;
  cdf_.back() = 1.0;  // guard against accumulated rounding

  // G slices of [0, 1], the largest power of two <= n/16: a bracket spans
  // 16-32 ranks on average, and the table costs at most 1/32 of the CDF's
  // memory.
  const std::size_t slices = std::bit_floor(std::max<std::size_t>(n / 16, 1));
  guide_slices_ = static_cast<double>(slices);
  guide_.resize(slices + 1);
  std::size_t k = 0;
  for (std::size_t j = 0; j <= slices; ++j) {
    const double edge = static_cast<double>(j) / guide_slices_;  // exact
    while (cdf_[k] < edge) ++k;  // stops by k = n-1: cdf_.back() == 1
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

double ZipfSampler::pmf(std::size_t k) const {
  if (k >= cdf_.size()) return 0.0;
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

double sample_exponential(Rng& rng, double rate) {
  if (rate <= 0) throw std::invalid_argument("sample_exponential: rate <= 0");
  // 1 - uniform() is in (0, 1], so the log argument is never zero.
  return -std::log(1.0 - rng.uniform()) / rate;
}

double sample_bounded_pareto(Rng& rng, double shape, double lo, double hi) {
  if (!(shape > 0) || !(lo > 0) || !(hi > lo)) {
    throw std::invalid_argument("sample_bounded_pareto: bad parameters");
  }
  const double u = rng.uniform();
  const double la = std::pow(lo, shape);
  const double ha = std::pow(hi, shape);
  // Inverse CDF of the bounded Pareto distribution.
  const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / shape);
  return std::clamp(x, lo, hi);
}

double sample_gaussian(Rng& rng, double sigma) {
  const double u1 = 1.0 - rng.uniform();  // (0, 1], avoids log(0)
  const double u2 = rng.uniform();
  return sigma * std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  if (weights.empty()) {
    throw std::invalid_argument("DiscreteSampler: empty weights");
  }
  double sum = 0.0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument("DiscreteSampler: negative weight");
    sum += w;
  }
  if (sum <= 0) throw std::invalid_argument("DiscreteSampler: zero total");

  const std::size_t n = weights.size();
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Vose's alias method: partition scaled weights into under/over-full.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / sum;
  }
  std::vector<std::uint32_t> small, large;
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
  const std::size_t i = static_cast<std::size_t>(rng.below(prob_.size()));
  return rng.uniform() < prob_[i] ? i : alias_[i];
}

}  // namespace laps
