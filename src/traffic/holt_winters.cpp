#include "traffic/holt_winters.h"

#include <cmath>
#include <stdexcept>

#include "util/samplers.h"

namespace laps {
namespace {

// accepts()'s relative band margin: far above the few units of 2^-53 of
// rounding it must cover, far below the band's width when C != 0.
constexpr double kSqueezeMargin = 1e-9;

}  // namespace

std::vector<HoltWintersParams> table4_params(int set) {
  // Paper Table IV. {a, b, C, m, sigma}; rates Mpps, periods seconds.
  if (set == 1) {
    return {
        {1.0, 0.030, 0.30, 40.0, 0.10},   // S1
        {1.8, 0.025, 0.10, 25.0, 0.05},   // S2 ("025" read as 0.025)
        {0.5, 0.010, 0.07, 60.0, 0.25},   // S3
        {0.3, 0.005, 0.09, 600.0, 0.30},  // S4
    };
  }
  if (set == 2) {
    return {
        {1.5, 0.002, 0.30, 100.0, 0.30},  // S1
        {1.3, 0.020, 0.15, 25.0, 0.05},   // S2 ("02" read as 0.02)
        {1.0, 0.004, 0.25, 30.0, 0.25},   // S3
        {0.7, 0.010, 0.18, 200.0, 0.30},  // S4
    };
  }
  throw std::invalid_argument("table4_params: set must be 1 or 2");
}

HoltWintersRate::HoltWintersRate(HoltWintersParams params, std::uint64_t seed,
                                 double noise_interval)
    : params_(params), seed_(seed), noise_interval_(noise_interval) {
  if (noise_interval <= 0) {
    throw std::invalid_argument("HoltWintersRate: noise_interval <= 0");
  }
  if (params_.m <= 0) {
    throw std::invalid_argument("HoltWintersRate: seasonal period <= 0");
  }
}

double HoltWintersRate::mean_rate_mpps(double t) const {
  // fmod is exact and returns t itself on [0, m), so skip it there.
  const double in_period =
      t >= 0 && t < params_.m ? t : std::fmod(t, params_.m);
  const double phase = in_period / params_.m;
  const double season = std::sin(2.0 * 3.14159265358979323846 * phase);
  return clamp_floor(params_.a + params_.b * t + params_.c * season);
}

double HoltWintersRate::noise_mpps(double t, NoiseMemo& memo) const {
  if (params_.sigma <= 0) return 0.0;
  const auto interval = static_cast<std::uint64_t>(t / noise_interval_);
  if (!memo.valid || memo.interval != interval) {
    Rng rng(mix64(seed_ ^ mix64(interval + 1)));
    memo = {interval, sample_gaussian(rng, params_.sigma), true};
  }
  return memo.noise;
}

double HoltWintersRate::rate_mpps(double t, NoiseMemo& memo) const {
  return clamp_floor(mean_rate_mpps(t) + noise_mpps(t, memo));
}

bool HoltWintersRate::accepts(double t, double u, double bound_mpps,
                              NoiseMemo& memo) const {
  const double noise = noise_mpps(t, memo);
  // The same sum mean_rate_mpps forms, with C*S at its extremes.
  const double trend = params_.a + params_.b * t;
  const double c = std::abs(params_.c);
  const double lo = clamp_floor(clamp_floor(trend - c) + noise);
  const double hi = clamp_floor(clamp_floor(trend + c) + noise);
  const double scaled = u * bound_mpps;
  if (scaled < lo * (1.0 - kSqueezeMargin)) return true;
  if (scaled > hi * (1.0 + kSqueezeMargin)) return false;
  return u < clamp_floor(mean_rate_mpps(t) + noise) / bound_mpps;
}

double HoltWintersRate::rate_bound_mpps(double horizon) const {
  const double trend_peak =
      params_.a + (params_.b > 0 ? params_.b * horizon : 0.0);
  return trend_peak + std::abs(params_.c) + 4.0 * params_.sigma + floor_mpps;
}

}  // namespace laps
