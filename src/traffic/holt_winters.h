#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace laps {

/// Parameters of the per-service traffic-rate model, paper Eq. 1:
///
///   x_i(t) = a + b*t + C*S(t % m) + n(sigma)
///
/// with `a` the baseline rate (Mpps), `b` the linear trend (Mpps/s), `C` the
/// magnitude of the seasonal component `S` with period `m` seconds, and
/// n(sigma) Gaussian noise. This is the Holt-Winters-style decomposition the
/// paper takes from Brutlag (LISA'00).
struct HoltWintersParams {
  double a = 1.0;      ///< baseline, Mpps
  double b = 0.0;      ///< trend, Mpps per second
  double c = 0.0;      ///< seasonal magnitude, Mpps
  double m = 60.0;     ///< seasonal period, seconds
  double sigma = 0.0;  ///< noise standard deviation, Mpps
};

/// The two parameter sets of paper Table IV (rates in Mpps, periods in
/// seconds). Set 1 = under-load, Set 2 = overload for a 16-core system.
/// Index: [service 0..3] = S1..S4. The paper's `b` entries "025"/"02" are
/// read as 0.025/0.02 (see DESIGN.md interpretation notes).
std::vector<HoltWintersParams> table4_params(int set);

/// Deterministic evaluation of Eq. 1.
///
/// The seasonal shape S is a unit sine (the paper does not specify S; any
/// smooth periodic shape exercises the same scheduler behaviour). The noise
/// term is piecewise-constant over `noise_interval` seconds and derived
/// purely from (seed, interval index), so x(t) is a *pure function* of t —
/// two components evaluating the same curve always agree, and replays are
/// exact.
class HoltWintersRate {
 public:
  HoltWintersRate(HoltWintersParams params, std::uint64_t seed,
                  double noise_interval = 0.1);

  /// The noise term of the last interval a caller evaluated. A caller that
  /// evaluates the curve at many nearby times (the generator's thinning
  /// loop) keeps one next to its curve, so the Gaussian is drawn once per
  /// noise interval instead of once per evaluation.
  struct NoiseMemo {
    std::uint64_t interval = 0;
    double noise = 0.0;
    bool valid = false;
  };

  /// Rate at time t (seconds), clamped below at `floor_mpps`. Mpps.
  double rate_mpps(double t) const {
    NoiseMemo fresh;
    return rate_mpps(t, fresh);
  }

  /// rate_mpps(t), reading the noise term through `memo`: equal to the
  /// memo-less value for any t, in any order, because the noise is a pure
  /// function of the interval index the memo is keyed on.
  double rate_mpps(double t, NoiseMemo& memo) const;

  /// Rate without the noise term — used for capacity calibration.
  double mean_rate_mpps(double t) const;

  /// Supremum of rate over [0, horizon] (mean + 4 sigma); an upper bound
  /// usable by Poisson thinning.
  double rate_bound_mpps(double horizon) const;

  const HoltWintersParams& params() const { return params_; }

  /// Minimum emitted rate (default 0.01 Mpps) so the arrival process never
  /// stalls completely.
  static constexpr double floor_mpps = 0.01;

 private:
  HoltWintersParams params_;
  std::uint64_t seed_;
  double noise_interval_;
};

}  // namespace laps
