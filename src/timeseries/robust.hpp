#ifndef SOFIA_TIMESERIES_ROBUST_H_
#define SOFIA_TIMESERIES_ROBUST_H_

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

/// \file robust.hpp
/// \brief Robust-statistics kernels of Section III-D.
///
/// The Huber Ψ-function caps standardized residuals at ±k; the biweight
/// ρ-function bounds the influence of residuals on the error-scale update.
/// The paper (and Gelper et al.) use k = 2 and ck = 2.52.
///
/// Header-inline: SOFIA's fused step kernel (CooSofiaStep) evaluates
/// Eqs. (7), (8) and (21) once per observed entry, and its dense test
/// oracle calls the same definitions.

namespace sofia {

/// Default cap for the Huber Ψ-function (paper Section III-D).
inline constexpr double kHuberK = 2.0;
/// Default plateau constant for the biweight ρ-function.
inline constexpr double kBiweightCk = 2.52;

/// Huber Ψ: identity inside [-k, k], clipped to ±k outside. Written as a
/// clamp, which compiles to min/max instead of a data-dependent branch.
inline double HuberPsi(double x, double k = kHuberK) {
  return std::min(std::max(x, -k), k);
}

/// Tukey biweight ρ: ck * (1 - (1 - (x/k)^2)^3) inside [-k, k], ck outside.
/// Outside, 1 - (x/k)^2 < 0 puts the polynomial above ck, so ρ is the
/// polynomial capped at ck: a min, not a data-dependent branch. x/k is
/// formed as x * (1/k), exact for the default k = 2, so a loop over entries
/// with one k pays no divide here.
inline double BiweightRho(double x, double k = kHuberK,
                          double ck = kBiweightCk) {
  const double t = x * (1.0 / k);
  const double u = 1.0 - t * t;
  return std::min(ck * (1.0 - u * u * u), ck);
}

/// Gelper pre-cleaning rule (Eq. (7)): replace observation `y` by a cleaned
/// value given the one-step-ahead forecast and the current error scale.
inline double CleanObservation(double y, double forecast, double sigma,
                               double k = kHuberK) {
  SOFIA_DCHECK(sigma > 0.0);
  return HuberPsi((y - forecast) / sigma, k) * sigma + forecast;
}

/// Error-scale recursion (Eq. (8)) from the standardized residual
/// (y - forecast) / sigma_prev, for callers that already formed it.
inline double UpdateErrorScaleStandardized(double standardized,
                                           double sigma_prev, double phi,
                                           double k = kHuberK,
                                           double ck = kBiweightCk) {
  const double var = phi * BiweightRho(standardized, k, ck) * sigma_prev *
                         sigma_prev +
                     (1.0 - phi) * sigma_prev * sigma_prev;
  return std::sqrt(var);
}

/// Error-scale recursion (Eq. (8)): returns the updated sigma_t given the
/// residual `y - forecast`, the previous scale, and smoothing phi.
inline double UpdateErrorScale(double y, double forecast, double sigma_prev,
                               double phi, double k = kHuberK,
                               double ck = kBiweightCk) {
  SOFIA_DCHECK(sigma_prev > 0.0);
  return UpdateErrorScaleStandardized((y - forecast) / sigma_prev,
                                      sigma_prev, phi, k, ck);
}

}  // namespace sofia

#endif  // SOFIA_TIMESERIES_ROBUST_H_
