#include "core/sofia_als.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <optional>

#include "linalg/solve.hpp"
#include "linalg/vector_ops.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/check.hpp"

namespace sofia {

namespace {

/// ||Ω ⊛ (Y* - X̂)||_F² read from the temporal row systems of the sweep that
/// produced X̂ (the idiom of SPLATT's kruskal_calc_fit, which reads the fit
/// from an MTTKRP it already computed). Every record of slice t
/// reconstructs as x̂ = u_t^T h, so the squared residual is
/// ||y*||² - 2 Σ_t c_t^T u_t + Σ_t u_t^T B_t u_t: O(T R²) instead of a pass
/// over Ω. `sys` holds the raw B_t / c_t, before the ridge and smoothness
/// terms; t ascends.
///
/// That difference cancels ||y*||² against the fit, and also much larger
/// terms when CP components cancel each other, so its rounding error is up
/// to about sqrt(|Ω|) ulps of ||y*||² + Σ_t (Σ_r |u_tr| sqrt(B_t,rr))²
/// (measured: under a quarter of that on non-degenerate windows). It moves
/// the fitness 1 - r / ||y*|| by that error / (2 r ||y*||). Returns nothing
/// when the move could exceed `slack`: a near-exact or degenerate fit,
/// whose residual the caller counts with a pass over Ω instead.
std::optional<double> FactoredResidualSquared(const RowSystems& sys,
                                              const Matrix& ut,
                                              double data_sq, size_t nnz,
                                              double slack) {
  const size_t rank = ut.cols();
  double cross = 0.0;
  double quad = 0.0;
  double scale = data_sq;
  for (size_t t = 0; t < ut.rows(); ++t) {
    const double* u = ut.Row(t);
    const Matrix& b = sys.b[t];
    double magnitude = 0.0;
    for (size_t r = 0; r < rank; ++r) {
      cross += sys.c[t][r] * u[r];
      double bu = 0.0;
      for (size_t q = 0; q < rank; ++q) bu += b(r, q) * u[q];
      quad += u[r] * bu;
      magnitude += std::fabs(u[r]) * std::sqrt(b(r, r));
    }
    scale += magnitude * magnitude;
  }
  const double residual_sq = data_sq - 2.0 * cross + quad;
  const double error =
      std::sqrt(static_cast<double>(nnz)) * DBL_EPSILON * scale;
  if (!(residual_sq > 0.0) ||
      error > 2.0 * slack * std::sqrt(residual_sq) * std::sqrt(data_sq)) {
    return std::nullopt;
  }
  return residual_sq;
}

}  // namespace

double SoftThreshold(double x, double threshold) {
  const double mag = std::fabs(x) - threshold;
  if (mag <= 0.0) return 0.0;
  return x >= 0.0 ? mag : -mag;
}

SofiaAlsResult SofiaAls(const CooList& coo, const DenseTensor& y,
                        const DenseTensor& o, const SofiaConfig& config,
                        std::vector<Matrix>* factors, bool smooth_temporal,
                        WorkerPool* pool) {
  SOFIA_CHECK(y.shape() == coo.shape());
  SOFIA_CHECK(y.shape() == o.shape());
  SOFIA_CHECK_EQ(factors->size(), y.order());
  // Gather y* = y - o once: the CooList structure and these values are
  // shared by all N modes of every sweep (Lemma 1's O(|Ω| N R (N+R))).
  const std::vector<double> ystar = coo.GatherResidual(y, o);
  double data_sq = 0.0;
  for (double v : ystar) data_sq += v * v;
  const double data_norm = std::sqrt(data_sq);  // CooDataNorm(ystar).

  const size_t num_modes = factors->size();
  const size_t temporal = num_modes - 1;
  const size_t rank = (*factors)[0].cols();
  const size_t duration = (*factors)[temporal].rows();
  const double lambda1 = smooth_temporal ? config.lambda1 : 0.0;
  const double lambda2 = smooth_temporal ? config.lambda2 : 0.0;
  const long period = static_cast<long>(config.period);

  double fitness = 0.0;
  bool have_fitness = false;
  // How far rounding may move a fitness read from the row systems: the
  // 1e-10 it is tested to, and a hundredth of the tolerance, so rounding
  // never decides the convergence test.
  const double fit_slack = config.tolerance > 0.0
                               ? std::min(1e-10, 0.01 * config.tolerance)
                               : 1e-10;

  auto all_finite = [&]() {
    // 1e100 as "sane" bound: entries beyond it would overflow the h·h^T
    // accumulation of the next sweep even though they are still finite.
    for (const Matrix& f : *factors) {
      for (size_t k = 0; k < f.size(); ++k) {
        if (!std::isfinite(f.data()[k]) || std::fabs(f.data()[k]) > 1e100) {
          return false;
        }
      }
    }
    return true;
  };

  // True if the accumulated normal equations of a row are numerically sane.
  auto system_finite = [](const Matrix& b, const std::vector<double>& c) {
    for (size_t k = 0; k < b.size(); ++k) {
      if (!std::isfinite(b.data()[k])) return false;
    }
    for (double v : c) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  };

  // Scale-aware Tikhonov ridge (see SofiaConfig::factor_ridge): shifts a
  // row system by factor_ridge * tr(B)/R, damping degenerate directions
  // without distorting well-conditioned solves by more than ~factor_ridge.
  auto apply_ridge = [&](Matrix* b) {
    if (config.factor_ridge <= 0.0) return;
    double trace = 0.0;
    for (size_t r = 0; r < rank; ++r) trace += (*b)(r, r);
    const double shift = config.factor_ridge * trace / static_cast<double>(rank);
    for (size_t r = 0; r < rank; ++r) (*b)(r, r) += shift;
  };

  SofiaAlsResult result;
  std::vector<Matrix> last_finite = *factors;
  for (int sweep = 0; sweep < config.max_als_iterations && !result.diverged;
       ++sweep) {
    result.sweeps = sweep + 1;
    // --- Non-temporal modes: exact row minimizers (Theorem 1). ---
    for (size_t n = 0; n < temporal && !result.diverged; ++n) {
      RowSystems sys = CooRowSystems(coo, ystar, *factors, n, pool);
      Matrix& u = (*factors)[n];
      for (size_t i = 0; i < u.rows(); ++i) {
        if (!system_finite(sys.b[i], sys.c[i])) {
          result.diverged = true;
          break;
        }
        apply_ridge(&sys.b[i]);
        std::vector<double> row = SolveRidge(sys.b[i], sys.c[i]);
        u.SetRow(i, row);
      }
      if (result.diverged) break;
      // Fold the new column norms into the temporal factor and normalize
      // (Algorithm 2 lines 7-9). Zero columns are left untouched.
      Matrix& ut = (*factors)[temporal];
      for (size_t r = 0; r < rank; ++r) {
        const double norm = u.ColNorm(r);
        if (norm <= 0.0) continue;
        for (size_t t = 0; t < ut.rows(); ++t) ut(t, r) *= norm;
        for (size_t i = 0; i < u.rows(); ++i) u(i, r) /= norm;
      }
    }

    // --- Temporal mode: smoothness-coupled row solves (Eq. (17)). ---
    // The raw systems outlive the solves: the fitness test reads them.
    RowSystems sys;
    if (!result.diverged) {
      sys = CooRowSystems(coo, ystar, *factors, temporal, pool);
      Matrix& ut = (*factors)[temporal];
      for (size_t i = 0; i < duration; ++i) {
        if (!system_finite(sys.b[i], sys.c[i])) {
          result.diverged = true;
          break;
        }
        Matrix b = sys.b[i];
        std::vector<double> c = sys.c[i];
        apply_ridge(&b);
        const long ii = static_cast<long>(i);
        double diag = 0.0;
        // λ1-coupling with in-range +-1 neighbours; λ2 with +-m. Rows are
        // solved in order, so earlier neighbours already hold new values
        // (Gauss-Seidel), matching the paper's row-by-row schedule.
        for (long j : {ii - 1, ii + 1}) {
          if (j < 0 || j >= static_cast<long>(duration)) continue;
          diag += lambda1;
          const double* nrow = ut.Row(static_cast<size_t>(j));
          for (size_t r = 0; r < rank; ++r) c[r] += lambda1 * nrow[r];
        }
        for (long j : {ii - period, ii + period}) {
          if (j < 0 || j >= static_cast<long>(duration)) continue;
          diag += lambda2;
          const double* nrow = ut.Row(static_cast<size_t>(j));
          for (size_t r = 0; r < rank; ++r) c[r] += lambda2 * nrow[r];
        }
        for (size_t r = 0; r < rank; ++r) b(r, r) += diag;
        std::vector<double> row = SolveRidge(b, c);
        ut.SetRow(i, row);
      }
    }

    // Divergence guard: under heavy corruption the unregularized fit can
    // blow past double range within a few sweeps (the paper's Fig. 2(b)
    // phenomenon). Roll back to the last finite state and stop.
    if (result.diverged || !all_finite()) {
      *factors = std::move(last_finite);
      result.diverged = true;
      break;
    }
    last_finite = *factors;

    // --- Fitness-based convergence test (Algorithm 2 lines 13-15). ---
    const std::optional<double> factored = FactoredResidualSquared(
        sys, (*factors)[temporal], data_sq, coo.nnz(), fit_slack);
    const double residual = std::sqrt(
        factored ? *factored
                 : CooResidualSquaredNorm(coo, ystar, *factors, pool));
    const double new_fitness =
        data_norm > 0.0 ? 1.0 - residual / data_norm : 1.0;
    if (have_fitness &&
        std::fabs(new_fitness - fitness) < config.tolerance) {
      fitness = new_fitness;
      break;
    }
    fitness = new_fitness;
    have_fitness = true;
  }

  result.fitness = fitness;
  result.completed = KruskalTensor(*factors);
  return result;
}

SofiaAlsResult SofiaAls(const DenseTensor& y, const Mask& omega,
                        const DenseTensor& o, const SofiaConfig& config,
                        std::vector<Matrix>* factors, bool smooth_temporal,
                        WorkerPool* pool) {
  SOFIA_CHECK(y.shape() == omega.shape());
  SOFIA_CHECK(y.shape() == o.shape());
  const CooList coo = CooList::Build(omega);
  return SofiaAls(coo, y, o, config, factors, smooth_temporal, pool);
}

double SofiaObjective(const DenseTensor& y, const Mask& omega,
                      const DenseTensor& o, const SofiaConfig& config,
                      const std::vector<Matrix>& factors) {
  SOFIA_CHECK(y.shape() == omega.shape());
  SOFIA_CHECK(y.shape() == o.shape());
  const CooList coo = CooList::Build(omega, /*with_mode_buckets=*/false);
  const double residual =
      CooResidualNorm(coo, coo.GatherResidual(y, o), factors);
  double obj = residual * residual;

  const Matrix& ut = factors.back();
  const size_t duration = ut.rows();
  const size_t rank = ut.cols();
  // ||L_1 U^(N)||_F^2 and ||L_m U^(N)||_F^2.
  auto smoothness = [&](size_t gap) {
    if (gap >= duration) return 0.0;
    double s = 0.0;
    for (size_t i = 0; i + gap < duration; ++i) {
      for (size_t r = 0; r < rank; ++r) {
        const double d = ut(i, r) - ut(i + gap, r);
        s += d * d;
      }
    }
    return s;
  };
  obj += config.lambda1 * smoothness(1);
  obj += config.lambda2 * smoothness(config.period);

  double l1 = 0.0;
  for (size_t k = 0; k < o.NumElements(); ++k) l1 += std::fabs(o[k]);
  obj += config.lambda3 * l1;
  return obj;
}

}  // namespace sofia
