#include "optim/lbfgsb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/vector_ops.hpp"
#include "util/check.hpp"

namespace sofia {

namespace {

/// Clamp x into [lower, upper] component-wise.
void Project(const std::vector<double>& lower, const std::vector<double>& upper,
             std::vector<double>* x) {
  for (size_t i = 0; i < x->size(); ++i) {
    (*x)[i] = std::clamp((*x)[i], lower[i], upper[i]);
  }
}

/// Infinity norm of the projected gradient: the first-order optimality
/// measure for box-constrained problems (P(x - g) - x). Four running maxima
/// (element i goes to max i mod 4) keep the compares off one chain; a max is
/// exact in any order, and a NaN step is skipped as std::max skips it.
double ProjectedGradientNorm(const std::vector<double>& x,
                             const std::vector<double>& g,
                             const std::vector<double>& lower,
                             const std::vector<double>& upper) {
  double norm[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < x.size(); ++i) {
    double step = std::clamp(x[i] - g[i], lower[i], upper[i]) - x[i];
    norm[i % 4] = std::max(norm[i % 4], std::fabs(step));
  }
  return std::max(std::max(norm[0], norm[1]), std::max(norm[2], norm[3]));
}

/// True if coordinate i sits on a bound that the gradient pushes against.
bool AtActiveBound(double x, double g, double lo, double hi) {
  const double kBoundTol = 1e-12;
  if (x <= lo + kBoundTol && g > 0.0) return true;
  if (x >= hi - kBoundTol && g < 0.0) return true;
  return false;
}

}  // namespace

LbfgsbResult LbfgsbMinimize(const Objective& obj, std::vector<double> x0,
                            const std::vector<double>& lower,
                            const std::vector<double>& upper,
                            const LbfgsbOptions& options) {
  const size_t n = x0.size();
  SOFIA_CHECK_EQ(lower.size(), n);
  SOFIA_CHECK_EQ(upper.size(), n);
  for (size_t i = 0; i < n; ++i) SOFIA_CHECK_LE(lower[i], upper[i]);

  LbfgsbResult result;
  Project(lower, upper, &x0);
  std::vector<double> x = std::move(x0);
  double f = obj.Value(x);
  std::vector<double> g;
  obj.Gradient(x, &g);

  // Every vector an iteration uses is sized here, once per call. The
  // L-BFGS correction pairs live in a ring of `history` slots: pair k
  // (k = 0 the oldest) sits in slot (head + k) % history.
  const size_t history = static_cast<size_t>(std::max(options.history, 0));
  std::vector<std::vector<double>> s_hist(history, std::vector<double>(n));
  std::vector<std::vector<double>> y_hist(history, std::vector<double>(n));
  std::vector<double> rho_hist(history), alpha(history);
  size_t head = 0;
  size_t count = 0;
  auto slot = [&](size_t k) { return (head + k) % history; };
  std::vector<double> q(n), direction(n), x_new(n), g_new(n), x_best(n);
  std::vector<double> s(n), y(n);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (ProjectedGradientNorm(x, g, lower, upper) <
        options.gradient_tolerance) {
      result.converged = true;
      result.message = "projected gradient below tolerance";
      break;
    }

    // Two-loop recursion over free variables only: gradient components that
    // push against an active bound are zeroed so the direction stays in the
    // feasible cone.
    std::copy(g.begin(), g.end(), q.begin());
    for (size_t i = 0; i < n; ++i) {
      if (AtActiveBound(x[i], g[i], lower[i], upper[i])) q[i] = 0.0;
    }
    for (size_t k = count; k-- > 0;) {
      const size_t j = slot(k);
      alpha[k] = rho_hist[j] * Dot(s_hist[j], q);
      Axpy(-alpha[k], y_hist[j], &q);
    }
    if (count > 0) {
      const size_t newest = slot(count - 1);
      const double gamma = Dot(s_hist[newest], y_hist[newest]) /
                           std::max(Dot(y_hist[newest], y_hist[newest]),
                                    1e-300);
      Scale(gamma, &q);
    }
    for (size_t k = 0; k < count; ++k) {
      const size_t j = slot(k);
      const double beta = rho_hist[j] * Dot(y_hist[j], q);
      Axpy(alpha[k] - beta, s_hist[j], &q);
    }
    std::copy(q.begin(), q.end(), direction.begin());
    Scale(-1.0, &direction);
    for (size_t i = 0; i < n; ++i) {
      if (AtActiveBound(x[i], g[i], lower[i], upper[i])) direction[i] = 0.0;
    }

    // Fall back to steepest descent if the quasi-Newton direction fails to
    // be a usable descent direction — either uphill or nearly orthogonal to
    // the gradient (the angle test below). Both signal a degenerate
    // inverse-Hessian model, so the correction history is dropped too.
    double dg = Dot(direction, g);
    const double angle_floor = -1e-6 * Norm2(direction) * Norm2(g);
    if (dg >= angle_floor) {
      head = 0;
      count = 0;
      for (size_t i = 0; i < n; ++i) {
        direction[i] =
            AtActiveBound(x[i], g[i], lower[i], upper[i]) ? 0.0 : -g[i];
      }
      dg = Dot(direction, g);
      if (dg >= 0.0) {
        result.converged = true;
        result.message = "no feasible descent direction";
        break;
      }
    }

    // Weak-Wolfe line search (Lewis-Overton bisection) along the projected
    // path P(x + t d). The curvature condition g_new^T d >= c2 * g^T d keeps
    // the accepted (s, y) pairs useful — Armijo-only acceptance stagnates in
    // ill-conditioned valleys because near-zero-curvature pairs freeze the
    // inverse-Hessian model.
    const double wolfe_c2 = 0.9;
    double t_lo = 0.0;
    double t_hi = std::numeric_limits<double>::infinity();
    double t = 1.0;
    double f_new = f;
    bool accepted = false;
    double f_best = f;
    for (int ls = 0; ls < options.max_line_search_steps; ++ls) {
      for (size_t i = 0; i < n; ++i) x_new[i] = x[i] + t * direction[i];
      Project(lower, upper, &x_new);
      f_new = obj.Value(x_new);
      if (f_new < f_best) {
        f_best = f_new;
        std::copy(x_new.begin(), x_new.end(), x_best.begin());
      }
      // Sufficient decrease relative to the *actual* projected displacement.
      for (size_t i = 0; i < n; ++i) s[i] = x_new[i] - x[i];
      const double decrease = Dot(g, s);
      if (f_new > f + options.armijo_c1 * decrease || f_new >= f) {
        t_hi = t;  // Step too long (or no progress): shrink.
        t = 0.5 * (t_lo + t_hi);
      } else {
        obj.Gradient(x_new, &g_new);
        if (Dot(g_new, direction) < wolfe_c2 * dg) {
          t_lo = t;  // Step too short for useful curvature: lengthen.
          t = std::isinf(t_hi) ? 2.0 * t : 0.5 * (t_lo + t_hi);
        } else {
          accepted = true;
          break;
        }
      }
      if (t <= 1e-16 || t >= 1e16) break;
    }
    if (!accepted && f_best < f) {
      // Wolfe curvature never satisfied, but decrease was found: take the
      // best point seen (the curvature filter below guards the history).
      std::swap(x_new, x_best);
      f_new = f_best;
      obj.Gradient(x_new, &g_new);
      accepted = true;
    }
    if (!accepted) {
      // One retry from a clean slate: a poisoned history can make every
      // quasi-Newton step unacceptable while plain gradient descent still
      // works. If the history is already empty, we are genuinely done.
      if (count > 0) {
        head = 0;
        count = 0;
        continue;
      }
      result.converged = true;
      result.message = "line search could not improve";
      break;
    }

    for (size_t i = 0; i < n; ++i) {
      s[i] = x_new[i] - x[i];
      y[i] = g_new[i] - g[i];
    }
    const double sy = Dot(s, y);
    if (sy > 1e-12 * Norm2(s) * Norm2(y) && history > 0) {
      // Curvature condition met: the pair takes the next slot, or the
      // oldest pair's once the ring is full.
      size_t j = slot(count);
      if (count < history) {
        ++count;
      } else {
        head = (head + 1) % history;
      }
      std::swap(s_hist[j], s);
      std::swap(y_hist[j], y);
      rho_hist[j] = 1.0 / sy;
    }

    const double f_old = f;
    std::swap(x, x_new);
    f = f_new;
    std::swap(g, g_new);
    if (std::fabs(f_old - f) <=
        options.f_tolerance * std::max({std::fabs(f_old), std::fabs(f), 1.0})) {
      result.converged = true;
      result.message = "function decrease below tolerance";
      break;
    }
  }

  if (result.message.empty()) result.message = "max iterations reached";
  result.x = std::move(x);
  result.f = f;
  return result;
}

}  // namespace sofia
