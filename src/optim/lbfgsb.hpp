#ifndef SOFIA_OPTIM_LBFGSB_H_
#define SOFIA_OPTIM_LBFGSB_H_

#include <string>
#include <vector>

#include "optim/objective.hpp"

/// \file lbfgsb.hpp
/// \brief Box-constrained limited-memory quasi-Newton minimizer.
///
/// The paper fits Holt-Winters smoothing parameters with BFGS-B [42]. We
/// implement a projected L-BFGS: the two-loop recursion builds a quasi-Newton
/// direction restricted to the free (non-active-bound) variables, and an
/// Armijo backtracking search runs along the *projected* path
/// `P(x + alpha d)`. This is the classical gradient-projection simplification
/// of L-BFGS-B; for the small, smooth, low-dimensional problems in this
/// library it matches the reference solver to the tolerances we test.

namespace sofia {

/// Options for LbfgsbMinimize.
struct LbfgsbOptions {
  int max_iterations = 200;
  int history = 8;                ///< Number of (s, y) correction pairs kept.
  double gradient_tolerance = 1e-7;  ///< On the projected gradient inf-norm.
  double f_tolerance = 1e-12;     ///< Relative decrease convergence test.
  double armijo_c1 = 1e-4;
  double step_shrink = 0.5;
  int max_line_search_steps = 40;
};

/// Result of a minimization run.
struct LbfgsbResult {
  std::vector<double> x;       ///< Final iterate (always within bounds).
  double f = 0.0;              ///< Objective at x.
  int iterations = 0;
  bool converged = false;
  std::string message;
};

/// Minimize `obj` over the box [lower_i, upper_i]^n starting from x0 (which
/// is clamped into the box). Pass +/-infinity for unbounded coordinates.
/// Every working vector, the correction history included, is sized once per
/// call; the inner products sum in Dot's fixed order (linalg/vector_ops.hpp).
LbfgsbResult LbfgsbMinimize(const Objective& obj, std::vector<double> x0,
                            const std::vector<double>& lower,
                            const std::vector<double>& upper,
                            const LbfgsbOptions& options = {});

}  // namespace sofia

#endif  // SOFIA_OPTIM_LBFGSB_H_
