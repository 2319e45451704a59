#ifndef SOFIA_LINALG_SOLVE_H_
#define SOFIA_LINALG_SOLVE_H_

#include <vector>

#include "linalg/matrix.hpp"

/// \file solve.hpp
/// \brief Dense linear solvers for the small (R x R) systems of Theorems 1–2.
///
/// Every factor-row update solves `B u = c` where `B` is an R x R Gram-like
/// matrix, possibly shifted by smoothness terms. LU with partial pivoting is
/// the workhorse; an SPD Cholesky path exists for symmetric systems and a
/// ridge fallback keeps rank-deficient rows (few observed entries) stable.

namespace sofia {

/// LU factorization with partial pivoting, stored packed.
struct LuFactors {
  Matrix lu;              ///< Combined L (unit lower) and U factors.
  std::vector<int> perm;  ///< Row permutation applied to the input.
  bool singular = false;  ///< True if a zero pivot was hit.
};

/// Factor a square matrix; O(n^3).
LuFactors LuFactorize(const Matrix& a);

/// Solve `A x = b` given factors of A.
std::vector<double> LuSolve(const LuFactors& f, const std::vector<double>& b);

/// Solve `A x = b` for square A via LU. CHECK-fails on exactly singular A.
std::vector<double> SolveLinear(const Matrix& a, const std::vector<double>& b);

/// Solve `A x = b` with a ridge `A + eps*I` retried on singular/ill systems.
/// Used for factor-row updates where a slice may have too few observations.
/// Never returns a non-finite solution: a system containing NaN/Inf (e.g. a
/// Gram matrix accumulated from a poisoned slice) fails soft to the zero
/// vector — the documented failure status — instead of propagating NaN into
/// a factor row, and an overflowing solve retries through the ridge shifts.
std::vector<double> SolveRidge(const Matrix& a, const std::vector<double>& b,
                               double eps = 1e-9);

/// Cholesky factor L (lower) with A = L L^T. Returns false if not SPD
/// (including NaN diagonals, which must not reach sqrt).
bool CholeskyFactorize(const Matrix& a, Matrix* l);

/// Allocation-free SPD solve: factor `a` (row-major n x n, overwritten with
/// L in its lower triangle) and solve into `rhs` in place. Returns false on
/// a non-positive (or NaN) pivot and on a non-finite solution — a finite
/// pivot chain does not rule out a poisoned right-hand side — leaving the
/// caller to fall back to a pivoted/ridge solver. For the hot small-R row
/// solves (one per factor row per sweep) where per-solve heap traffic would
/// dominate the arithmetic. solve.cpp is compiled without floating-point
/// contraction (CMakeLists.txt), so this multiplies then adds in every
/// build, as the fused proximal update's lane solve does.
bool CholeskySolveInPlace(double* a, double* rhs, size_t n);

/// Proximal ridge row solve `out = (B + μI)^{-1} (c + μ prev)` on raw
/// n-sized buffers (B row-major n x n). Single source of the arithmetic
/// shared by the dense and observed-entry MAST / OR-MSTC row updates, so
/// the two kernel paths stay bitwise aligned: an exactly-empty system
/// (B = 0, c = 0, μ != 0) short-circuits to the scalar divide the solve
/// reduces to, the SPD case goes through CholeskySolveInPlace in the
/// caller-provided scratch (each n * n and n doubles), and anything
/// irregular (μ = 0 with rank-deficient B) falls back to SolveRidge.
/// `out` may alias `prev`.
void ProximalRowSolve(const double* b, const double* c, const double* prev,
                      double mu, size_t n, double* a_scratch,
                      double* rhs_scratch, double* out);

/// Solve SPD `A x = b` via Cholesky; falls back to LU when not SPD.
std::vector<double> SolveSpd(const Matrix& a, const std::vector<double>& b);

/// Dense inverse via LU (test/diagnostic use; prefer the solve functions).
Matrix Inverse(const Matrix& a);

/// Determinant via LU (diagnostic use).
double Determinant(const Matrix& a);

}  // namespace sofia

#endif  // SOFIA_LINALG_SOLVE_H_
