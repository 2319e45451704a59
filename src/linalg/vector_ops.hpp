#ifndef SOFIA_LINALG_VECTOR_OPS_H_
#define SOFIA_LINALG_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

/// \file vector_ops.hpp
/// \brief Free-function kernels on std::vector<double>.
///
/// Temporal vectors u^(N)_t, HW components (l, b, s) and gradients are plain
/// vectors; these helpers keep call sites close to the paper's notation.

namespace sofia {

/// Inner product <a, b>, summed in a fixed order that depends only on the
/// length: eight interleaved partial sums from 8 elements up, the plain
/// ascending sum below that. The same inputs give the same bits on every
/// call.
double Dot(const std::vector<double>& a, const std::vector<double>& b);
/// Euclidean norm (Dot's summation order).
double Norm2(const std::vector<double>& a);
/// Squared Euclidean norm (Dot's summation order).
double SquaredNorm2(const std::vector<double>& a);
/// y += alpha * x.
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y);
/// x *= alpha.
void Scale(double alpha, std::vector<double>* x);
/// a + b.
std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b);
/// a - b.
std::vector<double> Sub(const std::vector<double>& a,
                        const std::vector<double>& b);
/// Element-wise product a ⊛ b.
std::vector<double> HadamardVec(const std::vector<double>& a,
                                const std::vector<double>& b);
/// Max |a_i - b_i|.
double MaxAbsDiffVec(const std::vector<double>& a,
                     const std::vector<double>& b);

}  // namespace sofia

#endif  // SOFIA_LINALG_VECTOR_OPS_H_
