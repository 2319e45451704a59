#ifndef SOFIA_BASELINES_CP_WOPT_H_
#define SOFIA_BASELINES_CP_WOPT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "util/parallel.hpp"

/// \file cp_wopt.hpp
/// \brief CP-WOPT baseline (Acar et al. [9], Table I).
///
/// Weighted optimization for CP factorization of incomplete tensors: all
/// factor matrices are optimized *jointly* with a first-order method on the
/// masked least-squares loss
///     f(U) = 0.5 ||Ω ⊛ (Y - [[U^(1),...,U^(N)]])||_F^2,
/// in contrast to the alternating solves of ALS. The original uses NCG;
/// we use the library's limited-memory quasi-Newton solver, which belongs
/// to the same first-order family and matches it on these problem sizes.

namespace sofia {

/// Options for CpWopt.
struct CpWoptOptions {
  size_t rank = 5;
  int max_iterations = 300;
  double gradient_tolerance = 1e-6;
  uint64_t seed = 37;
};

/// Result of a CP-WOPT run.
struct CpWoptResult {
  std::vector<Matrix> factors;  ///< One I_n x R matrix per mode.
  DenseTensor completed;        ///< [[U^(1),...,U^(N)]].
  double loss = 0.0;            ///< Final masked least-squares loss.
  int iterations = 0;
  bool converged = false;
};

/// Factorizes the incomplete tensor `y` from a random start. `pattern` may
/// hold a prebuilt CooList of `omega` (e.g. the shared per-step pattern of a
/// comparison run); when null the pattern is compacted once internally and
/// reused across every quasi-Newton iterate.
CpWoptResult CpWopt(const DenseTensor& y, const Mask& omega,
                    const CpWoptOptions& options,
                    std::shared_ptr<const CooList> pattern = nullptr);

/// Like CpWopt but leaves `completed` empty (no O(volume R) Kruskal
/// materialization — the streaming adapter wraps the factors in a lazy
/// StepResult instead) and optionally warm-starts from `initial` factors
/// (factor n must be y.dim(n) x rank; checked). Null `initial` draws the
/// same random start as CpWopt. The loss/gradient kernel runs its record
/// blocks on `pool` when one is given, serially otherwise; the results are
/// bitwise identical either way.
CpWoptResult CpWoptFactorize(const DenseTensor& y, const Mask& omega,
                             const CpWoptOptions& options,
                             std::shared_ptr<const CooList> pattern = nullptr,
                             const std::vector<Matrix>* initial = nullptr,
                             WorkerPool* pool = nullptr);

/// The masked loss and its analytic gradient on factor matrices (exposed
/// for testing: the gradient is validated against finite differences).
/// Both pack the factors and run the solver's kernels, CooCpWoptLoss and
/// CooCpWoptGradient (tensor/sparse_kernels.hpp). The dense-pair
/// overloads compact `omega` once via the shared build helper; callers that
/// evaluate both on the same mask should prebuild the pattern and use the
/// record-aligned overloads (`values` as in CooList::Gather).
double CpWoptLoss(const DenseTensor& y, const Mask& omega,
                  const std::vector<Matrix>& factors);
double CpWoptLoss(const CooList& coo, const std::vector<double>& values,
                  const std::vector<Matrix>& factors);
std::vector<Matrix> CpWoptGradient(const DenseTensor& y, const Mask& omega,
                                   const std::vector<Matrix>& factors);
std::vector<Matrix> CpWoptGradient(const CooList& coo,
                                   const std::vector<double>& values,
                                   const std::vector<Matrix>& factors);

}  // namespace sofia

#endif  // SOFIA_BASELINES_CP_WOPT_H_
