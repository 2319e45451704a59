#ifndef SOFIA_CORE_SOFIA_ALS_H_
#define SOFIA_CORE_SOFIA_ALS_H_

#include <vector>

#include "core/sofia_config.hpp"
#include "linalg/matrix.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "util/parallel.hpp"

/// \file sofia_als.hpp
/// \brief SOFIA_ALS (Algorithm 2): batch ALS with temporal/seasonal
/// smoothness on the last (temporal) mode of an incomplete tensor.
///
/// Non-temporal rows are the exact minimizers of Theorem 1; temporal rows
/// follow Theorem 2 / Eq. (17), generalized to 0-based indices by counting
/// the in-range +-1 and +-m neighbours of each row (which reproduces every
/// branch of the paper's piecewise rule and additionally covers streams
/// shorter than 2m). After each non-temporal mode update the column norms
/// are folded into the temporal factor (Algorithm 2 lines 7-9).

namespace sofia {

/// Result of one SOFIA_ALS run.
struct SofiaAlsResult {
  DenseTensor completed;  ///< Low-rank reconstruction [[U^(1),...,U^(N)]].
  /// 1 - ||Ω ⊛ (Y* - X̂)||_F / ||Ω ⊛ Y*||_F, with the residual read from
  /// the last sweep's temporal row systems (equal to a pass over Ω up to
  /// rounding).
  double fitness = 0.0;
  int sweeps = 0;         ///< ALS sweeps executed.
  /// True if a sweep produced non-finite values (heavy corruption can blow
  /// up the unregularized fit — the paper's Fig. 2(b) phenomenon). The
  /// factors are rolled back to the last finite sweep.
  bool diverged = false;
};

/// Runs Algorithm 2 on `y` (last mode = time) with outliers `o` subtracted.
/// `factors` holds one matrix per mode (I_n x R) and is updated in place.
/// If `smooth_temporal` is false the λ1/λ2 penalties are dropped, which
/// turns the routine into vanilla ALS for incomplete tensors (the Fig. 2
/// baseline) while keeping the identical sweep schedule. The sweeps' kernels
/// run on `pool`, or inline when it is null; the result is bitwise the same
/// for every pool. Compacts `omega` into a CooList and runs the
/// observed-entry overload below.
SofiaAlsResult SofiaAls(const DenseTensor& y, const Mask& omega,
                        const DenseTensor& o, const SofiaConfig& config,
                        std::vector<Matrix>* factors,
                        bool smooth_temporal = true,
                        WorkerPool* pool = nullptr);

/// Observed-entry overload: runs the sweeps through the COO sparse kernel
/// layer against a CooList prebuilt from the window's mask. Callers that
/// solve the same window repeatedly with a fixed mask (the Algorithm 1 init
/// loop re-estimates outliers around the same Ω) build the CooList once and
/// amortize the dense compaction scan across all calls, modes, and sweeps.
SofiaAlsResult SofiaAls(const CooList& coo, const DenseTensor& y,
                        const DenseTensor& o, const SofiaConfig& config,
                        std::vector<Matrix>* factors,
                        bool smooth_temporal = true,
                        WorkerPool* pool = nullptr);

/// Objective (10) evaluated at the given state (used by tests and the
/// monotonicity checks): data term + smoothness penalties + λ3 ||O||_1.
double SofiaObjective(const DenseTensor& y, const Mask& omega,
                      const DenseTensor& o, const SofiaConfig& config,
                      const std::vector<Matrix>& factors);

/// Element-wise soft-thresholding (Eq. (12)).
double SoftThreshold(double x, double threshold);

}  // namespace sofia

#endif  // SOFIA_CORE_SOFIA_ALS_H_
