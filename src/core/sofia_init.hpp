#ifndef SOFIA_CORE_SOFIA_INIT_H_
#define SOFIA_CORE_SOFIA_INIT_H_

#include <vector>

#include "core/sofia_als.hpp"
#include "core/sofia_config.hpp"
#include "linalg/matrix.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "util/parallel.hpp"

/// \file sofia_init.hpp
/// \brief Initialization step of SOFIA (Algorithm 1).
///
/// The first t_i = 3m subtensors are stacked into a batch tensor and
/// alternately (a) factorized with SOFIA_ALS on the outlier-removed data and
/// (b) de-noised by soft-thresholding the residual into the outlier tensor,
/// with the threshold λ3 decayed by d = 0.85 per round (floored at λ3/100).

namespace sofia {

/// Output of the initialization phase.
struct SofiaInitResult {
  DenseTensor completed;        ///< X̂_init: low-rank completion of the batch.
  DenseTensor outliers;         ///< O_init: estimated sparse outliers.
  std::vector<Matrix> factors;  ///< {U^(n)}: all N factor matrices.
  int outer_iterations = 0;     ///< Rounds of (ALS, soft-threshold) executed.
};

/// Runs Algorithm 1 on the first slices of a stream. `slices` and `masks`
/// must contain t_i = config.InitWindow() aligned (N-1)-way subtensors.
/// Set `smooth_temporal` to false to initialize with vanilla ALS instead of
/// SOFIA_ALS (the Fig. 2 ablation). Every SOFIA_ALS call runs its kernels
/// on `pool`, or inline when it is null; the result is bitwise the same for
/// every pool.
SofiaInitResult SofiaInitialize(const std::vector<DenseTensor>& slices,
                                const std::vector<Mask>& masks,
                                const SofiaConfig& config,
                                bool smooth_temporal = true,
                                WorkerPool* pool = nullptr);

}  // namespace sofia

#endif  // SOFIA_CORE_SOFIA_INIT_H_
