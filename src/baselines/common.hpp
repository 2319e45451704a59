#ifndef SOFIA_BASELINES_COMMON_H_
#define SOFIA_BASELINES_COMMON_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/shape.hpp"

/// \file common.hpp
/// \brief Shared start-up state of the streaming baselines.
///
/// The streaming CP baselines start from random non-temporal factors, and
/// fall back to them when restored factors do not fit the slice.
/// Their per-slice motifs (temporal-row solve, row systems, gradients,
/// proximal row updates) run on the observed-entry kernels of
/// baselines/observed_sweep.hpp; the dense-scan versions those kernels are
/// pinned against live in tests/dense_oracle.hpp.

namespace sofia {

/// Random U[0,1) factor matrices for the non-temporal modes of `slice_shape`.
std::vector<Matrix> RandomNontemporalFactors(const Shape& slice_shape,
                                             size_t rank, uint64_t seed);

/// True when there is one factor per mode of `slice_shape` and factor n has
/// slice_shape.dim(n) rows. A baseline whose checkpoint holds factors but
/// not the slice shape calls it at step time, and drops a restored warm
/// start that does not fit the slice for the random start (its
/// RestoreState checks the columns against the rank).
bool FitsSliceShape(const std::vector<Matrix>& factors,
                    const Shape& slice_shape);

}  // namespace sofia

#endif  // SOFIA_BASELINES_COMMON_H_
