#include "baselines/common.hpp"

#include "util/rng.hpp"

namespace sofia {

std::vector<Matrix> RandomNontemporalFactors(const Shape& slice_shape,
                                             size_t rank, uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  factors.reserve(slice_shape.order());
  for (size_t n = 0; n < slice_shape.order(); ++n) {
    factors.push_back(
        Matrix::Random(slice_shape.dim(n), rank, rng, 0.0, 1.0));
  }
  return factors;
}

bool FitsSliceShape(const std::vector<Matrix>& factors,
                    const Shape& slice_shape) {
  if (factors.size() != slice_shape.order()) return false;
  for (size_t n = 0; n < factors.size(); ++n) {
    if (factors[n].rows() != slice_shape.dim(n)) return false;
  }
  return true;
}

}  // namespace sofia
