#include "core/sofia_init.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "tensor/coo_list.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sofia {

SofiaInitResult SofiaInitialize(const std::vector<DenseTensor>& slices,
                                const std::vector<Mask>& masks,
                                const SofiaConfig& config,
                                bool smooth_temporal, WorkerPool* pool) {
  SOFIA_CHECK_EQ(slices.size(), masks.size());
  SOFIA_CHECK_EQ(slices.size(), config.InitWindow())
      << "initialization expects t_i = init_seasons * period slices";
  static obs::Counter* als_us =
      obs::Registry::Global().FindOrCreateCounter("time.sofia.init.als_us");
  static obs::Counter* threshold_us =
      obs::Registry::Global().FindOrCreateCounter(
          "time.sofia.init.threshold_us");

  // Lines 1-3: stack the start-up slices into batch tensors.
  DenseTensor y = DenseTensor::StackSlices(slices);
  const Mask omega = Mask::StackSlices(masks);
  DenseTensor outliers(y.shape(), 0.0);

  // The mask is fixed for the whole init window while the outlier estimate
  // changes, so the observed-entry structure is compacted once here and
  // reused by every SOFIA_ALS call of the outer loop (only the y - O values
  // are re-gathered per call).
  const CooList coo = CooList::Build(omega);

  // Line 4: random factor initialization.
  Rng rng(config.seed);
  std::vector<Matrix> factors;
  factors.reserve(y.order());
  for (size_t n = 0; n < y.order(); ++n) {
    factors.push_back(Matrix::Random(y.dim(n), config.rank, rng, 0.0, 1.0));
  }

  // Lines 5-12: alternate SOFIA_ALS and soft-thresholding with λ3 decay.
  const double lambda3_init = config.lambda3;
  const double lambda3_floor = lambda3_init / 100.0;
  double lambda3 = lambda3_init;

  SofiaInitResult result;
  DenseTensor previous;
  bool have_previous = false;
  for (int outer = 0; outer < config.max_init_iterations; ++outer) {
    result.outer_iterations = outer + 1;

    SofiaAlsResult als;
    {
      obs::ObsSpan span("sofia.init.als", als_us);
      als = SofiaAls(coo, y, outliers, config, &factors, smooth_temporal,
                     pool);
    }

    // Line 8: O <- SoftThresholding(Ω ⊛ (Y - X̂), λ3). Only observed
    // entries are written: O is zero off Ω from construction.
    {
      obs::ObsSpan span("sofia.init.threshold", threshold_us);
      for (size_t k : coo.LinearIndices()) {
        outliers[k] = SoftThreshold(y[k] - als.completed[k], lambda3);
      }
    }

    // Lines 9-11: decay the threshold, floored at λ3/100.
    lambda3 = std::max(lambda3 * config.lambda3_decay, lambda3_floor);

    // Line 12: stop when the recovered tensor stabilizes.
    if (have_previous) {
      const double prev_norm = previous.FrobeniusNorm();
      DenseTensor diff = als.completed;
      diff -= previous;
      const double rel =
          prev_norm > 0.0 ? diff.FrobeniusNorm() / prev_norm : 0.0;
      if (rel < config.tolerance) {
        result.completed = std::move(als.completed);
        break;
      }
    }
    previous = als.completed;
    have_previous = true;
    result.completed = std::move(als.completed);
  }

  result.outliers = std::move(outliers);
  result.factors = std::move(factors);
  return result;
}

}  // namespace sofia
