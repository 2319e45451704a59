#include "data/corruption.hpp"

#include <algorithm>
#include <cstdio>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace sofia {

namespace {

/// Prime each mask's observed-count cache at generation time, where the
/// O(volume) pass folds into building the mask anyway. The streaming
/// loops' mask-reuse checks (CooList::SameObservedSet needs the count) then
/// stay O(|Ω|) per step — a stream whose masks arrive cold would instead
/// pay one full bit scan per step object inside the step loop.
void PrimeMaskCaches(CorruptedStream* stream) {
  for (const Mask& m : stream->masks) m.CountObserved();
}

}  // namespace

std::string CorruptionSetting::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(%g,%g,%g)", missing_percent,
                outlier_percent, magnitude);
  return buf;
}

std::vector<CorruptionSetting> PaperSettingGrid() {
  return {{20.0, 10.0, 2.0},
          {30.0, 15.0, 3.0},
          {50.0, 20.0, 4.0},
          {70.0, 20.0, 5.0}};
}

CorruptedStream Corrupt(const std::vector<DenseTensor>& truth,
                        const CorruptionSetting& setting, uint64_t seed) {
  SOFIA_CHECK(!truth.empty());
  SOFIA_CHECK_GE(setting.missing_percent, 0.0);
  SOFIA_CHECK_LE(setting.missing_percent, 100.0);
  SOFIA_CHECK_GE(setting.outlier_percent, 0.0);
  SOFIA_CHECK_LE(setting.outlier_percent, 100.0);

  Rng rng(seed);
  CorruptedStream out;
  out.slices.reserve(truth.size());
  out.masks.reserve(truth.size());
  out.outlier_positions.reserve(truth.size());

  for (const DenseTensor& slice : truth) {
    out.max_abs = std::max(out.max_abs, slice.MaxAbs());
  }
  const double magnitude = setting.magnitude * out.max_abs;
  const double p_missing = setting.missing_percent / 100.0;
  const double p_outlier = setting.outlier_percent / 100.0;

  for (const DenseTensor& slice : truth) {
    DenseTensor y = slice;
    Mask omega(slice.shape(), true);
    Mask outlier(slice.shape(), false);
    for (size_t k = 0; k < y.NumElements(); ++k) {
      // Outliers add ±Z*max|X| on top of the clean value (Y = X + O).
      if (p_outlier > 0.0 && rng.Bernoulli(p_outlier)) {
        y[k] += rng.Bernoulli(0.5) ? magnitude : -magnitude;
        outlier.Set(k, true);
      }
      // Missingness is sampled independently; a corrupted entry that is
      // also dropped simply ends up missing.
      if (p_missing > 0.0 && rng.Bernoulli(p_missing)) {
        omega.Set(k, false);
      }
    }
    out.slices.push_back(std::move(y));
    out.masks.push_back(std::move(omega));
    out.outlier_positions.push_back(std::move(outlier));
  }
  PrimeMaskCaches(&out);
  return out;
}

CorruptedStream CorruptWithOutages(const std::vector<DenseTensor>& truth,
                                   const CorruptionSetting& setting,
                                   const OutageSetting& outages,
                                   uint64_t seed) {
  CorruptedStream out = Corrupt(truth, setting, seed);
  SOFIA_CHECK(!truth.empty());
  SOFIA_CHECK_GE(truth[0].order(), 1u);
  Rng rng(seed ^ 0x07a6eULL);

  const Shape& slice_shape = truth[0].shape();
  const size_t rows = slice_shape.dim(0);
  // remaining[i] = steps left in row i's current outage.
  std::vector<size_t> remaining(rows, 0);
  std::vector<size_t> idx(slice_shape.order(), 0);
  for (size_t t = 0; t < truth.size(); ++t) {
    for (size_t i = 0; i < rows; ++i) {
      if (remaining[i] == 0 && rng.Bernoulli(outages.outage_start_prob)) {
        remaining[i] = outages.outage_length;
      }
    }
    Mask& mask = out.masks[t];
    idx.assign(slice_shape.order(), 0);
    for (size_t linear = 0; linear < slice_shape.NumElements(); ++linear) {
      if (remaining[idx[0]] > 0) mask.Set(linear, false);
      slice_shape.Next(&idx);
    }
    for (size_t i = 0; i < rows; ++i) {
      if (remaining[i] > 0) --remaining[i];
    }
  }
  PrimeMaskCaches(&out);  // The outage Set()s invalidated Corrupt's primes.
  return out;
}

}  // namespace sofia
