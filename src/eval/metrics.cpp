#include "eval/metrics.hpp"

#include <cmath>

#include "tensor/mask.hpp"
#include "util/check.hpp"

namespace sofia {

double NormalizedResidualError(const DenseTensor& estimate,
                               const DenseTensor& truth) {
  SOFIA_CHECK(estimate.shape() == truth.shape());
  DenseTensor diff = estimate;
  diff -= truth;
  const double denom = truth.FrobeniusNorm();
  if (denom == 0.0) return diff.FrobeniusNorm() == 0.0 ? 0.0 : 1.0;
  return diff.FrobeniusNorm() / denom;
}

GatheredError AccumulateGatheredError(const std::vector<double>& estimate,
                                      const std::vector<double>& reference) {
  SOFIA_CHECK_EQ(estimate.size(), reference.size());
  GatheredError e;
  for (size_t k = 0; k < estimate.size(); ++k) {
    const double d = estimate[k] - reference[k];
    e.err_sq += d * d;
    e.ref_sq += reference[k] * reference[k];
  }
  e.count = estimate.size();
  return e;
}

double GatheredNre(const GatheredError& error) {
  if (error.count == 0) return 0.0;
  if (error.ref_sq == 0.0) return error.err_sq == 0.0 ? 0.0 : 1.0;
  return std::sqrt(error.err_sq / error.ref_sq);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double DetectionScore::Precision() const {
  const size_t flagged = true_positives + false_positives;
  return flagged > 0 ? static_cast<double>(true_positives) /
                           static_cast<double>(flagged)
                     : 0.0;
}

double DetectionScore::Recall() const {
  const size_t actual = true_positives + false_negatives;
  return actual > 0 ? static_cast<double>(true_positives) /
                          static_cast<double>(actual)
                    : 0.0;
}

double DetectionScore::F1() const {
  const double p = Precision();
  const double r = Recall();
  return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

DetectionScore ScoreOutlierDetection(const DenseTensor& detected,
                                     const Mask& injected,
                                     const Mask& observed, double threshold) {
  SOFIA_CHECK(detected.shape() == injected.shape());
  SOFIA_CHECK(detected.shape() == observed.shape());
  DetectionScore score;
  for (size_t k = 0; k < detected.NumElements(); ++k) {
    if (!observed.Get(k)) continue;
    const bool flagged = std::fabs(detected[k]) > threshold;
    const bool actual = injected.Get(k);
    if (flagged && actual) ++score.true_positives;
    if (flagged && !actual) ++score.false_positives;
    if (!flagged && actual) ++score.false_negatives;
  }
  return score;
}

void Accumulate(DetectionScore* lhs, const DetectionScore& rhs) {
  lhs->true_positives += rhs.true_positives;
  lhs->false_positives += rhs.false_positives;
  lhs->false_negatives += rhs.false_negatives;
}

}  // namespace sofia
