#ifndef SOFIA_EVAL_METRICS_H_
#define SOFIA_EVAL_METRICS_H_

#include <vector>

#include "tensor/dense_tensor.hpp"

/// \file metrics.hpp
/// \brief Evaluation metrics of Section VI-A.

namespace sofia {

/// Normalized residual error ||X̂ - X||_F / ||X||_F.
double NormalizedResidualError(const DenseTensor& estimate,
                               const DenseTensor& truth);

class Mask;

/// Squared-error accumulator over a gathered (record-aligned) entry set —
/// the scoring primitive of the eval protocols, which read estimates
/// only at observed / held-out entries via CooList gathers instead of
/// densifying them.
struct GatheredError {
  double err_sq = 0.0;    ///< Σ (estimate - reference)².
  double ref_sq = 0.0;    ///< Σ reference².
  size_t count = 0;       ///< Entries accumulated.

  /// Merge another accumulator (e.g. observed + held-out partitions).
  GatheredError& operator+=(const GatheredError& other) {
    err_sq += other.err_sq;
    ref_sq += other.ref_sq;
    count += other.count;
    return *this;
  }
};

/// Accumulate estimate-vs-reference squared errors over aligned gathers.
GatheredError AccumulateGatheredError(const std::vector<double>& estimate,
                                      const std::vector<double>& reference);

/// NRE of an accumulator: sqrt(err_sq / ref_sq), with the same degenerate
/// conventions as the dense metrics (empty set → 0; zero reference norm →
/// 0 if the error is 0, else 1).
double GatheredNre(const GatheredError& error);

/// Mean of a vector (0 for empty input): RAE over an NRE series, ART over
/// step times.
double Mean(const std::vector<double>& values);

/// Precision/recall of an outlier detector against injected ground truth.
struct DetectionScore {
  size_t true_positives = 0;
  size_t false_positives = 0;
  size_t false_negatives = 0;
  double Precision() const;
  double Recall() const;
  double F1() const;
};

/// Scores a detected-outlier tensor against the injected positions: an
/// observed entry counts as flagged when |detected| > threshold. Entries
/// outside `observed` are skipped (nothing to detect there).
DetectionScore ScoreOutlierDetection(const DenseTensor& detected,
                                     const Mask& injected,
                                     const Mask& observed, double threshold);

/// Accumulates `rhs` into `lhs` (streaming aggregation across steps).
void Accumulate(DetectionScore* lhs, const DetectionScore& rhs);

}  // namespace sofia

#endif  // SOFIA_EVAL_METRICS_H_
