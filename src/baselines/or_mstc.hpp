#ifndef SOFIA_BASELINES_OR_MSTC_H_
#define SOFIA_BASELINES_OR_MSTC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/observed_sweep.hpp"
#include "eval/streaming_method.hpp"
#include "linalg/matrix.hpp"

/// \file or_mstc.hpp
/// \brief OR-MSTC baseline (Najafi et al., IJCAI 2019 [15]).
///
/// Outlier-robust multi-aspect streaming completion, temporal-growth path:
/// each slice is decomposed as low-rank + sparse by alternating (a) the
/// temporal row solve on the outlier-cleaned slice, (b) proximal factor row
/// updates, and (c) soft-thresholding the residual into the outlier slab.
/// The method targets structured (mode-aligned) outliers, so its threshold
/// is a global one — exactly why the paper finds it weaker on element-wise
/// corruption (Section VI-C).

namespace sofia {

/// Options for OrMstc.
struct OrMstcOptions {
  size_t rank = 5;
  double prox_weight = 1.0;     ///< μ: pull toward the previous factors.
  double outlier_lambda = 1.0;  ///< Soft threshold for the sparse slab.
  double ridge = 1e-6;
  int inner_iterations = 3;
  uint64_t seed = 17;
};

/// OR-MSTC streaming method (no init window).
class OrMstc : public StreamingMethod {
 public:
  explicit OrMstc(OrMstcOptions options)
      : options_(options) {}

  std::string name() const override { return "OR-MSTC"; }
  /// Lazy step: the refreshed factors + final outlier-cleaned temporal row
  /// as a Kruskal-view StepResult (no dense reconstruction).
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern =
                          nullptr) override;
  /// Advances the factors without the output-only tail (the final temporal
  /// re-solve exists purely for the returned estimate) — the
  /// forecast-protocol fast path.
  void Observe(const DenseTensor& y, const Mask& omega) override;
  void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) override {
    sweep_.AdoptPool(std::move(pool));
  }

  bool SupportsStateCheckpoint() const override { return true; }
  void SaveState(std::ostream& out) const override;
  void RestoreState(std::istream& in) override;

  const std::vector<Matrix>& factors() const { return factors_; }

 private:
  StepResult StepShared(const DenseTensor& y, const Mask& omega,
                        std::shared_ptr<const CooList> pattern,
                        bool want_result);

  OrMstcOptions options_;
  ObservedSweep sweep_;
  std::vector<Matrix> factors_;
};

}  // namespace sofia

#endif  // SOFIA_BASELINES_OR_MSTC_H_
