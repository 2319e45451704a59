#ifndef SOFIA_BASELINES_BRST_H_
#define SOFIA_BASELINES_BRST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/observed_sweep.hpp"
#include "eval/streaming_method.hpp"
#include "linalg/matrix.hpp"

/// \file brst.hpp
/// \brief BRST-lite baseline (after Zhang & Hawkins, ICDM 2018 [14]).
///
/// The original BRST is a streaming variational-Bayes robust factorization
/// with automatic rank determination (ARD). The ICDE paper reports that
/// BRST collapses to rank 0 on all four streams and omits its curves; this
/// lite reimplementation keeps the two ingredients responsible for that
/// behaviour — Student-t style per-entry outlier gating and ARD column
/// precisions that prune low-energy columns — so the qualitative finding
/// can be reproduced (see tests/brst_test.cc and bench/fig3_imputation).

namespace sofia {

/// Options for BrstLite.
struct BrstOptions {
  size_t rank = 5;             ///< Initial (maximal) rank.
  double learning_rate = 0.1;  ///< Gradient step on the factors.
  double ridge = 1e-6;
  double student_nu = 3.0;     ///< Degrees of freedom of the outlier gate.
  double ard_strength = 1.0;   ///< Scale of the ARD precision update.
  double prune_threshold = 1e-3;  ///< Column-energy cutoff for pruning.
  uint64_t seed = 19;
};

/// BRST-lite streaming method (no init window).
class BrstLite : public StreamingMethod {
 public:
  explicit BrstLite(BrstOptions options)
      : options_(options) {}

  std::string name() const override { return "BRST"; }
  /// Lazy step: the refreshed factors + ARD-pruned temporal row as a
  /// Kruskal-view StepResult (no dense reconstruction).
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern =
                          nullptr) override;
  /// Advances the factors / ARD / noise state without building the
  /// output-only estimate handle — the forecast-protocol fast path.
  void Observe(const DenseTensor& y, const Mask& omega) override;
  void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) override {
    sweep_.AdoptPool(std::move(pool));
  }

  /// Number of columns whose energy survives the ARD prune (the paper's
  /// estimated rank; expected to collapse under heavy corruption).
  size_t EffectiveRank() const;

  bool SupportsStateCheckpoint() const override { return true; }
  void SaveState(std::ostream& out) const override;
  void RestoreState(std::istream& in) override;

  const std::vector<Matrix>& factors() const { return factors_; }

 private:
  StepResult StepShared(const DenseTensor& y, const Mask& omega,
                        std::shared_ptr<const CooList> pattern,
                        bool want_result);

  BrstOptions options_;
  ObservedSweep sweep_;
  std::vector<Matrix> factors_;
  std::vector<double> ard_precision_;  ///< γ_r per column.
  double noise_var_ = 1.0;             ///< Running residual variance σ².
};

}  // namespace sofia

#endif  // SOFIA_BASELINES_BRST_H_
