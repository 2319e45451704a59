#ifndef SOFIA_BASELINES_MAST_H_
#define SOFIA_BASELINES_MAST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/observed_sweep.hpp"
#include "eval/streaming_method.hpp"
#include "linalg/matrix.hpp"

/// \file mast.hpp
/// \brief MAST baseline (Song et al., KDD 2017 [13]), temporal-growth path.
///
/// MAST handles tensors that grow in multiple modes; the paper's streams
/// grow only along time, so we implement that path (the one the paper's
/// experiments exercise): at each step the new slice is completed by
/// alternating closed-form row updates with a proximal pull toward the
/// previous factors (the forgetting-weighted history surrogate of MAST's
/// objective). No outlier handling, no seasonality.

namespace sofia {

/// Options for Mast.
struct MastOptions {
  size_t rank = 5;
  double prox_weight = 1.0;  ///< μ: pull toward the previous factors.
  double ridge = 1e-6;       ///< Tikhonov weight of the temporal solve.
  int inner_iterations = 2;  ///< Alternating rounds per slice.
  uint64_t seed = 13;
};

/// MAST streaming method (temporal growth only; no init window).
class Mast : public StreamingMethod {
 public:
  explicit Mast(MastOptions options)
      : options_(options) {}

  std::string name() const override { return "MAST"; }
  /// Lazy step: the refreshed factors + final temporal row as a
  /// Kruskal-view StepResult (no dense reconstruction).
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

  MastOptions options_;
  ObservedSweep sweep_;
  std::vector<Matrix> factors_;
};

}  // namespace sofia

#endif  // SOFIA_BASELINES_MAST_H_
