#ifndef SOFIA_BASELINES_ONLINE_SGD_H_
#define SOFIA_BASELINES_ONLINE_SGD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/observed_sweep.hpp"
#include "eval/streaming_method.hpp"
#include "linalg/matrix.hpp"

/// \file online_sgd.hpp
/// \brief OnlineSGD baseline (Mardani et al., TSP 2015 [11]).
///
/// Streaming CP factorization/completion under missing data: at every step
/// the temporal row is the regularized least-squares fit to the observed
/// entries and the non-temporal factors take one stochastic-gradient step on
/// the instantaneous reconstruction loss. No outlier handling, no
/// seasonality — the paper's Table I row for this method.

namespace sofia {

/// Options for OnlineSgd.
struct OnlineSgdOptions {
  size_t rank = 5;
  double learning_rate = 0.1;  ///< SGD step on the factors.
  double ridge = 1e-6;         ///< Tikhonov weight of the temporal solve.
  uint64_t seed = 7;
};

/// OnlineSGD streaming method (no init window).
class OnlineSgd : public StreamingMethod {
 public:
  explicit OnlineSgd(OnlineSgdOptions options)
      : options_(options) {}

  std::string name() const override { return "OnlineSGD"; }
  /// Lazy step: the refreshed factors + temporal row as a Kruskal-view
  /// StepResult (no dense reconstruction).
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern =
                          nullptr) override;
  /// Advances the factors without building the estimate handle at all —
  /// the forecast-protocol fast path.
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

  OnlineSgdOptions options_;
  ObservedSweep sweep_;
  std::vector<Matrix> factors_;  ///< Lazily created on the first slice.
};

}  // namespace sofia

#endif  // SOFIA_BASELINES_ONLINE_SGD_H_
