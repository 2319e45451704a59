#ifndef SOFIA_BASELINES_SMF_H_
#define SOFIA_BASELINES_SMF_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/observed_sweep.hpp"
#include "eval/streaming_method.hpp"
#include "linalg/matrix.hpp"

/// \file smf.hpp
/// \brief SMF baseline (Hooi et al., SDM 2019 [16]).
///
/// Drift-aware streaming matrix factorization with seasonal patterns: each
/// incoming subtensor is vectorized into a column of a matrix stream
/// vec(Y_t) ≈ A w_t; the loading matrix A drifts via SGD and the latent
/// weights w_t carry a level/trend/seasonal decomposition used for
/// forecasting. SMF assumes fully-observed data and has no outlier
/// rejection — the two Table I gaps the Fig. 6 experiment exposes.

namespace sofia {

/// Options for Smf.
struct SmfOptions {
  size_t rank = 5;
  size_t period = 7;           ///< Seasonal period m.
  double learning_rate = 0.1;  ///< SGD step on the loading matrix.
  double ridge = 1e-6;
  double level_alpha = 0.3;    ///< Level smoothing of the latent weights.
  double trend_beta = 0.05;    ///< Trend smoothing.
  double season_gamma = 0.3;   ///< Seasonal smoothing.
  uint64_t seed = 23;
};

/// SMF streaming method (forecast-capable; no init window).
class Smf : public StreamingMethod {
 public:
  explicit Smf(SmfOptions options)
      : options_(options),
        // No bucketed motifs: both sweeps are linear-indexed record loops.
        sweep_(ObservedSweepOptions{/*with_mode_buckets=*/false}) {}

  std::string name() const override { return "SMF"; }
  /// Lazy step: the drifted loadings + latent weights as a linear-map
  /// StepResult (vec(X̂) = A w — no dense reconstruction).
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern =
                          nullptr) override;
  /// Advances loadings and level/trend/seasonal state without building the
  /// output-only estimate handle — the forecast-protocol fast path (what
  /// the Fig. 6 protocol actually drives).
  void Observe(const DenseTensor& y, const Mask& omega) override;
  void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) override {
    sweep_.AdoptPool(std::move(pool));
  }

  bool SupportsForecast() const override { return true; }
  /// Lazy forecast: A (l + h b + s) as a linear-map handle.
  StepResult ForecastLazy(size_t h) const override;

  /// Restore rebuilds the loadings under a fresh shared_ptr, so live lazy
  /// handles snapshotting the old matrix stay valid.
  bool SupportsStateCheckpoint() const override { return true; }
  void SaveState(std::ostream& out) const override;
  void RestoreState(std::istream& in) override;

 private:
  StepResult StepShared(const DenseTensor& y, const Mask& omega,
                        std::shared_ptr<const CooList> pattern,
                        bool want_result);

  SmfOptions options_;
  ObservedSweep sweep_;
  Shape slice_shape_;
  /// A: (prod slice dims) x R. Held through a shared_ptr so StepLazy /
  /// ForecastLazy handles snapshot it without copying; the step clones
  /// copy-on-write only when a live handle still references it.
  std::shared_ptr<Matrix> loadings_;
  // Level/trend/seasonal state of the latent weights (vector HW form).
  std::vector<double> level_, trend_;
  std::vector<std::vector<double>> season_;
  size_t season_pos_ = 0;
  size_t steps_seen_ = 0;
};

}  // namespace sofia

#endif  // SOFIA_BASELINES_SMF_H_
