#ifndef SOFIA_BASELINES_OLSTEC_H_
#define SOFIA_BASELINES_OLSTEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/observed_sweep.hpp"
#include "eval/streaming_method.hpp"
#include "linalg/matrix.hpp"

/// \file olstec.hpp
/// \brief OLSTEC baseline (Kasai, ICASSP 2016 [12]).
///
/// Streaming CP completion via recursive least squares: every non-temporal
/// factor row keeps an inverse-covariance matrix P_i that is updated with a
/// forgetting factor as observations arrive, giving faster subspace tracking
/// than SGD at an O(|Ω_t| N R^2) per-step cost (visible in the Fig. 5
/// speed comparison).

namespace sofia {

/// Options for Olstec.
struct OlstecOptions {
  size_t rank = 5;
  double forgetting = 0.98;  ///< RLS forgetting factor λ_f in (0, 1].
  double delta = 10.0;       ///< P_i is initialized to delta * I.
  double ridge = 1e-6;       ///< Tikhonov weight of the temporal solve.
  uint64_t seed = 11;
};

/// OLSTEC streaming method (no init window).
class Olstec : public StreamingMethod {
 public:
  explicit Olstec(OlstecOptions options)
      : options_(options),
        // No bucketed motifs: the temporal solves are record-blocked and
        // the RLS sweep is a sequential record loop.
        sweep_(ObservedSweepOptions{/*with_mode_buckets=*/false}) {}

  std::string name() const override { return "OLSTEC"; }
  /// Lazy step: the refreshed factors + re-solved temporal row as a
  /// Kruskal-view StepResult (no dense reconstruction).
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern =
                          nullptr) override;
  /// Advances the RLS state without the output-only tail (the temporal
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

  OlstecOptions options_;
  ObservedSweep sweep_;
  std::vector<Matrix> factors_;
  /// cov_[mode] stacks the R x R inverse covariance P of every row of that
  /// factor: row i's P is rows [i R, (i + 1) R) (CooOlstecSweep's layout).
  std::vector<Matrix> cov_;
};

}  // namespace sofia

#endif  // SOFIA_BASELINES_OLSTEC_H_
