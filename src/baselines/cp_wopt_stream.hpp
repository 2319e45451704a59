#ifndef SOFIA_BASELINES_CP_WOPT_STREAM_H_
#define SOFIA_BASELINES_CP_WOPT_STREAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/cp_wopt.hpp"
#include "eval/streaming_method.hpp"
#include "linalg/matrix.hpp"

/// \file cp_wopt_stream.hpp
/// \brief Streaming adapter for CP-WOPT (Acar et al. [9]).
///
/// The batch CP-WOPT solver completes one incomplete tensor by joint
/// first-order optimization. Streamed, each incoming slice is completed by
/// a short warm-started quasi-Newton run on that slice's masked
/// least-squares loss: the previous step's factors seed the next step, so
/// the per-step iteration budget stays small while the factors track the
/// stream. This is the standard "re-optimize per window" adaptation the
/// comparison protocols need to place the batch method on the same axis as
/// the streaming baselines.

namespace sofia {

/// Options for CpWoptStream.
struct CpWoptStreamOptions {
  size_t rank = 5;
  int iterations_per_step = 10;      ///< Quasi-Newton cap per slice.
  double gradient_tolerance = 1e-6;  ///< Early-exit tolerance per slice.
  uint64_t seed = 37;
};

/// Streaming CP-WOPT (no init window; no forecasting).
class CpWoptStream : public StreamingMethod {
 public:
  explicit CpWoptStream(CpWoptStreamOptions options) : options_(options) {}

  std::string name() const override { return "CP-WOPT"; }

  /// Warm-started per-slice completion; the estimate stays lazy as the
  /// slice's own Kruskal structure (unit combination weights).
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern =
                          nullptr) override;

  /// The loss/gradient kernel runs on `pool` when it has more than one
  /// thread; a single-thread pool (the comparison runtime's per-method
  /// lane pool) runs it inline, like ObservedSweep's motifs.
  void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) override {
    pool_ = std::move(pool);
  }

  bool SupportsStateCheckpoint() const override { return true; }
  void SaveState(std::ostream& out) const override;
  /// Throws state_io::StateError on malformed bytes and on factors whose
  /// column count is not the configured rank. The slice shape is unknown
  /// here, so factors whose count or row counts do not fit the next slice
  /// (a state dir reused after the slice shape changed) restore without
  /// error; that step drops them and takes the random start, as the first
  /// step of a fresh stream does.
  void RestoreState(std::istream& in) override;

  const std::vector<Matrix>& factors() const { return factors_; }

 private:
  CpWoptStreamOptions options_;
  std::vector<Matrix> factors_;  ///< Previous slice's factors (warm start).
  std::shared_ptr<WorkerPool> pool_;
};

}  // namespace sofia

#endif  // SOFIA_BASELINES_CP_WOPT_STREAM_H_
