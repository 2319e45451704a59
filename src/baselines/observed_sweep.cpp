#include "baselines/observed_sweep.hpp"

#include <utility>

#include "linalg/solve.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace sofia {

std::shared_ptr<const CooList> MakeSharedPattern(const Mask& omega,
                                                 bool with_mode_buckets) {
  return std::make_shared<const CooList>(
      CooList::Build(omega, with_mode_buckets));
}

void ObservedSweep::BeginStep(const DenseTensor& y, const Mask& omega,
                              std::shared_ptr<const CooList> shared) {
  static obs::Counter* steps =
      obs::Registry::Global().FindOrCreateCounter("baseline.sweep_steps");
  steps->Add(1);
  SOFIA_CHECK(y.shape() == omega.shape());
  if (shared != nullptr) {
    // The adopted pattern is also the reuse cache, so a later unshared
    // step with the same mask still skips its rebuild.
    SOFIA_CHECK(shared->shape() == omega.shape());
    coo_ = std::move(shared);
  } else if (coo_ != nullptr && coo_->SameObservedSet(omega)) {
    ++pattern_reuses_;
  } else {
    coo_ = MakeSharedPattern(omega, options_.with_mode_buckets);
    ++pattern_builds_;
  }
  coo_->GatherInto(y, &values_);
}

const CooList& ObservedSweep::pattern() const {
  SOFIA_CHECK(coo_ != nullptr) << "ObservedSweep used before BeginStep";
  return *coo_;
}

WorkerPool* ObservedSweep::Pool() const {
  // A single-thread pool is equivalent to the inline path; skip its
  // dispatch entirely so adoption never slows serial methods down.
  return pool_ != nullptr && pool_->num_threads() > 1 ? pool_.get() : nullptr;
}

NormalSystem ObservedSweep::TemporalSystem(
    const std::vector<Matrix>& factors,
    const std::vector<double>& vals) const {
  return CooNormalSystem(pattern(), vals, factors, Pool());
}

std::vector<double> ObservedSweep::SolveTemporalRow(
    const std::vector<Matrix>& factors, const std::vector<double>& vals,
    double ridge) const {
  NormalSystem sys = TemporalSystem(factors, vals);
  for (size_t r = 0; r < sys.c.size(); ++r) sys.b(r, r) += ridge;
  return SolveRidge(sys.b, sys.c);
}

RowSystems ObservedSweep::WeightedRowSystems(
    const std::vector<Matrix>& factors, const std::vector<double>& w,
    const std::vector<double>& vals, size_t mode) const {
  return CooWeightedRowSystems(pattern(), vals, factors, w, mode, Pool());
}

void ObservedSweep::ProximalRowSweep(const std::vector<Matrix>& factors,
                                     const std::vector<double>& w,
                                     const std::vector<double>& vals,
                                     size_t mode, const Matrix& previous,
                                     double mu, Matrix* u) const {
  CooProximalRowUpdates(pattern(), vals, factors, w, mode, previous, mu, u,
                        Pool());
}

ModeGradients ObservedSweep::Gradients(
    const std::vector<Matrix>& factors, const std::vector<double>& w,
    const std::vector<double>& residuals, bool with_traces) const {
  return CooModeGradients(pattern(), residuals, factors, w, Pool(),
                          with_traces);
}

std::vector<double> ObservedSweep::Reconstruct(
    const std::vector<Matrix>& factors, const std::vector<double>& w) const {
  return CooKruskalGather(pattern(), factors, w, Pool());
}

const std::vector<double>& ObservedSweep::SliceReconstruct(
    const std::vector<Matrix>& factors, const std::vector<double>& w) const {
  CooKruskalSliceGather(pattern(), factors, w, &slice_gather_scratch_, Pool());
  return slice_gather_scratch_;
}

}  // namespace sofia
