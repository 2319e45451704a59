#include "baselines/cp_wopt_stream.hpp"

#include <utility>

#include "baselines/common.hpp"
#include "util/check.hpp"
#include "util/state_io.hpp"

namespace sofia {

void CpWoptStream::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "cp-wopt-stream", 1);
  state_io::WriteMatrixList(out, factors_);
}

void CpWoptStream::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "cp-wopt-stream", 1);
  std::vector<Matrix> factors = state_io::ReadMatrixList(in);
  for (const Matrix& f : factors) {
    state_io::Require(f.cols() == options_.rank,
                      "cp-wopt-stream checkpoint has the wrong rank");
  }
  factors_ = std::move(factors);
}

StepResult CpWoptStream::StepLazy(const DenseTensor& y, const Mask& omega,
                                  std::shared_ptr<const CooList> pattern) {
  SOFIA_CHECK(y.shape() == omega.shape());
  CpWoptOptions batch_options;
  batch_options.rank = options_.rank;
  batch_options.max_iterations = options_.iterations_per_step;
  batch_options.gradient_tolerance = options_.gradient_tolerance;
  batch_options.seed = options_.seed;

  // No factors yet, or factors of another slice shape (restored from a
  // checkpoint of a different stream): take the random start.
  const std::vector<Matrix>* warm =
      FitsSliceShape(factors_, y.shape()) ? &factors_ : nullptr;
  WorkerPool* pool =
      pool_ != nullptr && pool_->num_threads() > 1 ? pool_.get() : nullptr;
  CpWoptResult solved = CpWoptFactorize(y, omega, batch_options,
                                        std::move(pattern), warm, pool);
  factors_ = std::move(solved.factors);

  // The slice *is* the full Kruskal product of its own factors: a Kruskal
  // view with unit combination weights.
  return StepResult::Kruskal(factors_,
                             std::vector<double>(options_.rank, 1.0));
}

}  // namespace sofia
