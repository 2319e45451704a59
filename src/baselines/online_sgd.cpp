#include "baselines/online_sgd.hpp"

#include <algorithm>
#include <utility>

#include "baselines/common.hpp"
#include "util/state_io.hpp"

namespace sofia {

void OnlineSgd::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "online-sgd", 1);
  state_io::WriteMatrixList(out, factors_);
}

void OnlineSgd::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "online-sgd", 1);
  std::vector<Matrix> factors = state_io::ReadMatrixList(in);
  for (const Matrix& f : factors) {
    state_io::Require(f.cols() == options_.rank,
                      "online-sgd checkpoint has the wrong rank");
  }
  factors_ = std::move(factors);
}

StepResult OnlineSgd::StepLazy(const DenseTensor& y, const Mask& omega,
                               std::shared_ptr<const CooList> pattern) {
  return StepShared(y, omega, std::move(pattern), /*want_result=*/true);
}

void OnlineSgd::Observe(const DenseTensor& y, const Mask& omega) {
  StepShared(y, omega, nullptr, /*want_result=*/false);
}

StepResult OnlineSgd::StepShared(const DenseTensor& y, const Mask& omega,
                                 std::shared_ptr<const CooList> pattern,
                                 bool want_result) {
  // No factors yet, or restored factors of another slice shape: take the
  // random start.
  if (!FitsSliceShape(factors_, y.shape())) {
    factors_ = RandomNontemporalFactors(y.shape(), options_.rank,
                                        options_.seed);
  }
  sweep_.BeginStep(y, omega, std::move(pattern));
  const std::vector<double>& values = sweep_.values();
  // Temporal row: regularized LS on the observed entries.
  std::vector<double> w =
      sweep_.SolveTemporalRow(factors_, values, options_.ridge);

  // Residuals at the current iterate, then per-row gradients + curvature
  // traces over the |Ω_t| records.
  std::vector<double> residuals = sweep_.Reconstruct(factors_, w);
  for (size_t k = 0; k < residuals.size(); ++k) {
    residuals[k] = values[k] - residuals[k];
  }
  const ModeGradients g = sweep_.Gradients(factors_, w, residuals);

  // One SGD step on each non-temporal factor (all gradients at the current
  // iterate, applied simultaneously). The step is capped at the per-row
  // stability bound 0.5 / tr(H_row) — the paper tuned each baseline's step
  // by grid search, and an uncapped 0.1 step diverges on small slices.
  for (size_t l = 0; l < factors_.size(); ++l) {
    for (size_t i = 0; i < factors_[l].rows(); ++i) {
      const double trace = g.row_trace[l][i];
      const double mu =
          trace > 0.0 ? std::min(options_.learning_rate, 0.5 / trace)
                      : options_.learning_rate;
      double* row = factors_[l].Row(i);
      const double* grow = g.row_grads[l].Row(i);
      for (size_t r = 0; r < options_.rank; ++r) {
        row[r] += 2.0 * mu * grow[r];
      }
    }
  }
  return want_result ? StepResult::Kruskal(factors_, std::move(w))
                     : StepResult();
}

}  // namespace sofia
