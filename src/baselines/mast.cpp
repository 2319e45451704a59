#include "baselines/mast.hpp"

#include <utility>

#include "baselines/common.hpp"
#include "util/state_io.hpp"

namespace sofia {

void Mast::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "mast", 1);
  state_io::WriteMatrixList(out, factors_);
}

void Mast::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "mast", 1);
  std::vector<Matrix> factors = state_io::ReadMatrixList(in);
  for (const Matrix& f : factors) {
    state_io::Require(f.cols() == options_.rank,
                      "mast checkpoint has the wrong rank");
  }
  factors_ = std::move(factors);
}

StepResult Mast::StepLazy(const DenseTensor& y, const Mask& omega,
                          std::shared_ptr<const CooList> pattern) {
  return StepShared(y, omega, std::move(pattern), /*want_result=*/true);
}

void Mast::Observe(const DenseTensor& y, const Mask& omega) {
  StepShared(y, omega, nullptr, /*want_result=*/false);
}

StepResult Mast::StepShared(const DenseTensor& y, const Mask& omega,
                            std::shared_ptr<const CooList> pattern,
                            bool want_result) {
  // No factors yet, or restored factors of another slice shape: take the
  // random start.
  if (!FitsSliceShape(factors_, y.shape())) {
    factors_ = RandomNontemporalFactors(y.shape(), options_.rank,
                                        options_.seed);
  }
  const double mu = options_.prox_weight;
  const std::vector<Matrix> previous = factors_;
  sweep_.BeginStep(y, omega, std::move(pattern));
  const std::vector<double>& values = sweep_.values();

  std::vector<double> w(options_.rank, 0.0);
  for (int iter = 0; iter < options_.inner_iterations; ++iter) {
    w = sweep_.SolveTemporalRow(factors_, values, options_.ridge);
    for (size_t mode = 0; mode < factors_.size(); ++mode) {
      sweep_.ProximalRowSweep(factors_, w, values, mode, previous[mode], mu,
                              &factors_[mode]);
    }
  }
  if (!want_result) return StepResult();
  w = sweep_.SolveTemporalRow(factors_, values, options_.ridge);
  return StepResult::Kruskal(factors_, std::move(w));
}

}  // namespace sofia
