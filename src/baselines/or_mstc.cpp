#include "baselines/or_mstc.hpp"

#include <utility>

#include "baselines/common.hpp"
#include "core/sofia_als.hpp"  // SoftThreshold
#include "util/state_io.hpp"

namespace sofia {

void OrMstc::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "or-mstc", 1);
  state_io::WriteMatrixList(out, factors_);
}

void OrMstc::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "or-mstc", 1);
  std::vector<Matrix> factors = state_io::ReadMatrixList(in);
  for (const Matrix& f : factors) {
    state_io::Require(f.cols() == options_.rank,
                      "or-mstc checkpoint has the wrong rank");
  }
  factors_ = std::move(factors);
}

StepResult OrMstc::StepLazy(const DenseTensor& y, const Mask& omega,
                            std::shared_ptr<const CooList> pattern) {
  return StepShared(y, omega, std::move(pattern), /*want_result=*/true);
}

void OrMstc::Observe(const DenseTensor& y, const Mask& omega) {
  StepShared(y, omega, nullptr, /*want_result=*/false);
}

StepResult OrMstc::StepShared(const DenseTensor& y, const Mask& omega,
                              std::shared_ptr<const CooList> pattern,
                              bool want_result) {
  // No factors yet, or restored factors of another slice shape: take the
  // random start.
  if (!FitsSliceShape(factors_, y.shape())) {
    factors_ = RandomNontemporalFactors(y.shape(), options_.rank,
                                        options_.seed);
  }
  const size_t rank = options_.rank;
  const double mu = options_.prox_weight;
  const std::vector<Matrix> previous = factors_;
  sweep_.BeginStep(y, omega, std::move(pattern));
  const std::vector<double>& values = sweep_.values();
  const size_t nnz = values.size();

  // The sparse slab is record-aligned: outliers exist only at observed
  // entries, so no dense O_t tensor is ever built.
  std::vector<double> outliers(nnz, 0.0);
  std::vector<double> ystar(nnz, 0.0);
  auto refresh_ystar = [&]() {
    for (size_t k = 0; k < nnz; ++k) ystar[k] = values[k] - outliers[k];
  };

  std::vector<double> w(rank, 0.0);
  for (int iter = 0; iter < options_.inner_iterations; ++iter) {
    refresh_ystar();
    w = sweep_.SolveTemporalRow(factors_, ystar, options_.ridge);
    for (size_t mode = 0; mode < factors_.size(); ++mode) {
      sweep_.ProximalRowSweep(factors_, w, ystar, mode, previous[mode], mu,
                              &factors_[mode]);
    }
    // Sparse slab: soft-threshold the observed residual. SliceReconstruct
    // reproduces KruskalSlice's entry arithmetic, keeping the slab
    // decisions aligned with the dense oracle (bitwise whenever the
    // temporal solves agree bitwise: with SIMD off, on one reduction block
    // — see CooNormalSystem).
    const std::vector<double>& recon = sweep_.SliceReconstruct(factors_, w);
    for (size_t k = 0; k < nnz; ++k) {
      outliers[k] = SoftThreshold(values[k] - recon[k],
                                  options_.outlier_lambda);
    }
  }
  if (!want_result) return StepResult();
  refresh_ystar();
  w = sweep_.SolveTemporalRow(factors_, ystar, options_.ridge);
  return StepResult::Kruskal(factors_, std::move(w));
}

}  // namespace sofia
