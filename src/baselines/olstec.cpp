#include "baselines/olstec.hpp"

#include <algorithm>
#include <utility>

#include "baselines/common.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/check.hpp"
#include "util/state_io.hpp"

namespace sofia {

void Olstec::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "olstec", 1);
  state_io::WriteMatrixList(out, factors_);
  // Each mode's covariance block is written as one R x R matrix per row.
  const size_t rank = options_.rank;
  out << cov_.size() << '\n';
  for (const Matrix& blocks : cov_) {
    std::vector<Matrix> per_row(blocks.rows() / rank, Matrix(rank, rank));
    for (size_t i = 0; i < per_row.size(); ++i) {
      std::copy_n(blocks.Row(i * rank), rank * rank, per_row[i].data());
    }
    state_io::WriteMatrixList(out, per_row);
  }
}

void Olstec::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "olstec", 1);
  std::vector<Matrix> factors = state_io::ReadMatrixList(in);
  size_t modes = 0;
  state_io::Require(static_cast<bool>(in >> modes) && modes <= 16,
                    "corrupt olstec checkpoint");
  std::vector<std::vector<Matrix>> cov;
  cov.reserve(modes);
  for (size_t n = 0; n < modes; ++n) {
    cov.push_back(state_io::ReadMatrixList(in));
  }
  // The RLS sweep reads an R x R covariance for every row of every factor.
  const size_t rank = options_.rank;
  state_io::Require(cov.size() == factors.size(),
                    "olstec checkpoint has the wrong covariance count");
  std::vector<Matrix> blocks;
  for (size_t n = 0; n < factors.size(); ++n) {
    state_io::Require(factors[n].cols() == rank &&
                          cov[n].size() == factors[n].rows(),
                      "olstec checkpoint has the wrong shape");
    blocks.emplace_back(cov[n].size() * rank, rank);
    for (size_t i = 0; i < cov[n].size(); ++i) {
      const Matrix& p = cov[n][i];
      state_io::Require(p.rows() == rank && p.cols() == rank,
                        "olstec checkpoint has the wrong rank");
      std::copy_n(p.data(), rank * rank, blocks.back().Row(i * rank));
    }
  }
  factors_ = std::move(factors);
  cov_ = std::move(blocks);
}

StepResult Olstec::StepLazy(const DenseTensor& y, const Mask& omega,
                            std::shared_ptr<const CooList> pattern) {
  return StepShared(y, omega, std::move(pattern), /*want_result=*/true);
}

void Olstec::Observe(const DenseTensor& y, const Mask& omega) {
  StepShared(y, omega, nullptr, /*want_result=*/false);
}

StepResult Olstec::StepShared(const DenseTensor& y, const Mask& omega,
                              std::shared_ptr<const CooList> pattern,
                              bool want_result) {
  const size_t rank = options_.rank;
  // No factors yet, or restored factors of another slice shape: take the
  // random start.
  if (!FitsSliceShape(factors_, y.shape())) {
    factors_ = RandomNontemporalFactors(y.shape(), rank, options_.seed);
    // P_i = delta * I for every row: rows of δ·I stacked per mode.
    const Matrix start = Matrix::Identity(rank) * options_.delta;
    cov_.clear();
    for (const Matrix& factor : factors_) {
      cov_.emplace_back(factor.rows() * rank, rank);
      for (size_t i = 0; i < factor.rows(); ++i) {
        std::copy_n(start.data(), rank * rank, cov_.back().Row(i * rank));
      }
    }
  }
  sweep_.BeginStep(y, omega, std::move(pattern));
  const CooList& coo = sweep_.pattern();
  const std::vector<double>& values = sweep_.values();

  std::vector<double> w =
      sweep_.SolveTemporalRow(factors_, values, options_.ridge);

  // Row-wise RLS sweep over the compacted records, in ascending linear
  // order (the bucket-free record order).
  CooOlstecSweep(coo, values, w, options_.forgetting, &factors_, &cov_);

  if (!want_result) return StepResult();
  // Re-solve the temporal row against the refreshed factors; the estimate
  // stays lazy as the (factors, row) Kruskal structure.
  w = sweep_.SolveTemporalRow(factors_, values, options_.ridge);
  return StepResult::Kruskal(factors_, std::move(w));
}

}  // namespace sofia
