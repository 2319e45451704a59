#include "baselines/cp_wopt.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "baselines/observed_sweep.hpp"
#include "optim/lbfgsb.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sofia {

namespace {

/// Packs factor matrices into the solver's flat parameter vector
/// (mode-major, each factor row-major), checking that factor n is
/// shape.dim(n) x rank: the packed kernel locates rows by offset alone.
std::vector<double> Pack(const std::vector<Matrix>& factors,
                         const Shape& shape, size_t rank) {
  SOFIA_CHECK_EQ(factors.size(), shape.order());
  std::vector<double> x;
  for (size_t mode = 0; mode < factors.size(); ++mode) {
    const Matrix& f = factors[mode];
    SOFIA_CHECK_EQ(f.rows(), shape.dim(mode));
    SOFIA_CHECK_EQ(f.cols(), rank);
    x.insert(x.end(), f.data(), f.data() + f.size());
  }
  return x;
}

/// Unpacks a flat parameter vector into factor matrices of the given shape.
std::vector<Matrix> Unpack(const std::vector<double>& x, const Shape& shape,
                           size_t rank) {
  std::vector<Matrix> factors;
  size_t offset = 0;
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    Matrix f(shape.dim(mode), rank);
    std::copy(x.begin() + static_cast<long>(offset),
              x.begin() + static_cast<long>(offset + f.size()), f.data());
    offset += f.size();
    factors.push_back(std::move(f));
  }
  return factors;
}

size_t FactorRank(const std::vector<Matrix>& factors) {
  return factors.empty() ? 0 : factors[0].cols();
}

/// Objective adapter for the quasi-Newton solver with analytic gradients.
/// The mask never changes across iterates, so the COO structure and the
/// gathered observed values are compacted exactly once (or adopted from a
/// caller that already shares the pattern, e.g. a comparison run). Every
/// evaluation runs the packed kernel on the solver's own vectors.
class CpWoptObjective : public Objective {
 public:
  CpWoptObjective(const DenseTensor& y, const Mask& omega, size_t rank,
                  std::shared_ptr<const CooList> pattern, WorkerPool* pool)
      : coo_(pattern != nullptr
                 ? std::move(pattern)
                 : MakeSharedPattern(omega, /*with_mode_buckets=*/false)),
        values_(coo_->Gather(y)),
        rank_(rank),
        pool_(pool) {}

  double Value(const std::vector<double>& x) const override {
    return CooCpWoptLoss(*coo_, values_, x, rank_, pool_);
  }

  void Gradient(const std::vector<double>& x,
                std::vector<double>* grad) const override {
    CooCpWoptGradient(*coo_, values_, x, rank_, grad, pool_);
  }

 private:
  std::shared_ptr<const CooList> coo_;
  std::vector<double> values_;
  size_t rank_;
  WorkerPool* pool_;
};

}  // namespace

double CpWoptLoss(const CooList& coo, const std::vector<double>& values,
                  const std::vector<Matrix>& factors) {
  const size_t rank = FactorRank(factors);
  return CooCpWoptLoss(coo, values, Pack(factors, coo.shape(), rank), rank);
}

std::vector<Matrix> CpWoptGradient(const CooList& coo,
                                   const std::vector<double>& values,
                                   const std::vector<Matrix>& factors) {
  const size_t rank = FactorRank(factors);
  std::vector<double> grad;
  CooCpWoptGradient(coo, values, Pack(factors, coo.shape(), rank), rank,
                    &grad);
  return Unpack(grad, coo.shape(), rank);
}

double CpWoptLoss(const DenseTensor& y, const Mask& omega,
                  const std::vector<Matrix>& factors) {
  SOFIA_CHECK(y.shape() == omega.shape());
  const std::shared_ptr<const CooList> coo =
      MakeSharedPattern(omega, /*with_mode_buckets=*/false);
  return CpWoptLoss(*coo, coo->Gather(y), factors);
}

std::vector<Matrix> CpWoptGradient(const DenseTensor& y, const Mask& omega,
                                   const std::vector<Matrix>& factors) {
  SOFIA_CHECK(y.shape() == omega.shape());
  const std::shared_ptr<const CooList> coo =
      MakeSharedPattern(omega, /*with_mode_buckets=*/false);
  return CpWoptGradient(*coo, coo->Gather(y), factors);
}

CpWoptResult CpWoptFactorize(const DenseTensor& y, const Mask& omega,
                             const CpWoptOptions& options,
                             std::shared_ptr<const CooList> pattern,
                             const std::vector<Matrix>* initial,
                             WorkerPool* pool) {
  SOFIA_CHECK(y.shape() == omega.shape());
  std::vector<Matrix> random_start;
  if (initial == nullptr) {
    Rng rng(options.seed);
    for (size_t mode = 0; mode < y.order(); ++mode) {
      random_start.push_back(
          Matrix::Random(y.dim(mode), options.rank, rng, 0.0, 1.0));
    }
    initial = &random_start;
  }
  std::vector<double> x0 = Pack(*initial, y.shape(), options.rank);

  CpWoptObjective objective(y, omega, options.rank, std::move(pattern), pool);
  const size_t n = x0.size();
  const std::vector<double> lower(n, -std::numeric_limits<double>::infinity());
  const std::vector<double> upper(n, std::numeric_limits<double>::infinity());
  LbfgsbOptions solver_options;
  solver_options.max_iterations = options.max_iterations;
  solver_options.gradient_tolerance = options.gradient_tolerance;
  LbfgsbResult solved =
      LbfgsbMinimize(objective, std::move(x0), lower, upper, solver_options);

  CpWoptResult result;
  result.factors = Unpack(solved.x, y.shape(), options.rank);
  result.loss = solved.f;
  result.iterations = solved.iterations;
  result.converged = solved.converged;
  return result;
}

CpWoptResult CpWopt(const DenseTensor& y, const Mask& omega,
                    const CpWoptOptions& options,
                    std::shared_ptr<const CooList> pattern) {
  CpWoptResult result =
      CpWoptFactorize(y, omega, options, std::move(pattern), nullptr);
  result.completed = KruskalTensor(result.factors);
  return result;
}

}  // namespace sofia
