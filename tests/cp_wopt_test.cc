#include "baselines/cp_wopt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/observed_sweep.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace {

TEST(CpWoptTest, AnalyticGradientMatchesFiniteDifferences) {
  Rng rng(41);
  std::vector<Matrix> factors = {Matrix::RandomNormal(3, 2, rng),
                                 Matrix::RandomNormal(4, 2, rng),
                                 Matrix::RandomNormal(2, 2, rng)};
  DenseTensor y = DenseTensor::RandomNormal(Shape({3, 4, 2}), rng);
  Mask omega(y.shape(), true);
  omega.Set(0, false);
  omega.Set(7, false);

  std::vector<Matrix> grads = CpWoptGradient(y, omega, factors);
  const double h = 1e-6;
  for (size_t l = 0; l < factors.size(); ++l) {
    for (size_t i = 0; i < factors[l].rows(); ++i) {
      for (size_t r = 0; r < 2; ++r) {
        std::vector<Matrix> probe = factors;
        probe[l](i, r) += h;
        const double fp = CpWoptLoss(y, omega, probe);
        probe[l](i, r) -= 2 * h;
        const double fm = CpWoptLoss(y, omega, probe);
        EXPECT_NEAR(grads[l](i, r), (fp - fm) / (2 * h), 1e-5)
            << "mode " << l << " (" << i << "," << r << ")";
      }
    }
  }
}

TEST(CpWoptTest, LossIsZeroAtExactFactors) {
  SyntheticTensor syn = MakeSinusoidTensor(4, 3, 10, 2, 5, 43);
  Mask omega(syn.tensor.shape(), true);
  EXPECT_NEAR(CpWoptLoss(syn.tensor, omega, syn.factors), 0.0, 1e-18);
  std::vector<Matrix> grads =
      CpWoptGradient(syn.tensor, omega, syn.factors);
  for (const Matrix& g : grads) EXPECT_LT(g.FrobeniusNorm(), 1e-9);
}

TEST(CpWoptTest, CompletesIncompleteLowRankTensor) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, 15, 2, 5, 47);
  Mask omega(syn.tensor.shape(), true);
  Rng rng(48);
  for (size_t k = 0; k < omega.shape().NumElements(); ++k) {
    if (rng.Bernoulli(0.35)) omega.Set(k, false);
  }
  CpWoptResult res =
      CpWopt(syn.tensor, omega, CpWoptOptions{.rank = 2, .seed = 49});
  EXPECT_LT(NormalizedResidualError(res.completed, syn.tensor), 0.1);
}

TEST(CpWoptTest, SharedPatternOverloadsMatchDensePairEntryPoints) {
  Rng rng(53);
  std::vector<Matrix> factors = {Matrix::RandomNormal(4, 2, rng),
                                 Matrix::RandomNormal(3, 2, rng),
                                 Matrix::RandomNormal(2, 2, rng)};
  DenseTensor y = DenseTensor::RandomNormal(Shape({4, 3, 2}), rng);
  Mask omega(y.shape(), true);
  for (size_t k = 0; k < omega.shape().NumElements(); ++k) {
    if (rng.Bernoulli(0.3)) omega.Set(k, false);
  }

  // One pattern, gathered once, reused for both the loss and the gradient
  // (the build-once path the comparison runner takes).
  std::shared_ptr<const CooList> pattern =
      MakeSharedPattern(omega, /*with_mode_buckets=*/false);
  std::vector<double> values = pattern->Gather(y);

  EXPECT_EQ(CpWoptLoss(*pattern, values, factors),
            CpWoptLoss(y, omega, factors));
  std::vector<Matrix> shared_grads = CpWoptGradient(*pattern, values, factors);
  std::vector<Matrix> dense_grads = CpWoptGradient(y, omega, factors);
  ASSERT_EQ(shared_grads.size(), dense_grads.size());
  for (size_t l = 0; l < shared_grads.size(); ++l) {
    EXPECT_EQ(shared_grads[l].MaxAbsDiff(dense_grads[l]), 0.0);
  }
}

TEST(CpWoptTest, SharedPatternRunMatchesInternalBuild) {
  SyntheticTensor syn = MakeSinusoidTensor(5, 4, 10, 2, 5, 55);
  Mask omega(syn.tensor.shape(), true);
  Rng rng(56);
  for (size_t k = 0; k < omega.shape().NumElements(); ++k) {
    if (rng.Bernoulli(0.3)) omega.Set(k, false);
  }
  CpWoptOptions options{.rank = 2, .max_iterations = 30, .seed = 57};
  CpWoptResult internal = CpWopt(syn.tensor, omega, options);
  CpWoptResult shared =
      CpWopt(syn.tensor, omega, options, MakeSharedPattern(omega));
  EXPECT_EQ(internal.loss, shared.loss);
  EXPECT_EQ(internal.iterations, shared.iterations);
  DenseTensor diff = internal.completed;
  diff -= shared.completed;
  EXPECT_EQ(diff.MaxAbs(), 0.0);
}

TEST(CpWoptTest, MisShapedWarmStartIsRejectedBeforeTheSolve) {
  // The packed kernel locates rows by offset, so a mis-shaped warm start
  // must fail CpWoptFactorize's own check, not a size check deeper in the
  // solver (or none, once the kernel reads past a factor).
  Rng rng(59);
  DenseTensor y = DenseTensor::RandomNormal(Shape({4, 3}), rng);
  Mask omega(y.shape(), true);
  const std::vector<Matrix> rank2 = {Matrix::RandomNormal(4, 2, rng),
                                     Matrix::RandomNormal(3, 2, rng)};
  const CpWoptOptions rank3{.rank = 3, .max_iterations = 2};
  EXPECT_DEATH(CpWoptFactorize(y, omega, rank3, nullptr, &rank2),
               "cp_wopt\\.cpp");
  const std::vector<Matrix> short_rows = {Matrix::RandomNormal(3, 3, rng),
                                          Matrix::RandomNormal(3, 3, rng)};
  EXPECT_DEATH(CpWoptFactorize(y, omega, rank3, nullptr, &short_rows),
               "cp_wopt\\.cpp");
}

TEST(CpWoptTest, LossDecreasesFromRandomStart) {
  SyntheticTensor syn = MakeSinusoidTensor(5, 4, 12, 2, 4, 51);
  Mask omega(syn.tensor.shape(), true);
  Rng rng(52);
  std::vector<Matrix> random_start;
  for (size_t n = 0; n < 3; ++n) {
    random_start.push_back(
        Matrix::Random(syn.tensor.dim(n), 2, rng, 0.0, 1.0));
  }
  const double initial = CpWoptLoss(syn.tensor, omega, random_start);
  CpWoptResult res =
      CpWopt(syn.tensor, omega, CpWoptOptions{.rank = 2, .seed = 52});
  EXPECT_LT(res.loss, initial);
}

}  // namespace
}  // namespace sofia
