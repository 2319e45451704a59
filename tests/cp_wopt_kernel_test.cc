// CooCpWoptLoss / CooCpWoptGradient (tensor/sparse_kernels.hpp), CP-WOPT's
// packed loss/gradient kernel, pinned to 1e-12 of the oracle's max-abs
// against the generic run-time rank and order loops it replaced (kept below
// as the oracle): orders 2-4, every compile-time rank plus a run-time one,
// and the multi-task gradient split past 4096 records. The tolerance holds
// in a global -mfma build too, which may contract the oracle and the kernel
// differently. Any worker pool gives the inline call's bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "expect_close.hpp"
#include "linalg/matrix.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace {

constexpr size_t kBlock = 4096;

/// Oracle loss: 0.5 Σ (v - Σ_r Π_l U^(l)(i_l, r))², summed per 4096-record
/// block in record order, blocks added in order.
double OracleLoss(const CooList& coo, const std::vector<double>& values,
                  const std::vector<Matrix>& factors) {
  const size_t rank = factors[0].cols();
  std::vector<double> prod(rank);
  double total = 0.0;
  for (size_t begin = 0; begin < coo.nnz(); begin += kBlock) {
    const size_t end = std::min(begin + kBlock, coo.nnz());
    double s = 0.0;
    for (size_t k = begin; k < end; ++k) {
      const uint32_t* idx = coo.Coords(k);
      std::fill(prod.begin(), prod.end(), 1.0);
      for (size_t l = 0; l < factors.size(); ++l) {
        const double* row = factors[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) prod[r] *= row[r];
      }
      double recon = 0.0;
      for (size_t r = 0; r < rank; ++r) recon += prod[r];
      const double d = values[k] - recon;
      s += d * d;
    }
    total += s;
  }
  return 0.5 * total;
}

/// Oracle gradient: min(16, ceil(|Ω| / 4096)) contiguous record tasks, each
/// with private accumulators built from prefix/suffix leave-one-out
/// products, added in task order.
std::vector<Matrix> OracleGradient(const CooList& coo,
                                   const std::vector<double>& values,
                                   const std::vector<Matrix>& factors) {
  const size_t rank = factors[0].cols();
  const size_t num_modes = factors.size();
  const size_t nnz = coo.nnz();
  const size_t tasks = std::max<size_t>(
      1, std::min<size_t>(16, (nnz + kBlock - 1) / kBlock));
  std::vector<Matrix> total;
  for (size_t task = 0; task < tasks; ++task) {
    std::vector<Matrix> grads;
    for (const Matrix& f : factors) grads.emplace_back(f.rows(), rank, 0.0);
    std::vector<double> prefix((num_modes + 1) * rank);
    std::vector<double> suffix((num_modes + 1) * rank);
    for (size_t k = task * nnz / tasks; k < (task + 1) * nnz / tasks; ++k) {
      const uint32_t* idx = coo.Coords(k);
      for (size_t r = 0; r < rank; ++r) prefix[r] = 1.0;
      for (size_t l = 0; l < num_modes; ++l) {
        const double* row = factors[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) {
          prefix[(l + 1) * rank + r] = prefix[l * rank + r] * row[r];
        }
      }
      for (size_t r = 0; r < rank; ++r) suffix[num_modes * rank + r] = 1.0;
      for (size_t l = num_modes; l-- > 0;) {
        const double* row = factors[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) {
          suffix[l * rank + r] = suffix[(l + 1) * rank + r] * row[r];
        }
      }
      double recon = 0.0;
      for (size_t r = 0; r < rank; ++r) recon += prefix[num_modes * rank + r];
      const double resid = values[k] - recon;
      for (size_t l = 0; l < num_modes; ++l) {
        double* grow = grads[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) {
          grow[r] -= resid * prefix[l * rank + r] * suffix[(l + 1) * rank + r];
        }
      }
    }
    if (task == 0) {
      total = std::move(grads);
    } else {
      for (size_t l = 0; l < num_modes; ++l) total[l] += grads[l];
    }
  }
  return total;
}

std::vector<double> PackFactors(const std::vector<Matrix>& factors) {
  std::vector<double> x;
  for (const Matrix& f : factors) {
    x.insert(x.end(), f.data(), f.data() + f.size());
  }
  return x;
}

struct Problem {
  CooList coo;
  std::vector<double> values;
  std::vector<Matrix> factors;
};

Problem MakeProblem(const std::vector<size_t>& dims, size_t rank,
                    double observed, uint64_t seed) {
  Rng rng(seed);
  const Shape shape(dims);
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(observed));
  }
  const DenseTensor y = DenseTensor::RandomNormal(shape, rng);
  Problem p{CooList::Build(omega, /*with_mode_buckets=*/false), {}, {}};
  p.values = p.coo.Gather(y);
  for (const size_t dim : dims) {
    p.factors.push_back(Matrix::RandomNormal(dim, rank, rng));
  }
  return p;
}

/// Loss and gradient calls against the oracle, to 1e-12 of its max-abs:
/// the kernel's sums may contract to fused multiply-adds where the oracle's
/// do not.
void ExpectMatchesOracle(const Problem& p) {
  const size_t rank = p.factors[0].cols();
  const std::vector<double> x = PackFactors(p.factors);
  EXPECT_TRUE(CloseTo({OracleLoss(p.coo, p.values, p.factors)},
                      {CooCpWoptLoss(p.coo, p.values, x, rank)}, 1e-12));

  std::vector<double> grad(3, -1.0);  // Resized and overwritten.
  CooCpWoptGradient(p.coo, p.values, x, rank, &grad);
  EXPECT_TRUE(CloseTo(PackFactors(OracleGradient(p.coo, p.values, p.factors)),
                      grad, 1e-12));
}

/// Loss and gradient on `pool` against the inline calls, bit for bit: a
/// pool only changes which thread runs a task.
void ExpectPoolMatchesInline(const Problem& p, WorkerPool* pool) {
  const size_t rank = p.factors[0].cols();
  const std::vector<double> x = PackFactors(p.factors);
  EXPECT_EQ(CooCpWoptLoss(p.coo, p.values, x, rank, pool),
            CooCpWoptLoss(p.coo, p.values, x, rank));
  std::vector<double> grad, inline_grad;
  CooCpWoptGradient(p.coo, p.values, x, rank, &grad, pool);
  CooCpWoptGradient(p.coo, p.values, x, rank, &inline_grad);
  ASSERT_EQ(grad.size(), inline_grad.size());
  for (size_t i = 0; i < grad.size(); ++i) {
    ASSERT_EQ(grad[i], inline_grad[i]) << "gradient entry " << i;
  }
}

TEST(CpWoptKernelTest, MatchesOracleForEveryRankAndOrder) {
  // Order 2 takes the order-specialized path, 3 and 4 the run-time one;
  // rank 7 has no compile-time instantiation.
  const std::vector<std::vector<size_t>> shapes = {
      {9, 7}, {6, 5, 4}, {4, 3, 5, 3}};
  uint64_t seed = 300;
  for (const std::vector<size_t>& dims : shapes) {
    for (const size_t rank : {1, 2, 3, 4, 5, 6, 7, 8, 16}) {
      SCOPED_TRACE("order " + std::to_string(dims.size()) + " rank " +
                   std::to_string(rank));
      ExpectMatchesOracle(MakeProblem(dims, rank, 0.7, ++seed));
    }
  }
}

TEST(CpWoptKernelTest, MultiTaskGradientSplitMatchesOracleOnAnyPool) {
  // > 4096 observed records: the loss sums 3-5 blocks and the gradient
  // adds as many task slabs, so both combine orders are pinned. Pools only
  // change which thread runs a task; each size is a different map, and
  // each must give the inline call's bits.
  ShardExecutor executor3(3);
  ShardExecutor executor4(4);
  uint64_t seed = 400;
  for (const std::vector<size_t>& dims : std::vector<std::vector<size_t>>{
           {120, 90}, {160, 130}, {30, 20, 18}, {40, 30, 17}}) {
    const Problem p = MakeProblem(dims, 5, 0.95, ++seed);
    ASSERT_GT(p.coo.nnz(), 2 * kBlock);
    SCOPED_TRACE("order " + std::to_string(dims.size()));
    ExpectMatchesOracle(p);
    ExpectPoolMatchesInline(p, &executor3);
    ExpectPoolMatchesInline(p, &executor4);
  }
}

TEST(CpWoptKernelTest, EmptyPatternHasZeroLossAndGradient) {
  const Problem p = MakeProblem({5, 4}, 3, 0.0, 500);
  ASSERT_EQ(p.coo.nnz(), 0u);
  const std::vector<double> x = PackFactors(p.factors);
  EXPECT_EQ(CooCpWoptLoss(p.coo, p.values, x, 3), 0.0);
  std::vector<double> grad;
  CooCpWoptGradient(p.coo, p.values, x, 3, &grad);
  ASSERT_EQ(grad.size(), 27u);
  for (const double g : grad) EXPECT_EQ(g, 0.0);
}

}  // namespace
}  // namespace sofia
