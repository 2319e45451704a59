#include "tensor/sparse_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dense_oracle.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/products.hpp"
#include "util/rng.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace {

Mask RandomMask(const Shape& shape, double density, Rng& rng) {
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

std::vector<Matrix> RandomFactors(const Shape& shape, size_t rank, Rng& rng) {
  std::vector<Matrix> factors;
  for (size_t n = 0; n < shape.order(); ++n) {
    factors.push_back(Matrix::RandomNormal(shape.dim(n), rank, rng));
  }
  return factors;
}

TEST(CooListTest, RecordsMatchMaskInLinearOrder) {
  Rng rng(301);
  Shape shape({4, 3, 5});
  Mask omega = RandomMask(shape, 0.4, rng);
  CooList coo = CooList::Build(omega);
  EXPECT_EQ(coo.nnz(), omega.CountObserved());
  EXPECT_EQ(coo.shape(), shape);
  size_t record = 0;
  std::vector<size_t> idx(shape.order(), 0);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      ASSERT_LT(record, coo.nnz());
      EXPECT_EQ(coo.LinearIndex(record), linear);
      for (size_t n = 0; n < shape.order(); ++n) {
        EXPECT_EQ(coo.Index(record, n), idx[n]);
      }
      ++record;
    }
    shape.Next(&idx);
  }
  EXPECT_EQ(record, coo.nnz());
}

TEST(CooListTest, SliceBucketsPartitionRecords) {
  Rng rng(303);
  Shape shape({5, 4, 6});
  Mask omega = RandomMask(shape, 0.3, rng);
  CooList coo = CooList::Build(omega);
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    const std::vector<uint32_t>& order = coo.ModeOrder(mode);
    const std::vector<size_t>& ptr = coo.SlicePtr(mode);
    ASSERT_EQ(ptr.size(), shape.dim(mode) + 1);
    EXPECT_EQ(ptr.front(), 0u);
    EXPECT_EQ(ptr.back(), coo.nnz());
    for (size_t s = 0; s < shape.dim(mode); ++s) {
      for (size_t p = ptr[s]; p < ptr[s + 1]; ++p) {
        EXPECT_EQ(coo.Index(order[p], mode), s);
        // Stable bucketing: ascending linear order within a slice.
        if (p > ptr[s]) {
          EXPECT_LT(coo.LinearIndex(order[p - 1]),
                    coo.LinearIndex(order[p]));
        }
      }
    }
  }
}

TEST(CooListTest, BuildForModeBucketsOnlyThatMode) {
  Rng rng(304);
  Shape shape({4, 6, 3});
  Mask omega = RandomMask(shape, 0.4, rng);
  CooList full = CooList::Build(omega);
  CooList records = CooList::Build(omega, /*with_mode_buckets=*/false);
  CooList one = CooList::BuildForMode(omega, 1);
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    EXPECT_TRUE(full.has_mode_bucket(mode));
    EXPECT_FALSE(records.has_mode_bucket(mode));
    EXPECT_EQ(one.has_mode_bucket(mode), mode == 1);
  }
  EXPECT_EQ(one.ModeOrder(1), full.ModeOrder(1));
  EXPECT_EQ(one.SlicePtr(1), full.SlicePtr(1));
  EXPECT_EQ(records.nnz(), full.nnz());
}

TEST(CooListTest, GatherAndGatherResidual) {
  Rng rng(305);
  Shape shape({3, 4, 2});
  DenseTensor y = DenseTensor::RandomNormal(shape, rng);
  DenseTensor o = DenseTensor::RandomNormal(shape, rng, 0.1);
  Mask omega = RandomMask(shape, 0.5, rng);
  CooList coo = CooList::Build(omega);
  std::vector<double> values = coo.Gather(y);
  std::vector<double> residual = coo.GatherResidual(y, o);
  ASSERT_EQ(values.size(), coo.nnz());
  for (size_t k = 0; k < coo.nnz(); ++k) {
    EXPECT_EQ(values[k], y[coo.LinearIndex(k)]);
    EXPECT_EQ(residual[k], y[coo.LinearIndex(k)] - o[coo.LinearIndex(k)]);
  }
}

/// Dense-scan MTTKRP restricted to observed entries, kept verbatim from the
/// pre-COO kernel as the comparison oracle.
Matrix ReferenceMaskedMttkrp(const DenseTensor& x, const Mask& omega,
                             const std::vector<Matrix>& factors, size_t mode) {
  const Shape& shape = x.shape();
  const size_t rank = factors[0].cols();
  Matrix out(shape.dim(mode), rank, 0.0);
  std::vector<size_t> idx(shape.order(), 0);
  std::vector<double> h(rank);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      const double v = x[linear];
      if (v != 0.0) {
        for (size_t r = 0; r < rank; ++r) h[r] = v;
        for (size_t l = 0; l < factors.size(); ++l) {
          if (l == mode) continue;
          const double* row = factors[l].Row(idx[l]);
          for (size_t r = 0; r < rank; ++r) h[r] *= row[r];
        }
        double* orow = out.Row(idx[mode]);
        for (size_t r = 0; r < rank; ++r) orow[r] += h[r];
      }
    }
    shape.Next(&idx);
  }
  return out;
}

class SparseKernelsDensityTest : public ::testing::TestWithParam<double> {};

TEST_P(SparseKernelsDensityTest, CooMttkrpMatchesDenseThreeWay) {
  const double density = GetParam();
  Rng rng(307);
  Shape shape({7, 5, 6});
  DenseTensor x = DenseTensor::RandomNormal(shape, rng);
  Mask omega = RandomMask(shape, density, rng);
  std::vector<Matrix> factors = RandomFactors(shape, 3, rng);
  CooList coo = CooList::Build(omega);
  std::vector<double> values = coo.Gather(x);
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    Matrix expected = ReferenceMaskedMttkrp(x, omega, factors, mode);
    Matrix got = CooMttkrp(coo, values, factors, mode);
    EXPECT_LE(got.MaxAbsDiff(expected), 1e-12) << "mode " << mode;
    // The public MaskedMttkrp entry point routes through the same kernel.
    Matrix via_api = MaskedMttkrp(x, omega, factors, mode);
    EXPECT_LE(via_api.MaxAbsDiff(expected), 1e-12) << "mode " << mode;
  }
}

TEST_P(SparseKernelsDensityTest, CooRowSystemsMatchDenseFourWay) {
  const double density = GetParam();
  Rng rng(309);
  Shape shape({4, 3, 5, 6});
  DenseTensor y = DenseTensor::RandomNormal(shape, rng);
  DenseTensor o = DenseTensor::RandomNormal(shape, rng, 0.2);
  Mask omega = RandomMask(shape, density, rng);
  std::vector<Matrix> factors = RandomFactors(shape, 4, rng);
  CooList coo = CooList::Build(omega);
  std::vector<double> ystar = coo.GatherResidual(y, o);
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    RowSystems dense =
        dense_oracle::DenseRowSystems(y, omega, o, factors, mode);
    RowSystems sparse = CooRowSystems(coo, ystar, factors, mode);
    ASSERT_EQ(dense.b.size(), sparse.b.size());
    for (size_t i = 0; i < dense.b.size(); ++i) {
      EXPECT_LE(sparse.b[i].MaxAbsDiff(dense.b[i]), 1e-12)
          << "mode " << mode << " row " << i;
      for (size_t r = 0; r < dense.c[i].size(); ++r) {
        EXPECT_NEAR(sparse.c[i][r], dense.c[i][r], 1e-12);
      }
      // The mirrored rank-1 accumulation must stay exactly symmetric.
      EXPECT_LE(sparse.b[i].MaxAbsDiff(sparse.b[i].Transpose()), 0.0);
    }
  }
}

TEST_P(SparseKernelsDensityTest, CooNormsMatchDense) {
  const double density = GetParam();
  Rng rng(311);
  Shape shape({6, 5, 7});
  DenseTensor y = DenseTensor::RandomNormal(shape, rng);
  DenseTensor o = DenseTensor::RandomNormal(shape, rng, 0.1);
  Mask omega = RandomMask(shape, density, rng);
  std::vector<Matrix> factors = RandomFactors(shape, 3, rng);
  CooList coo = CooList::Build(omega);
  std::vector<double> ystar = coo.GatherResidual(y, o);
  const double dense_res =
      dense_oracle::DenseResidualNorm(y, omega, o, factors);
  const double coo_res = CooResidualNorm(coo, ystar, factors);
  EXPECT_NEAR(coo_res, dense_res, 1e-12 * (1.0 + dense_res));
  const double dense_data = dense_oracle::DenseDataNorm(y, omega, o);
  const double coo_data = CooDataNorm(ystar);
  EXPECT_NEAR(coo_data, dense_data, 1e-12 * (1.0 + dense_data));
}

INSTANTIATE_TEST_SUITE_P(Densities, SparseKernelsDensityTest,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0));

TEST(SparseKernelsTest, EmptyMaskYieldsZeroSystemsAndNorms) {
  Rng rng(313);
  Shape shape({4, 5, 3});
  DenseTensor y = DenseTensor::RandomNormal(shape, rng);
  DenseTensor o(shape, 0.0);
  Mask omega(shape, false);
  std::vector<Matrix> factors = RandomFactors(shape, 2, rng);
  CooList coo = CooList::Build(omega);
  EXPECT_EQ(coo.nnz(), 0u);
  std::vector<double> ystar = coo.GatherResidual(y, o);
  Matrix m = CooMttkrp(coo, ystar, factors, 1);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 0.0);
  RowSystems sys = CooRowSystems(coo, ystar, factors, 0);
  for (size_t i = 0; i < sys.b.size(); ++i) {
    EXPECT_DOUBLE_EQ(sys.b[i].FrobeniusNorm(), 0.0);
    for (double v : sys.c[i]) EXPECT_DOUBLE_EQ(v, 0.0);
  }
  EXPECT_DOUBLE_EQ(CooResidualNorm(coo, ystar, factors), 0.0);
  EXPECT_DOUBLE_EQ(CooDataNorm(ystar), 0.0);
}

TEST(SparseKernelsTest, FullyObservedMttkrpMatchesUnmaskedKernel) {
  Rng rng(315);
  Shape shape({5, 4, 3});
  DenseTensor x = DenseTensor::RandomNormal(shape, rng);
  Mask omega(shape, true);
  std::vector<Matrix> factors = RandomFactors(shape, 3, rng);
  CooList coo = CooList::Build(omega);
  std::vector<double> values = coo.Gather(x);
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    Matrix got = CooMttkrp(coo, values, factors, mode);
    Matrix expected = Mttkrp(x, factors, mode);
    EXPECT_LE(got.MaxAbsDiff(expected), 1e-12);
  }
}

// ------------------------------------------- parity grid vs dense oracles
//
// Every Coo kernel against an independent dense scan, over order 3 and 4,
// a single-fiber shape and a length-1 mode, at densities from empty to
// full and at every rank 1..8 (7 takes the dynamic-rank path).

std::vector<Shape> ParityShapes() {
  return {Shape({6, 5, 4}), Shape({5, 4, 3, 2}), Shape({4, 1, 1}),
          Shape({1, 7, 3})};
}

constexpr double kGridDensities[] = {0.0, 0.01, 0.05, 0.5, 1.0};
constexpr size_t kGridMaxRank = 8;

double Tol(double reference) { return 1e-12 * (1.0 + std::abs(reference)); }

/// One grid point: a pattern, record-aligned values scattered into a dense
/// tensor (zero off Ω), factors and a temporal row.
struct GridCase {
  Mask omega;
  CooList coo;
  std::vector<double> values;
  DenseTensor y;
  std::vector<Matrix> factors;
  std::vector<double> w;
};

GridCase MakeGridCase(const Shape& shape, double density, size_t rank,
                      uint64_t seed) {
  Rng rng(seed);
  GridCase g{RandomMask(shape, density, rng), {}, {}, DenseTensor(shape, 0.0),
             RandomFactors(shape, rank, rng), {}};
  g.coo = CooList::Build(g.omega);
  for (size_t k = 0; k < g.coo.nnz(); ++k) {
    g.values.push_back(rng.Uniform(-2.0, 2.0));
    g.y[g.coo.LinearIndex(k)] = g.values.back();
  }
  for (size_t r = 0; r < rank; ++r) g.w.push_back(rng.Uniform(-1.0, 1.0));
  return g;
}

/// Runs `check` on every grid point, with the point in the failure trace.
template <typename Fn>
void ForEachGridCase(uint64_t seed, Fn&& check) {
  for (const Shape& shape : ParityShapes()) {
    for (double density : kGridDensities) {
      for (size_t rank = 1; rank <= kGridMaxRank; ++rank) {
        SCOPED_TRACE(::testing::Message() << shape.ToString() << " density "
                                          << density << " rank " << rank);
        check(MakeGridCase(shape, density, rank, seed++));
      }
    }
  }
}

void ExpectMatrixNear(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      EXPECT_NEAR(got(i, j), want(i, j), Tol(want(i, j)))
          << "(" << i << "," << j << ")";
    }
  }
}

void ExpectVectorNear(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_NEAR(got[k], want[k], Tol(want[k])) << "[" << k << "]";
  }
}

template <typename Systems>
void ExpectSystemsNear(const RowSystems& got, const Systems& want) {
  ASSERT_EQ(got.b.size(), want.b.size());
  for (size_t i = 0; i < want.b.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "row " << i);
    ExpectMatrixNear(got.b[i], want.b[i]);
    ExpectVectorNear(got.c[i], want.c[i]);
  }
}

TEST(SparseKernelsGridTest, MttkrpMatchesDenseScan) {
  ForEachGridCase(1000, [](const GridCase& g) {
    for (size_t mode = 0; mode < g.factors.size(); ++mode) {
      SCOPED_TRACE(::testing::Message() << "mode " << mode);
      ExpectMatrixNear(CooMttkrp(g.coo, g.values, g.factors, mode),
                       ReferenceMaskedMttkrp(g.y, g.omega, g.factors, mode));
    }
  });
}

TEST(SparseKernelsGridTest, RowSystemsMatchDenseOracles) {
  ForEachGridCase(2000, [](const GridCase& g) {
    const DenseTensor zeros(g.y.shape(), 0.0);
    Rng rng(47);
    for (size_t mode = 0; mode < g.factors.size(); ++mode) {
      SCOPED_TRACE(::testing::Message() << "mode " << mode);
      ExpectSystemsNear(CooRowSystems(g.coo, g.values, g.factors, mode),
                        dense_oracle::DenseRowSystems(g.y, g.omega, zeros,
                                                      g.factors, mode));
      const dense_oracle::SliceRowSystems weighted =
          dense_oracle::BuildSliceRowSystems(g.y, g.omega, nullptr, g.factors,
                                             g.w, mode);
      ExpectSystemsNear(
          CooWeightedRowSystems(g.coo, g.values, g.factors, g.w, mode),
          weighted);
      // The fused proximal update, rows with no observations included
      // (the empty-system short-circuit).
      const Matrix previous =
          Matrix::Random(g.factors[mode].rows(), g.w.size(), rng, -1.0, 1.0);
      Matrix got = previous;
      Matrix want = previous;
      CooProximalRowUpdates(g.coo, g.values, g.factors, g.w, mode, previous,
                            0.7, &got);
      dense_oracle::ApplyProximalRowUpdates(weighted, previous, 0.7, &want);
      ExpectMatrixNear(got, want);
    }
  });
}

TEST(SparseKernelsGridTest, GlobalKernelsMatchDenseOracles) {
  ForEachGridCase(3000, [](const GridCase& g) {
    const size_t rank = g.w.size();
    // Temporal normal equations: B = Σ h h^T, c = Σ y h.
    Matrix b(rank, rank, 0.0);
    std::vector<double> c(rank, 0.0);
    dense_oracle::ForEachObserved(
        g.y, g.omega, nullptr, g.factors,
        [&](const std::vector<size_t>&, size_t, double value,
            const std::vector<double>& h) {
          for (size_t r = 0; r < rank; ++r) {
            c[r] += value * h[r];
            for (size_t q = 0; q < rank; ++q) b(r, q) += h[r] * h[q];
          }
        });
    const NormalSystem normal = CooNormalSystem(g.coo, g.values, g.factors);
    ExpectMatrixNear(normal.b, b);
    ExpectVectorNear(normal.c, c);

    // Kruskal gather against the materialized slice.
    const std::vector<double> gathered =
        CooKruskalGather(g.coo, g.factors, g.w);
    const DenseTensor recon = KruskalSlice(g.factors, g.w);
    std::vector<double> recon_at(g.coo.nnz());
    for (size_t k = 0; k < g.coo.nnz(); ++k) {
      recon_at[k] = recon[g.coo.LinearIndex(k)];
    }
    ExpectVectorNear(gathered, recon_at);

    // Baseline factor gradients on the residual y - [[factors; w]].
    std::vector<double> residuals(g.coo.nnz());
    for (size_t k = 0; k < residuals.size(); ++k) {
      residuals[k] = g.values[k] - gathered[k];
    }
    std::vector<std::vector<double>> traces;
    const std::vector<Matrix> grads = dense_oracle::FactorGradients(
        g.y, g.omega, nullptr, g.factors, g.w, &traces);
    const ModeGradients mode_grads =
        CooModeGradients(g.coo, residuals, g.factors, g.w);
    // SOFIA's step gradients on the residual y (no outliers, no forecast).
    const DenseTensor zeros(g.y.shape(), 0.0);
    const StepGradients step_want = dense_oracle::DenseStepGradients(
        g.y, g.omega, zeros, zeros, g.factors, g.w);
    const StepGradients step_got =
        CooStepGradients(g.coo, g.values, g.factors, g.w);
    for (size_t n = 0; n < g.factors.size(); ++n) {
      SCOPED_TRACE(::testing::Message() << "mode " << n);
      ExpectMatrixNear(mode_grads.row_grads[n], grads[n]);
      ExpectVectorNear(mode_grads.row_trace[n], traces[n]);
      ExpectMatrixNear(step_got.row_grads[n], step_want.row_grads[n]);
      ExpectVectorNear(step_got.row_trace[n], step_want.row_trace[n]);
    }
    ExpectVectorNear(step_got.temporal_grad, step_want.temporal_grad);
    EXPECT_NEAR(step_got.temporal_trace, step_want.temporal_trace,
                Tol(step_want.temporal_trace));
  });
}

/// The parallel partition assigns whole work units (slices, fixed record
/// blocks) to threads, so every thread count must produce bitwise-identical
/// results.
TEST(SparseKernelsTest, DeterministicAcrossThreadCounts) {
  Rng rng(317);
  Shape shape({9, 8, 7, 5});
  DenseTensor y = DenseTensor::RandomNormal(shape, rng);
  DenseTensor o = DenseTensor::RandomNormal(shape, rng, 0.3);
  Mask omega = RandomMask(shape, 0.35, rng);
  std::vector<Matrix> factors = RandomFactors(shape, 4, rng);
  CooList coo = CooList::Build(omega);
  std::vector<double> ystar = coo.GatherResidual(y, o);
  // Inline against executors of two sizes: two task-to-thread maps.
  for (size_t threads : {2, 4}) {
    SCOPED_TRACE(threads);
    ShardExecutor pool(threads);
    for (size_t mode = 0; mode < shape.order(); ++mode) {
      Matrix m1 = CooMttkrp(coo, ystar, factors, mode);
      Matrix m4 = CooMttkrp(coo, ystar, factors, mode, &pool);
      EXPECT_EQ(m1.MaxAbsDiff(m4), 0.0) << "mode " << mode;
      RowSystems s1 = CooRowSystems(coo, ystar, factors, mode);
      RowSystems s4 = CooRowSystems(coo, ystar, factors, mode, &pool);
      for (size_t i = 0; i < s1.b.size(); ++i) {
        EXPECT_EQ(s1.b[i].MaxAbsDiff(s4.b[i]), 0.0);
        EXPECT_EQ(s1.c[i], s4.c[i]);
      }
    }
    EXPECT_EQ(CooResidualNorm(coo, ystar, factors),
              CooResidualNorm(coo, ystar, factors, &pool));
  }
}

}  // namespace
}  // namespace sofia
