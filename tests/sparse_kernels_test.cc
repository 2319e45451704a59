#include "tensor/sparse_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "dense_oracle.hpp"
#include "expect_close.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/products.hpp"
#include "tensor/simd.hpp"
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

TEST(CooListTest, ModeBucketsAreOptional) {
  Rng rng(304);
  Shape shape({4, 6, 3});
  Mask omega = RandomMask(shape, 0.4, rng);
  CooList full = CooList::Build(omega);
  CooList records = CooList::Build(omega, /*with_mode_buckets=*/false);
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    EXPECT_TRUE(full.has_mode_bucket(mode));
    EXPECT_FALSE(records.has_mode_bucket(mode));
  }
  EXPECT_EQ(records.nnz(), full.nnz());
  EXPECT_EQ(records.LinearIndices(), full.LinearIndices());
}

TEST(CooListTest, FromIndicesMatchesDenseBuild) {
  // The |Ω|-scaling construction path must produce the identical
  // structure (records, coords, buckets) as the dense-mask build.
  Rng rng(306);
  Mask omega = RandomMask(Shape({4, 3, 5}), 0.25, rng);
  CooList dense_built = CooList::Build(omega);
  CooList from_idx =
      CooList::FromIndices(omega.shape(), omega.ObservedIndices());
  ASSERT_EQ(from_idx.nnz(), dense_built.nnz());
  EXPECT_EQ(from_idx.LinearIndices(), dense_built.LinearIndices());
  for (size_t k = 0; k < from_idx.nnz(); ++k) {
    for (size_t n = 0; n < from_idx.order(); ++n) {
      EXPECT_EQ(from_idx.Index(k, n), dense_built.Index(k, n));
    }
  }
  for (size_t n = 0; n < from_idx.order(); ++n) {
    EXPECT_EQ(from_idx.ModeOrder(n), dense_built.ModeOrder(n));
    EXPECT_EQ(from_idx.SlicePtr(n), dense_built.SlicePtr(n));
  }
}

/// Every field of `coo` equals the division-based build's, bitwise.
void ExpectMatchesDivisionBuild(const CooList& coo,
                                const dense_oracle::CooRecords& want,
                                bool with_mode_buckets) {
  ASSERT_EQ(coo.nnz(), want.linear.size());
  EXPECT_EQ(coo.LinearIndices(), want.linear);
  const size_t order = coo.order();
  for (size_t k = 0; k < coo.nnz(); ++k) {
    for (size_t n = 0; n < order; ++n) {
      ASSERT_EQ(coo.Index(k, n), want.coords[k * order + n])
          << "record " << k << " mode " << n;
    }
  }
  for (size_t n = 0; n < order; ++n) {
    ASSERT_EQ(coo.has_mode_bucket(n), with_mode_buckets) << "mode " << n;
    if (!with_mode_buckets) continue;
    EXPECT_EQ(coo.ModeOrder(n), want.mode_order[n]) << "mode " << n;
    EXPECT_EQ(coo.SlicePtr(n), want.slice_ptr[n]) << "mode " << n;
  }
}

TEST(CooListTest, BuildAndFromIndicesMatchDivisionOracle) {
  // Orders 1-4 over dims 1, 3 and 65 (a word-multiple fiber plus a tail,
  // a tail-only fiber, and one-entry fibers), 8x8 (whole words only) and
  // 64x64 (the stream slices), at 0%, 1%, 50% and 100% observed.
  const std::vector<Shape> shapes = {
      Shape({65}),         Shape({1}),          Shape({3, 65}),
      Shape({65, 3}),      Shape({1, 65}),      Shape({65, 1}),
      Shape({8, 8}),       Shape({64, 64}),     Shape({3, 1, 65}),
      Shape({65, 3, 1}),   Shape({1, 65, 3}),   Shape({3, 65, 1, 3}),
      Shape({1, 3, 1, 65}), Shape({65, 1, 3, 3})};
  Rng rng(308);
  for (const Shape& shape : shapes) {
    for (const double density : {0.0, 0.01, 0.5, 1.0}) {
      const Mask omega = RandomMask(shape, density, rng);
      for (const bool buckets : {false, true}) {
        SCOPED_TRACE(shape.ToString() + " density " +
                     std::to_string(density) + " buckets " +
                     std::to_string(buckets));
        const dense_oracle::CooRecords want =
            dense_oracle::DivisionCooBuild(omega, buckets);
        ExpectMatchesDivisionBuild(CooList::Build(omega, buckets), want,
                                   buckets);
        ExpectMatchesDivisionBuild(
            CooList::FromIndices(shape, want.linear, buckets), want, buckets);
      }
    }
  }
}

TEST(CooListTest, FromIndicesCarriesAcrossSkippedFibers) {
  // Gaps that skip one fiber, many fibers, and a whole mode-1 block at
  // once exercise each branch of the carry.
  const Shape shape({5, 4, 3, 2});
  const std::vector<size_t> linear = {0, 4, 5, 9, 30, 59, 60, 61, 119};
  Mask omega(shape, false);
  for (const size_t idx : linear) omega.Set(idx, true);
  const dense_oracle::CooRecords want =
      dense_oracle::DivisionCooBuild(omega, true);
  ASSERT_EQ(want.linear, linear);
  ExpectMatchesDivisionBuild(CooList::FromIndices(shape, linear), want, true);
  ExpectMatchesDivisionBuild(CooList::Build(omega), want, true);
}

TEST(CooListTest, SameObservedSetRejectsSubsetsAndSupersets) {
  // Equal count + containment is the equality proof SameObservedSet relies
  // on; strict subsets and supersets must both reject.
  Mask omega(Shape({4, 4}), false);
  omega.Set(1, true);
  omega.Set(9, true);
  CooList coo = CooList::Build(omega);

  Mask superset = omega;
  superset.Set(12, true);
  EXPECT_FALSE(coo.SameObservedSet(superset));  // Count differs.
  EXPECT_FALSE(CooList::Build(superset).SameObservedSet(omega));

  Mask shifted(Shape({4, 4}), false);
  shifted.Set(1, true);
  shifted.Set(10, true);  // Same count, different support.
  EXPECT_FALSE(coo.SameObservedSet(shifted));

  EXPECT_FALSE(coo.SameObservedSet(Mask(Shape({4, 5}), false)));  // Shape.
  EXPECT_TRUE(coo.SameObservedSet(omega));
  EXPECT_TRUE(CooList::Build(Mask(Shape({4, 4}), false))
                  .SameObservedSet(Mask(Shape({4, 4}), false)));
}

TEST(CooListTest, SameObservedSetRejectsMismatchAtLastRecord) {
  // Equal counts, identical supports up to the last record: the walk must
  // reach the end of the records to tell the masks apart.
  Rng rng(307);
  const Shape shape({6, 7});
  const size_t last = shape.NumElements() - 1;
  Mask a = RandomMask(shape, 0.5, rng);
  a.Set(last - 1, false);
  a.Set(last, true);
  Mask b = a;
  b.Set(last, false);
  b.Set(last - 1, true);
  ASSERT_EQ(a.CountObserved(), b.CountObserved());

  const CooList coo_a = CooList::Build(a);
  const CooList coo_b = CooList::Build(b);
  EXPECT_FALSE(coo_a.SameObservedSet(b));
  EXPECT_FALSE(coo_b.SameObservedSet(a));
  EXPECT_TRUE(coo_a.SameObservedSet(a));
  EXPECT_TRUE(coo_b.SameObservedSet(b));
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
// Every Coo kernel against an independent dense scan, over orders 2, 3
// and 4, single-fiber shapes and length-1 modes, at densities from empty
// to full and at every rank 1..17 (ranks outside the compile-time table —
// 7, 9, 11, 13-15 and 17 — take the dynamic-rank path; order 4 takes the
// run-time-order path of the row-system kernels).

std::vector<Shape> ParityShapes() {
  return {Shape({6, 5, 4}), Shape({5, 4, 3, 2}), Shape({4, 1, 1}),
          Shape({1, 7, 3}), Shape({7, 6}),       Shape({1, 5})};
}

constexpr double kGridDensities[] = {0.0, 0.01, 0.05, 0.5, 1.0};
constexpr size_t kGridMaxRank = 17;

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
    for (size_t n = 0; n < g.factors.size(); ++n) {
      SCOPED_TRACE(::testing::Message() << "mode " << n);
      ExpectMatrixNear(mode_grads.row_grads[n], grads[n]);
      ExpectVectorNear(mode_grads.row_trace[n], traces[n]);
    }
  });
}

/// CooNormalSystem against the scalar record-order kernel it replaced
/// (dense_oracle::RecordOrderNormalSystem): bitwise with SIMD off, where
/// each B and c element takes the same multiply-then-add in the same order
/// and B's mirrored triangle equals the product the reference computes, and
/// within 1e-12 relative with SIMD on (fused multiply-adds). Orders 2 and 3
/// take the order-specialized paths and order 4 the run-time one; ranks
/// 1..17 cover the fixed ranks, the dynamic ones and the padded lanes (5,
/// 7); the cases include an empty pattern and a 24x24x24 slice at 70%
/// (~9,700 records, three reduction blocks).
TEST(SparseKernelsTest, NormalSystemMatchesRecordOrderReference) {
  const bool prev = simd::Enabled();
  const std::vector<std::pair<Shape, double>> cases = {
      {Shape({7, 6}), 0.6},       {Shape({6, 5, 4}), 0.6},
      {Shape({5, 4, 3, 2}), 0.6}, {Shape({6, 5}), 0.0},
      {Shape({24, 24, 24}), 0.7}};
  uint64_t seed = 8000;
  for (const auto& [shape, density] : cases) {
    for (size_t rank = 1; rank <= kGridMaxRank; ++rank) {
      SCOPED_TRACE(::testing::Message() << shape.ToString() << " density "
                                        << density << " rank " << rank);
      const GridCase g = MakeGridCase(shape, density, rank, seed++);
      const NormalSystem want =
          dense_oracle::RecordOrderNormalSystem(g.coo, g.values, g.factors);
      simd::SetEnabled(false);
      const NormalSystem scalar = CooNormalSystem(g.coo, g.values, g.factors);
      EXPECT_EQ(scalar.b.MaxAbsDiff(want.b), 0.0);
      EXPECT_EQ(scalar.c, want.c);
      simd::SetEnabled(true);
      const NormalSystem vectorized =
          CooNormalSystem(g.coo, g.values, g.factors);
      ExpectClose(want.b, vectorized.b, 1e-12);
      ExpectClose(want.c, vectorized.c, 1e-12);
    }
  }
  simd::SetEnabled(prev);
}

/// The three robust arms of SofiaAblation: the paper's order (reject, then
/// scale), Gelper's (scale first), and no rejection.
std::vector<SofiaStepRobust> RobustArms() {
  SofiaStepRobust paper;
  paper.phi = 0.3;
  paper.huber_k = 2.0;
  paper.biweight_ck = 2.52;
  SofiaStepRobust scale_first = paper;
  scale_first.scale_before_reject = true;
  SofiaStepRobust no_reject = paper;
  no_reject.reject_outliers = false;
  return {paper, scale_first, no_reject};
}

/// CooSofiaStep (one fused pass) against the dense oracle's separate scans
/// at every grid point — slice orders 2, 3 and 4, ranks 1..17 (16 the
/// widest compile-time rank; 7, 9, 11, 13-15 and 17 run-time), Ω from
/// empty (the guard's empty-Ω clock advance) to full — for all three
/// robust arms, under both ISAs. The error scale mixes inliers and
/// outliers; everything the step writes is compared at 1e-12 relative to
/// the oracle's max-abs — the forecast and outliers through the residual
/// y - f and the cleaned values y - o, at the data's scale (a forecast
/// that cancels to ~0 at a single observed entry has no scale of its own).
TEST(SparseKernelsGridTest, SofiaStepMatchesDenseOracle) {
  const bool prev = simd::Enabled();
  for (bool vectorized : {false, true}) {
    SCOPED_TRACE(vectorized ? "avx2" : "scalar");
    simd::SetEnabled(vectorized);
    ForEachGridCase(6000, [](const GridCase& g) {
      Rng rng(g.coo.nnz() + 61 * g.w.size());
      DenseTensor sigma(g.y.shape(), 0.0);
      for (size_t k = 0; k < sigma.NumElements(); ++k) {
        sigma[k] = rng.Uniform(0.05, 1.5);
      }
      for (const SofiaStepRobust& robust : RobustArms()) {
        SCOPED_TRACE(::testing::Message()
                     << "reject " << robust.reject_outliers << " scale-first "
                     << robust.scale_before_reject);
        const dense_oracle::SofiaStepReference want =
            dense_oracle::DenseSofiaStep(g.y, g.omega, g.factors, g.w, sigma,
                                         robust);
        DenseTensor got_sigma = sigma;
        std::vector<double> forecast, outliers;
        StepGradients grads;
        CooSofiaStep(g.coo, g.y, g.factors, g.w, robust, &got_sigma,
                     &forecast, &outliers, &grads);

        const size_t nnz = g.coo.nnz();
        ASSERT_EQ(forecast.size(), nnz);
        ASSERT_EQ(outliers.size(), nnz);
        std::vector<double> want_resid(nnz), got_resid(nnz);
        std::vector<double> want_clean(nnz), got_clean(nnz);
        for (size_t k = 0; k < nnz; ++k) {
          const size_t lin = g.coo.LinearIndex(k);
          want_resid[k] = g.y[lin] - want.forecast[lin];
          got_resid[k] = g.y[lin] - forecast[k];
          want_clean[k] = g.y[lin] - want.outliers[lin];
          got_clean[k] = g.y[lin] - outliers[k];
        }
        ExpectClose(want_resid, got_resid, 1e-12);
        ExpectClose(want_clean, got_clean, 1e-12);
        ExpectClose(want.error_scale, got_sigma, 1e-12);
        ASSERT_EQ(grads.row_grads.size(), g.factors.size());
        for (size_t n = 0; n < g.factors.size(); ++n) {
          SCOPED_TRACE(::testing::Message() << "mode " << n);
          ExpectClose(want.grads.row_grads[n], grads.row_grads[n], 1e-12);
          ExpectClose(want.grads.row_trace[n], grads.row_trace[n], 1e-12);
        }
        ExpectClose(want.grads.temporal_grad, grads.temporal_grad, 1e-12);
        ExpectClose({want.grads.temporal_trace}, {grads.temporal_trace},
                    1e-12);
      }
    });
  }
  simd::SetEnabled(prev);
}

/// The step's gradient scratch is reused across calls: a second call on a
/// smaller pattern and rank overwrites every field of the first.
TEST(SparseKernelsTest, SofiaStepOverwritesReusedScratch) {
  Rng rng(6100);
  SofiaStepRobust robust = RobustArms()[0];
  const Shape big({8, 7});
  const Shape small({3, 4, 2});
  std::vector<Matrix> big_factors = RandomFactors(big, 5, rng);
  std::vector<Matrix> small_factors = RandomFactors(small, 3, rng);
  const Mask big_mask = RandomMask(big, 0.7, rng);
  const Mask small_mask = RandomMask(small, 0.5, rng);
  const CooList big_coo = CooList::Build(big_mask, false);
  const CooList small_coo = CooList::Build(small_mask, false);
  const DenseTensor big_y = DenseTensor::RandomNormal(big, rng);
  const DenseTensor small_y = DenseTensor::RandomNormal(small, rng);
  const std::vector<double> big_w = rng.NormalVector(5);
  const std::vector<double> small_w = rng.NormalVector(3);

  DenseTensor fresh_sigma(small, 0.4), reused_sigma(small, 0.4);
  DenseTensor big_sigma(big, 0.4);
  std::vector<double> f_fresh, o_fresh, f_reused, o_reused;
  StepGradients fresh, reused;
  CooSofiaStep(big_coo, big_y, big_factors, big_w, robust, &big_sigma,
               &f_reused, &o_reused, &reused);
  CooSofiaStep(small_coo, small_y, small_factors, small_w, robust,
               &reused_sigma, &f_reused, &o_reused, &reused);
  CooSofiaStep(small_coo, small_y, small_factors, small_w, robust,
               &fresh_sigma, &f_fresh, &o_fresh, &fresh);
  EXPECT_EQ(f_fresh, f_reused);
  EXPECT_EQ(o_fresh, o_reused);
  EXPECT_TRUE(CloseTo(fresh_sigma, reused_sigma, 0.0));
  ASSERT_EQ(reused.row_grads.size(), small.order());
  for (size_t n = 0; n < small.order(); ++n) {
    EXPECT_EQ(fresh.row_grads[n].MaxAbsDiff(reused.row_grads[n]), 0.0);
    EXPECT_EQ(reused.row_grads[n].rows(), small.dim(n));
    EXPECT_EQ(fresh.row_trace[n], reused.row_trace[n]);
  }
  EXPECT_EQ(fresh.temporal_grad, reused.temporal_grad);
  EXPECT_EQ(fresh.temporal_trace, reused.temporal_trace);
}

/// CooProximalRowUpdates and CooWeightedRowSystems build their systems in
/// one routine, so the fused update, which solves its rows side by side in
/// vector lanes, must equal ProximalRowSolve applied to the materialized
/// systems bit for bit — under either ISA, inline or on a pool, at every
/// grid point. μ = 0 leaves rank-deficient rows to the SolveRidge fallback,
/// and a NaN value poisons its rows' right-hand sides (the fallback's zero
/// solution).
TEST(SparseKernelsGridTest, ProximalUpdatesEqualSolvedWeightedSystems) {
  const bool prev = simd::Enabled();
  ShardExecutor pool(3);
  for (bool vectorized : {false, true}) {
    SCOPED_TRACE(vectorized ? "avx2" : "scalar");
    simd::SetEnabled(vectorized);
    ForEachGridCase(4000, [&](const GridCase& g) {
      Rng rng(53);
      std::vector<double> poisoned = g.values;
      if (!poisoned.empty()) poisoned[poisoned.size() / 2] = std::nan("");
      for (const auto& [mu, values] :
           {std::pair<double, const std::vector<double>*>{0.7, &g.values},
            {0.0, &g.values},
            {0.7, &poisoned}}) {
        for (size_t mode = 0; mode < g.factors.size(); ++mode) {
          SCOPED_TRACE(::testing::Message() << "mode " << mode << " mu " << mu
                                            << (values == &poisoned
                                                    ? " poisoned"
                                                    : ""));
          const Matrix previous = Matrix::Random(g.factors[mode].rows(),
                                                 g.w.size(), rng, -1.0, 1.0);
          Matrix want = previous;
          dense_oracle::ApplyProximalRowUpdates(
              CooWeightedRowSystems(g.coo, *values, g.factors, g.w, mode),
              previous, mu, &want);
          for (WorkerPool* p : {static_cast<WorkerPool*>(nullptr),
                                static_cast<WorkerPool*>(&pool)}) {
            Matrix got = previous;
            CooProximalRowUpdates(g.coo, *values, g.factors, g.w, mode,
                                  previous, mu, &got, p);
            for (size_t e = 0; e < want.size(); ++e) {
              ASSERT_EQ(got.data()[e], want.data()[e]) << "[" << e << "]";
            }
          }
        }
      }
    });
  }
  simd::SetEnabled(prev);
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
