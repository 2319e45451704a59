// Tests of the ObservedSweep solver core and its sparse_kernels primitives:
// observed-entry motifs vs the dense-scan oracles of tests/dense_oracle.hpp
// (≤1e-12), bitwise thread determinism, the mask-reuse
// and shared-pattern caches, and the CooList edges the baselines newly
// exercise (bucket-less builds, empty and full Ω).

#include <gtest/gtest.h>

#include <memory>

#include "baselines/observed_sweep.hpp"
#include "dense_oracle.hpp"
#include "linalg/vector_ops.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/rng.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace {

Mask BernoulliMask(const Shape& shape, double density, Rng& rng) {
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

struct Problem {
  DenseTensor y;
  Mask omega;
  std::vector<Matrix> factors;
  std::vector<double> w;
};

Problem MakeProblem(const Shape& shape, size_t rank, double density,
                    uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.y = DenseTensor::RandomNormal(shape, rng);
  p.omega = BernoulliMask(shape, density, rng);
  for (size_t n = 0; n < shape.order(); ++n) {
    p.factors.push_back(Matrix::RandomNormal(shape.dim(n), rank, rng));
  }
  p.w = rng.NormalVector(rank);
  return p;
}

// --- CooList edges ---------------------------------------------------------

TEST(CooListEdgeTest, BucketlessBuildSkipsModeTables) {
  Rng rng(11);
  Shape shape({5, 4, 3});
  Mask omega = BernoulliMask(shape, 0.4, rng);
  CooList coo = CooList::Build(omega, /*with_mode_buckets=*/false);
  EXPECT_EQ(coo.nnz(), omega.CountObserved());
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    EXPECT_FALSE(coo.has_mode_bucket(mode));
  }
  // Records and gathers still work without the bucket tables.
  DenseTensor y = DenseTensor::RandomNormal(shape, rng);
  std::vector<double> values = coo.Gather(y);
  ASSERT_EQ(values.size(), coo.nnz());
  for (size_t k = 0; k < coo.nnz(); ++k) {
    EXPECT_EQ(values[k], y[coo.LinearIndex(k)]);
    std::vector<size_t> idx(coo.Coords(k), coo.Coords(k) + coo.order());
    EXPECT_EQ(shape.Linearize(idx), coo.LinearIndex(k));
  }
}

TEST(CooListEdgeTest, EmptyMaskYieldsZeroRecordsAndZeroSystems) {
  Shape shape({4, 3, 2});
  Mask omega(shape, false);
  CooList coo = CooList::Build(omega);
  EXPECT_EQ(coo.nnz(), 0u);

  Rng rng(13);
  std::vector<Matrix> factors;
  for (size_t n = 0; n < shape.order(); ++n) {
    factors.push_back(Matrix::RandomNormal(shape.dim(n), 3, rng));
  }
  std::vector<double> none;
  NormalSystem sys = CooNormalSystem(coo, none, factors);
  EXPECT_EQ(sys.c.size(), 3u);
  EXPECT_EQ(sys.b.FrobeniusNorm(), 0.0);
  for (double v : sys.c) EXPECT_EQ(v, 0.0);

  std::vector<double> w = {1.0, -2.0, 0.5};
  RowSystems rows = CooWeightedRowSystems(coo, none, factors, w, 1);
  ASSERT_EQ(rows.b.size(), shape.dim(1));
  for (const Matrix& b : rows.b) EXPECT_EQ(b.FrobeniusNorm(), 0.0);

  ModeGradients g = CooModeGradients(coo, none, factors, w);
  for (const Matrix& grad : g.row_grads) EXPECT_EQ(grad.FrobeniusNorm(), 0.0);
  EXPECT_TRUE(CooKruskalGather(coo, factors, w).empty());
}

TEST(CooListEdgeTest, FullMaskCoversEveryEntry) {
  Shape shape({4, 3, 2});
  Mask omega(shape, true);
  CooList coo = CooList::Build(omega);
  EXPECT_EQ(coo.nnz(), shape.NumElements());
  for (size_t k = 0; k < coo.nnz(); ++k) EXPECT_EQ(coo.LinearIndex(k), k);
}

// --- Motifs vs the dense reference kernels ---------------------------------

TEST(ObservedSweepKernelsTest, NormalSystemMatchesDenseAccumulation) {
  Problem p = MakeProblem(Shape({6, 5, 4}), 3, 0.5, 21);
  CooList coo = CooList::Build(p.omega);
  std::vector<double> values = coo.Gather(p.y);
  NormalSystem sys = CooNormalSystem(coo, values, p.factors);

  // Brute force, in the dense-scan accumulation order.
  Matrix b_expected(3, 3);
  std::vector<double> c_expected(3, 0.0);
  std::vector<size_t> idx(p.y.order(), 0);
  for (size_t linear = 0; linear < p.y.NumElements(); ++linear) {
    if (p.omega.Get(linear)) {
      std::vector<double> h(3, 1.0);
      for (size_t l = 0; l < p.factors.size(); ++l) {
        for (size_t r = 0; r < 3; ++r) h[r] *= p.factors[l](idx[l], r);
      }
      for (size_t r = 0; r < 3; ++r) {
        c_expected[r] += p.y[linear] * h[r];
        for (size_t q = 0; q < 3; ++q) b_expected(r, q) += h[r] * h[q];
      }
    }
    p.y.shape().Next(&idx);
  }
  EXPECT_LE(sys.b.MaxAbsDiff(b_expected), 1e-12);
  EXPECT_LE(MaxAbsDiffVec(sys.c, c_expected), 1e-12);
}

TEST(ObservedSweepKernelsTest, WeightedRowSystemsMatchBuildSliceRowSystems) {
  Problem p = MakeProblem(Shape({6, 5, 4}), 4, 0.4, 23);
  CooList coo = CooList::Build(p.omega);
  std::vector<double> values = coo.Gather(p.y);
  for (size_t mode = 0; mode < p.factors.size(); ++mode) {
    RowSystems sparse =
        CooWeightedRowSystems(coo, values, p.factors, p.w, mode);
    dense_oracle::SliceRowSystems dense = dense_oracle::BuildSliceRowSystems(
        p.y, p.omega, nullptr, p.factors, p.w, mode);
    ASSERT_EQ(sparse.b.size(), dense.b.size());
    for (size_t i = 0; i < sparse.b.size(); ++i) {
      EXPECT_LE(sparse.b[i].MaxAbsDiff(dense.b[i]), 1e-12)
          << "mode=" << mode << " row=" << i;
      EXPECT_LE(MaxAbsDiffVec(sparse.c[i], dense.c[i]), 1e-12);
    }
  }
}

TEST(ObservedSweepKernelsTest, ModeGradientsMatchFactorGradients) {
  Problem p = MakeProblem(Shape({6, 5, 4}), 3, 0.4, 25);
  CooList coo = CooList::Build(p.omega);
  std::vector<double> values = coo.Gather(p.y);
  std::vector<double> residuals = CooKruskalGather(coo, p.factors, p.w);
  for (size_t k = 0; k < residuals.size(); ++k) {
    residuals[k] = values[k] - residuals[k];
  }
  ModeGradients sparse = CooModeGradients(coo, residuals, p.factors, p.w);

  std::vector<std::vector<double>> dense_traces;
  std::vector<Matrix> dense = dense_oracle::FactorGradients(
      p.y, p.omega, nullptr, p.factors, p.w, &dense_traces);
  ASSERT_EQ(sparse.row_grads.size(), dense.size());
  for (size_t l = 0; l < dense.size(); ++l) {
    EXPECT_LE(sparse.row_grads[l].MaxAbsDiff(dense[l]), 1e-12) << "mode=" << l;
    EXPECT_LE(MaxAbsDiffVec(sparse.row_trace[l], dense_traces[l]), 1e-12);
  }
}

TEST(ObservedSweepKernelsTest, ProximalRowUpdatesMatchMaterializedSystems) {
  Problem p = MakeProblem(Shape({6, 5, 4}), 3, 0.3, 26);
  CooList coo = CooList::Build(p.omega);
  std::vector<double> values = coo.Gather(p.y);
  ShardExecutor pool2(2);
  ShardExecutor pool3(3);
  Rng rng(29);
  for (size_t mode = 0; mode < p.factors.size(); ++mode) {
    Matrix previous = Matrix::RandomNormal(p.factors[mode].rows(), 3, rng);
    for (double mu : {1.0, 0.25, 0.0}) {
      // Reference: materialized systems + the shared proximal helper.
      RowSystems sys = CooWeightedRowSystems(coo, values, p.factors, p.w,
                                             mode);
      Matrix expected = p.factors[mode];
      dense_oracle::ApplyProximalRowUpdates(sys, previous, mu, &expected);
      // Fused kernel, serial and pooled (aliasing u with factors[mode] is
      // part of the contract, so solve into a copy inside a factor set).
      std::vector<Matrix> factors = p.factors;
      CooProximalRowUpdates(coo, values, factors, p.w, mode, previous, mu,
                            &factors[mode]);
      EXPECT_EQ(factors[mode].MaxAbsDiff(expected), 0.0)
          << "mode=" << mode << " mu=" << mu;
      for (ShardExecutor* pool : {&pool2, &pool3}) {
        std::vector<Matrix> pooled = p.factors;
        CooProximalRowUpdates(coo, values, pooled, p.w, mode, previous, mu,
                              &pooled[mode], pool);
        EXPECT_EQ(pooled[mode].MaxAbsDiff(expected), 0.0)
            << "threads=" << pool->num_threads();
      }
    }
  }
}

TEST(ObservedSweepKernelsTest, KernelsAreBitwiseThreadDeterministic) {
  Problem p = MakeProblem(Shape({9, 8, 7}), 5, 0.6, 27);
  CooList coo = CooList::Build(p.omega);
  std::vector<double> values = coo.Gather(p.y);
  NormalSystem serial_sys = CooNormalSystem(coo, values, p.factors);
  ModeGradients serial_g = CooModeGradients(coo, values, p.factors, p.w);
  // The temporal system past one reduction block: ~9,700 records in three
  // 4096-record blocks, whose partials every pool must add in block order.
  Problem big = MakeProblem(Shape({24, 24, 24}), 5, 0.7, 28);
  CooList big_coo = CooList::Build(big.omega, false);
  ASSERT_GT(big_coo.nnz(), 2u * 4096u);
  std::vector<double> big_values = big_coo.Gather(big.y);
  NormalSystem serial_big = CooNormalSystem(big_coo, big_values, big.factors);

  // Each executor size is a different task-to-thread map.
  for (size_t threads : {2, 3, 4}) {
    SCOPED_TRACE(threads);
    ShardExecutor pool(threads);
    NormalSystem pooled_sys = CooNormalSystem(coo, values, p.factors, &pool);
    EXPECT_EQ(serial_sys.b.MaxAbsDiff(pooled_sys.b), 0.0);
    EXPECT_EQ(MaxAbsDiffVec(serial_sys.c, pooled_sys.c), 0.0);
    NormalSystem pooled_big =
        CooNormalSystem(big_coo, big_values, big.factors, &pool);
    EXPECT_EQ(serial_big.b.MaxAbsDiff(pooled_big.b), 0.0);
    EXPECT_EQ(MaxAbsDiffVec(serial_big.c, pooled_big.c), 0.0);

    for (size_t mode = 0; mode < p.factors.size(); ++mode) {
      RowSystems serial =
          CooWeightedRowSystems(coo, values, p.factors, p.w, mode);
      RowSystems pooled =
          CooWeightedRowSystems(coo, values, p.factors, p.w, mode, &pool);
      for (size_t i = 0; i < serial.b.size(); ++i) {
        EXPECT_EQ(serial.b[i].MaxAbsDiff(pooled.b[i]), 0.0);
        EXPECT_EQ(MaxAbsDiffVec(serial.c[i], pooled.c[i]), 0.0);
      }
    }

    ModeGradients pooled_g =
        CooModeGradients(coo, values, p.factors, p.w, &pool);
    for (size_t l = 0; l < serial_g.row_grads.size(); ++l) {
      EXPECT_EQ(serial_g.row_grads[l].MaxAbsDiff(pooled_g.row_grads[l]), 0.0);
      EXPECT_EQ(MaxAbsDiffVec(serial_g.row_trace[l], pooled_g.row_trace[l]),
                0.0);
    }
  }
}

// --- The ObservedSweep wrapper ---------------------------------------------

TEST(ObservedSweepTest, SolveTemporalRowMatchesDenseReference) {
  Problem p = MakeProblem(Shape({6, 5}), 3, 0.5, 31);
  ObservedSweep sweep;
  sweep.BeginStep(p.y, p.omega);
  std::vector<double> sparse =
      sweep.SolveTemporalRow(p.factors, sweep.values(), 1e-6);
  std::vector<double> dense =
      dense_oracle::SolveTemporalRow(p.y, p.omega, nullptr, p.factors, 1e-6);
  EXPECT_LE(MaxAbsDiffVec(sparse, dense), 1e-12);
}

TEST(ObservedSweepTest, ReconstructMatchesKruskalSliceGather) {
  Problem p = MakeProblem(Shape({6, 5}), 3, 0.5, 33);
  ObservedSweep sweep;
  sweep.BeginStep(p.y, p.omega);
  std::vector<double> recon = sweep.Reconstruct(p.factors, p.w);
  DenseTensor slice = KruskalSlice(p.factors, p.w);
  ASSERT_EQ(recon.size(), sweep.nnz());
  for (size_t k = 0; k < recon.size(); ++k) {
    EXPECT_NEAR(recon[k], slice[sweep.pattern().LinearIndex(k)], 1e-12);
  }
}

TEST(ObservedSweepTest, IdenticalMasksReuseThePattern) {
  Rng rng(35);
  Shape shape({6, 5});
  Mask omega = BernoulliMask(shape, 0.5, rng);
  DenseTensor y1 = DenseTensor::RandomNormal(shape, rng);
  DenseTensor y2 = DenseTensor::RandomNormal(shape, rng);

  ObservedSweep sweep;
  sweep.BeginStep(y1, omega);
  EXPECT_EQ(sweep.pattern_builds(), 1u);
  const CooList* first = &sweep.pattern();
  sweep.BeginStep(y2, omega);  // Same mask, new values: no rebuild.
  EXPECT_EQ(sweep.pattern_builds(), 1u);
  EXPECT_EQ(&sweep.pattern(), first);
  EXPECT_EQ(sweep.values()[0], y2[sweep.pattern().LinearIndex(0)]);

  Mask other = BernoulliMask(shape, 0.5, rng);
  other.Set(0, !other.Get(0));  // Ensure it differs from omega somewhere.
  if (other == omega) other.Set(1, !other.Get(1));
  sweep.BeginStep(y1, other);
  EXPECT_EQ(sweep.pattern_builds(), 2u);
}

TEST(ObservedSweepTest, SharedPatternsSkipTheBuild) {
  Rng rng(37);
  Shape shape({6, 5});
  Mask omega = BernoulliMask(shape, 0.5, rng);
  DenseTensor y = DenseTensor::RandomNormal(shape, rng);
  std::shared_ptr<const CooList> pattern = MakeSharedPattern(omega);

  ObservedSweep sweep;
  sweep.BeginStep(y, omega, pattern);
  EXPECT_EQ(sweep.pattern_builds(), 0u);
  EXPECT_EQ(&sweep.pattern(), pattern.get());
  // The adopted pattern seeds the reuse cache for later unshared steps.
  sweep.BeginStep(y, omega);
  EXPECT_EQ(sweep.pattern_builds(), 0u);
  EXPECT_EQ(&sweep.pattern(), pattern.get());
}

}  // namespace
}  // namespace sofia
