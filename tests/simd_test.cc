// Vectorized-vs-scalar kernel parity: the simd::Select trampoline compiles
// every hot Coo kernel body twice (default ISA and AVX2+FMA); this
// binary pins the contract between the two instantiations:
//  - every vectorized kernel agrees with its scalar twin to ≤1e-12
//    (relative) across shapes, densities, and ranks — including rank 16
//    (the widest compile-time dispatch) and a dynamic-rank fallback — SOFIA's
//    fused step (CooSofiaStep) in every robust arm and at slice order 2,
//    its specialized order, too, and the temporal normal system
//    (CooNormalSystem) at orders 2-4 and past one reduction block;
//  - the vectorized path stays bitwise identical across thread counts
//    (the ISA choice is hoisted per kernel call, so the owner-per-unit /
//    blocked-reduction determinism argument is ISA-independent);
//  - the deliberately scalar-pinned kernels (CooKruskalSliceGather, the
//    residual norms) produce bitwise identical results whether simd is
//    enabled or not — they must never route through the AVX2
//    instantiation;
//  - toggling simd::SetEnabled round-trips and is a no-op on hardware
//    without AVX2+FMA.
// On hosts without AVX2+FMA the parity tests skip (both paths are the same
// scalar code) and only the knob semantics are checked.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "expect_close.hpp"
#include "linalg/matrix.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/mask.hpp"
#include "tensor/shape.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/rng.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace {

/// Restores the process-wide simd knob on scope exit so test order never
/// leaks one case's ISA choice into the next.
struct SimdGuard {
  bool prev = simd::Enabled();
  ~SimdGuard() { simd::SetEnabled(prev); }
};

Mask RandomMask(const Shape& shape, double density, uint64_t seed) {
  Rng rng(seed);
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

std::vector<Matrix> RandomFactors(const Shape& shape, size_t rank,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (size_t n = 0; n < shape.order(); ++n) {
    factors.push_back(Matrix::Random(shape.dim(n), rank, rng, -1.0, 1.0));
  }
  return factors;
}

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

double Tol(double reference) { return 1e-12 * (1.0 + std::abs(reference)); }

void ExpectMatrixNear(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a(i, j), b(i, j), Tol(a(i, j)))
          << what << " (" << i << "," << j << ")";
    }
  }
}

void ExpectVectorNear(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k], b[k], Tol(a[k])) << what << " [" << k << "]";
  }
}

void ExpectRowSystemsNear(const RowSystems& a, const RowSystems& b,
                          const char* what) {
  ASSERT_EQ(a.b.size(), b.b.size()) << what;
  for (size_t i = 0; i < a.b.size(); ++i) {
    ExpectMatrixNear(a.b[i], b.b[i], what);
    ExpectVectorNear(a.c[i], b.c[i], what);
  }
}

/// The fused step's outputs, pinned at 1e-12 relative to the scalar run's
/// max-abs (tests/expect_close.hpp).
void ExpectStepGradientsClose(const StepGradients& scalar,
                              const StepGradients& simd) {
  ASSERT_EQ(scalar.row_grads.size(), simd.row_grads.size());
  for (size_t n = 0; n < scalar.row_grads.size(); ++n) {
    ExpectClose(scalar.row_grads[n], simd.row_grads[n], 1e-12);
    ExpectClose(scalar.row_trace[n], simd.row_trace[n], 1e-12);
  }
  ExpectClose(scalar.temporal_grad, simd.temporal_grad, 1e-12);
  ExpectClose({scalar.temporal_trace}, {simd.temporal_trace}, 1e-12);
}

/// One randomized problem instance: pattern, factors, record-aligned
/// values, and a temporal row.
struct Problem {
  CooList coo;
  std::vector<Matrix> factors;
  std::vector<double> values;
  std::vector<double> temporal_row;
};

Problem MakeProblem(const Shape& shape, size_t rank, uint64_t seed) {
  Problem p;
  p.coo = CooList::Build(RandomMask(shape, 0.4, seed));
  p.factors = RandomFactors(shape, rank, seed + 1);
  p.values = RandomValues(p.coo.nnz(), seed + 2);
  p.temporal_row = RandomValues(rank, seed + 3);
  return p;
}

/// Ranks covering the compile-time dispatch table's edges (1, 16), small
/// blocked ranks (3; 5, one lane past a whole 4-lane vector; 8, two whole
/// vectors), and a dynamic-dispatch fallback (7 is not in the table).
constexpr size_t kRanks[] = {1, 3, 5, 7, 8, 16};

std::vector<Shape> ParityShapes() {
  return {Shape({7, 6, 5}), Shape({5, 4, 3, 6})};
}

// ------------------------------------------------- vector vs scalar parity

class SimdParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::Available()) {
      GTEST_SKIP() << "no AVX2+FMA on this host; both paths are scalar";
    }
  }
  SimdGuard guard_;
};

TEST_F(SimdParityTest, MttkrpMatchesScalar) {
  for (const Shape& shape : ParityShapes()) {
    for (size_t rank : kRanks) {
      Problem p = MakeProblem(shape, rank, 100 + rank);
      for (size_t mode = 0; mode < shape.order(); ++mode) {
        simd::SetEnabled(false);
        Matrix coo_s = CooMttkrp(p.coo, p.values, p.factors, mode);
        simd::SetEnabled(true);
        Matrix coo_v = CooMttkrp(p.coo, p.values, p.factors, mode);
        ExpectMatrixNear(coo_s, coo_v, "CooMttkrp");
      }
    }
  }
}

TEST_F(SimdParityTest, RowSystemsMatchScalar) {
  for (const Shape& shape : ParityShapes()) {
    for (size_t rank : kRanks) {
      Problem p = MakeProblem(shape, rank, 200 + rank);
      for (size_t mode = 0; mode < shape.order(); ++mode) {
        simd::SetEnabled(false);
        RowSystems coo_s = CooRowSystems(p.coo, p.values, p.factors, mode);
        RowSystems wcoo_s = CooWeightedRowSystems(p.coo, p.values, p.factors,
                                                  p.temporal_row, mode);
        simd::SetEnabled(true);
        RowSystems coo_v = CooRowSystems(p.coo, p.values, p.factors, mode);
        RowSystems wcoo_v = CooWeightedRowSystems(p.coo, p.values, p.factors,
                                                  p.temporal_row, mode);
        ExpectRowSystemsNear(coo_s, coo_v, "CooRowSystems");
        ExpectRowSystemsNear(wcoo_s, wcoo_v, "CooWeightedRowSystems");
      }
    }
  }
}

TEST_F(SimdParityTest, ProximalRowUpdatesMatchScalar) {
  for (const Shape& shape : ParityShapes()) {
    for (size_t rank : kRanks) {
      Problem p = MakeProblem(shape, rank, 300 + rank);
      for (size_t mode = 0; mode < shape.order(); ++mode) {
        Rng rng(17 + mode);
        Matrix previous =
            Matrix::Random(shape.dim(mode), rank, rng, -1.0, 1.0);
        Matrix u_s = p.factors[mode];
        Matrix u_v = p.factors[mode];
        simd::SetEnabled(false);
        CooProximalRowUpdates(p.coo, p.values, p.factors, p.temporal_row,
                              mode, previous, 0.3, &u_s);
        simd::SetEnabled(true);
        CooProximalRowUpdates(p.coo, p.values, p.factors, p.temporal_row,
                              mode, previous, 0.3, &u_v);
        ExpectMatrixNear(u_s, u_v, "CooProximalRowUpdates");
      }
    }
  }
}

TEST_F(SimdParityTest, GradientsAndGathersMatchScalar) {
  for (const Shape& shape : ParityShapes()) {
    for (size_t rank : kRanks) {
      Problem p = MakeProblem(shape, rank, 400 + rank);
      simd::SetEnabled(false);
      ModeGradients mg_coo_s =
          CooModeGradients(p.coo, p.values, p.factors, p.temporal_row);
      std::vector<double> g_coo_s =
          CooKruskalGather(p.coo, p.factors, p.temporal_row);
      simd::SetEnabled(true);
      ModeGradients mg_coo_v =
          CooModeGradients(p.coo, p.values, p.factors, p.temporal_row);
      std::vector<double> g_coo_v =
          CooKruskalGather(p.coo, p.factors, p.temporal_row);
      for (size_t n = 0; n < shape.order(); ++n) {
        ExpectMatrixNear(mg_coo_s.row_grads[n], mg_coo_v.row_grads[n],
                         "CooModeGradients");
      }
      ExpectVectorNear(g_coo_s, g_coo_v, "CooKruskalGather");
    }
  }
}

/// CooSofiaStep's AVX2+FMA instantiation against its scalar one: slice
/// orders 2 (the specialized order), 3 and 4, every rank of kRanks, all
/// three robust arms, with an error scale that mixes inliers and outliers.
TEST_F(SimdParityTest, SofiaStepMatchesScalar) {
  std::vector<Shape> shapes = ParityShapes();
  shapes.push_back(Shape({9, 7}));
  SofiaStepRobust paper;
  paper.phi = 0.3;
  paper.huber_k = 2.0;
  paper.biweight_ck = 2.52;
  SofiaStepRobust scale_first = paper;
  scale_first.scale_before_reject = true;
  SofiaStepRobust no_reject = paper;
  no_reject.reject_outliers = false;
  for (const Shape& shape : shapes) {
    for (size_t rank : kRanks) {
      SCOPED_TRACE(::testing::Message() << shape.ToString() << " rank "
                                        << rank);
      Problem p = MakeProblem(shape, rank, 450 + rank);
      Rng rng(460 + rank);
      DenseTensor y(shape, 0.0);
      DenseTensor sigma(shape, 0.0);
      for (size_t k = 0; k < shape.NumElements(); ++k) {
        y[k] = rng.Uniform(-2.0, 2.0);
        sigma[k] = rng.Uniform(0.05, 1.5);
      }
      for (const SofiaStepRobust& robust : {paper, scale_first, no_reject}) {
        DenseTensor sigma_s = sigma;
        DenseTensor sigma_v = sigma;
        std::vector<double> f_s, o_s, f_v, o_v;
        StepGradients g_s, g_v;
        simd::SetEnabled(false);
        CooSofiaStep(p.coo, y, p.factors, p.temporal_row, robust, &sigma_s,
                     &f_s, &o_s, &g_s);
        simd::SetEnabled(true);
        CooSofiaStep(p.coo, y, p.factors, p.temporal_row, robust, &sigma_v,
                     &f_v, &o_v, &g_v);
        // Forecast and outliers at the data's scale: y - f and y - o.
        std::vector<double> r_s(f_s.size()), r_v(f_v.size());
        std::vector<double> c_s(o_s.size()), c_v(o_v.size());
        for (size_t k = 0; k < p.coo.nnz(); ++k) {
          const double yk = y[p.coo.LinearIndex(k)];
          r_s[k] = yk - f_s[k];
          r_v[k] = yk - f_v[k];
          c_s[k] = yk - o_s[k];
          c_v[k] = yk - o_v[k];
        }
        ExpectClose(r_s, r_v, 1e-12);
        ExpectClose(c_s, c_v, 1e-12);
        ExpectClose(sigma_s, sigma_v, 1e-12);
        ExpectStepGradientsClose(g_s, g_v);
      }
    }
  }
}

/// CooNormalSystem's lane accumulator, AVX2+FMA against scalar: orders 2
/// (specialized, with the compare-nine slice 40x40), 3 and 4 (run-time
/// order), every rank of kRanks, and a 24x24x24 slice whose ~5,500 records
/// span two reduction blocks.
TEST_F(SimdParityTest, NormalSystemMatchesScalar) {
  std::vector<Shape> shapes = ParityShapes();
  shapes.push_back(Shape({9, 7}));
  shapes.push_back(Shape({40, 40}));
  shapes.push_back(Shape({24, 24, 24}));
  for (const Shape& shape : shapes) {
    for (size_t rank : kRanks) {
      SCOPED_TRACE(::testing::Message() << shape.ToString() << " rank "
                                        << rank);
      Problem p = MakeProblem(shape, rank, 470 + rank);
      simd::SetEnabled(false);
      NormalSystem ns_s = CooNormalSystem(p.coo, p.values, p.factors);
      simd::SetEnabled(true);
      NormalSystem ns_v = CooNormalSystem(p.coo, p.values, p.factors);
      ExpectClose(ns_s.b, ns_v.b, 1e-12);
      ExpectClose(ns_s.c, ns_v.c, 1e-12);
    }
  }
}

// -------------------------------------------- determinism on the simd path

TEST_F(SimdParityTest, VectorizedPathIsBitwiseThreadDeterministic) {
  simd::SetEnabled(true);
  // Inline against executors of two sizes: two task-to-thread maps.
  ShardExecutor pool2(2);
  ShardExecutor pool4(4);
  for (size_t rank : {size_t{3}, size_t{16}}) {
    Problem p = MakeProblem(Shape({7, 6, 5}), rank, 500 + rank);
    const ModeGradients g1 =
        CooModeGradients(p.coo, p.values, p.factors, p.temporal_row);
    for (ShardExecutor* pool : {&pool2, &pool4}) {
      SCOPED_TRACE(pool->num_threads());
      for (size_t mode = 0; mode < 3; ++mode) {
        Matrix m1 = CooMttkrp(p.coo, p.values, p.factors, mode);
        Matrix m4 = CooMttkrp(p.coo, p.values, p.factors, mode, pool);
        EXPECT_EQ(m1.MaxAbsDiff(m4), 0.0) << "CooMttkrp mode=" << mode;
      }
      const ModeGradients g4 =
          CooModeGradients(p.coo, p.values, p.factors, p.temporal_row, pool);
      for (size_t n = 0; n < 3; ++n) {
        EXPECT_EQ(g1.row_grads[n].MaxAbsDiff(g4.row_grads[n]), 0.0);
        EXPECT_EQ(g1.row_trace[n], g4.row_trace[n]);
      }
    }
  }
}

// ------------------------------------------------- scalar-pinned kernels

TEST(SimdPinnedKernelsTest, ScalarPinnedKernelsIgnoreTheSimdKnob) {
  // CooKruskalSliceGather (bitwise vs the dense KruskalSlice chain) and
  // the residual norms stay scalar by design: their outputs must be
  // bit-identical whether the simd knob is on or off.
  SimdGuard guard;
  Problem p = MakeProblem(Shape({6, 5, 4}), 5, 900);
  simd::SetEnabled(false);
  std::vector<double> sg_off =
      CooKruskalSliceGather(p.coo, p.factors, p.temporal_row);
  double rn_off = CooResidualNorm(p.coo, p.values, p.factors);
  simd::SetEnabled(true);  // No-op off-AVX2 hosts; pin still holds.
  std::vector<double> sg_on =
      CooKruskalSliceGather(p.coo, p.factors, p.temporal_row);
  double rn_on = CooResidualNorm(p.coo, p.values, p.factors);
  ASSERT_EQ(sg_off.size(), sg_on.size());
  for (size_t k = 0; k < sg_off.size(); ++k) {
    EXPECT_EQ(sg_off[k], sg_on[k]);
  }
  EXPECT_EQ(rn_off, rn_on);
}

// ---------------------------------------------------------- knob semantics

TEST(SimdKnobTest, SetEnabledRoundTripsAndRespectsAvailability) {
  SimdGuard guard;
  simd::SetEnabled(true);
  // Enabling only sticks when the hardware supports the ISA.
  EXPECT_EQ(simd::Enabled(), simd::Available());
  simd::SetEnabled(false);
  EXPECT_FALSE(simd::Enabled());
  EXPECT_STREQ(simd::IsaName(), "scalar");
  if (simd::Available()) {
    simd::SetEnabled(true);
    EXPECT_TRUE(simd::Enabled());
    EXPECT_STREQ(simd::IsaName(), "avx2+fma");
  }
}

}  // namespace
}  // namespace sofia
