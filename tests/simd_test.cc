// Vectorized-vs-scalar kernel parity: the simd::Select trampoline compiles
// every hot Coo kernel body twice (default ISA and AVX2+FMA); this
// binary pins the contract between the two instantiations:
//  - every vectorized kernel agrees with its scalar twin to ≤1e-12
//    (relative) across shapes, densities, and ranks — including rank 16
//    (the widest compile-time dispatch) and a dynamic-rank fallback;
//  - the vectorized path stays bitwise identical across thread counts
//    (the ISA choice is hoisted per kernel call, so the owner-per-unit /
//    blocked-reduction determinism argument is ISA-independent);
//  - the deliberately scalar-pinned kernels (CooNormalSystem,
//    CooKruskalSliceGather, the residual norms) produce bitwise identical
//    results whether simd is enabled or not — they must never route
//    through the AVX2 instantiation;
//  - toggling simd::SetEnabled round-trips and is a no-op on hardware
//    without AVX2+FMA.
// On hosts without AVX2+FMA the parity tests skip (both paths are the same
// scalar code) and only the knob semantics are checked.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

void ExpectStepGradientsNear(const StepGradients& a, const StepGradients& b,
                             const char* what) {
  ASSERT_EQ(a.row_grads.size(), b.row_grads.size()) << what;
  for (size_t n = 0; n < a.row_grads.size(); ++n) {
    ExpectMatrixNear(a.row_grads[n], b.row_grads[n], what);
    ExpectVectorNear(a.row_trace[n], b.row_trace[n], what);
  }
  ExpectVectorNear(a.temporal_grad, b.temporal_grad, what);
  EXPECT_NEAR(a.temporal_trace, b.temporal_trace, Tol(a.temporal_trace))
      << what;
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

/// Ranks covering the compile-time dispatch table's edges (1, 16), a small
/// blocked rank (3), and a dynamic-dispatch fallback (7 is not in the
/// table).
constexpr size_t kRanks[] = {1, 3, 7, 16};

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
      StepGradients sg_coo_s =
          CooStepGradients(p.coo, p.values, p.factors, p.temporal_row);
      std::vector<double> g_coo_s =
          CooKruskalGather(p.coo, p.factors, p.temporal_row);
      simd::SetEnabled(true);
      ModeGradients mg_coo_v =
          CooModeGradients(p.coo, p.values, p.factors, p.temporal_row);
      StepGradients sg_coo_v =
          CooStepGradients(p.coo, p.values, p.factors, p.temporal_row);
      std::vector<double> g_coo_v =
          CooKruskalGather(p.coo, p.factors, p.temporal_row);
      for (size_t n = 0; n < shape.order(); ++n) {
        ExpectMatrixNear(mg_coo_s.row_grads[n], mg_coo_v.row_grads[n],
                         "CooModeGradients");
      }
      ExpectStepGradientsNear(sg_coo_s, sg_coo_v, "CooStepGradients");
      ExpectVectorNear(g_coo_s, g_coo_v, "CooKruskalGather");
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
    const StepGradients s1 =
        CooStepGradients(p.coo, p.values, p.factors, p.temporal_row);
    for (ShardExecutor* pool : {&pool2, &pool4}) {
      SCOPED_TRACE(pool->num_threads());
      for (size_t mode = 0; mode < 3; ++mode) {
        Matrix m1 = CooMttkrp(p.coo, p.values, p.factors, mode);
        Matrix m4 = CooMttkrp(p.coo, p.values, p.factors, mode, pool);
        EXPECT_EQ(m1.MaxAbsDiff(m4), 0.0) << "CooMttkrp mode=" << mode;
      }
      StepGradients s4 =
          CooStepGradients(p.coo, p.values, p.factors, p.temporal_row, pool);
      for (size_t n = 0; n < 3; ++n) {
        EXPECT_EQ(s1.row_grads[n].MaxAbsDiff(s4.row_grads[n]), 0.0);
      }
      for (size_t r = 0; r < rank; ++r) {
        EXPECT_EQ(s1.temporal_grad[r], s4.temporal_grad[r]);
      }
      EXPECT_EQ(s1.temporal_trace, s4.temporal_trace);
    }
  }
}

// ------------------------------------------------- scalar-pinned kernels

TEST(SimdPinnedKernelsTest, ScalarPinnedKernelsIgnoreTheSimdKnob) {
  // CooNormalSystem (bitwise vs the dense oracle's SolveTemporalRow),
  // CooKruskalSliceGather (bitwise vs the dense KruskalSlice chain), and
  // the residual norms stay scalar by design: their outputs must be
  // bit-identical whether the simd knob is on or off.
  SimdGuard guard;
  Problem p = MakeProblem(Shape({6, 5, 4}), 5, 900);
  simd::SetEnabled(false);
  NormalSystem ns_off = CooNormalSystem(p.coo, p.values, p.factors);
  std::vector<double> sg_off =
      CooKruskalSliceGather(p.coo, p.factors, p.temporal_row);
  double rn_off = CooResidualNorm(p.coo, p.values, p.factors);
  simd::SetEnabled(true);  // No-op off-AVX2 hosts; pin still holds.
  NormalSystem ns_on = CooNormalSystem(p.coo, p.values, p.factors);
  std::vector<double> sg_on =
      CooKruskalSliceGather(p.coo, p.factors, p.temporal_row);
  double rn_on = CooResidualNorm(p.coo, p.values, p.factors);
  EXPECT_EQ(ns_off.b.MaxAbsDiff(ns_on.b), 0.0);
  ASSERT_EQ(ns_off.c.size(), ns_on.c.size());
  for (size_t r = 0; r < ns_off.c.size(); ++r) {
    EXPECT_EQ(ns_off.c[r], ns_on.c[r]);
  }
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
