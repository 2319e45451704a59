// The tolerance helper the kernel pins use (tests/expect_close.hpp): the
// bound is rel_tol times the oracle's max-abs plus a per-element ulp slack,
// it holds at the bound and fails just beyond it, all-zero oracles demand
// (nearly) exact zeros, and NaN never passes.

#include "expect_close.hpp"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace sofia {
namespace {

using V = std::vector<double>;

// Binary fractions keep every difference below exact: rel_tol 2^-10 times
// max-abs 4 puts the bound at 2^-8 for every element, the small ones too.
constexpr double kRel = 1.0 / 1024.0;
constexpr double kBound = 1.0 / 256.0;

TEST(ExpectCloseTest, PassesAtTheBoundScaledByOracleMaxAbs) {
  const std::vector<double> oracle = {4.0, -0.5, 0.0};
  EXPECT_TRUE(CloseTo(oracle, V{4.0 + kBound, -0.5 - kBound, kBound}, kRel));
  ExpectClose(oracle, V{4.0 - kBound, -0.5, -kBound}, kRel);
  EXPECT_TRUE(CloseTo(oracle, oracle, 0.0));
}

TEST(ExpectCloseTest, FailsBeyondTheBound) {
  const std::vector<double> oracle = {4.0, -0.5, 0.0};
  const double beyond = std::nextafter(kBound, 1.0);
  EXPECT_FALSE(CloseTo(oracle, V{4.0, -0.5, beyond}, kRel));
  EXPECT_FALSE(CloseTo(oracle, V{4.0, -0.5 + 2 * kBound, 0.0}, kRel));
  EXPECT_FALSE(CloseTo(oracle, V{4.0 + 2 * kBound, -0.5, 0.0}, kRel));
  EXPECT_NONFATAL_FAILURE(ExpectClose(oracle, V{4.0, -0.5, 1.0}, kRel),
                          "bound");
  // Shape mismatches fail too.
  EXPECT_FALSE(CloseTo(oracle, V{4.0, -0.5}, 1.0));
  EXPECT_FALSE(CloseTo(Matrix(2, 3, 1.0), Matrix(3, 2, 1.0), 1.0));
}

TEST(ExpectCloseTest, UlpSlackIsPerElement) {
  const double one_up = std::nextafter(1.0, 2.0);
  const double two_up = std::nextafter(one_up, 2.0);
  EXPECT_FALSE(CloseTo(V{1.0}, V{one_up}, 0.0));
  EXPECT_TRUE(CloseTo(V{1.0}, V{one_up}, 0.0, 1));
  EXPECT_FALSE(CloseTo(V{1.0}, V{two_up}, 0.0, 1));
  EXPECT_TRUE(CloseTo(V{1.0}, V{two_up}, 0.0, 2));
}

TEST(ExpectCloseTest, ZeroOraclesDemandZeros) {
  const std::vector<double> zeros(4, 0.0);
  EXPECT_TRUE(CloseTo(zeros, zeros, 1e-12));
  EXPECT_TRUE(CloseTo(zeros, V{0.0, -0.0, 0.0, 0.0}, 1e-12));
  EXPECT_FALSE(CloseTo(zeros, V{0.0, 1e-300, 0.0, 0.0}, 1e-12));
  EXPECT_TRUE(CloseTo(DenseTensor(Shape({2, 2}), 0.0),
                      DenseTensor(Shape({2, 2}), 0.0), 0.0));
  EXPECT_TRUE(CloseTo(std::vector<double>{}, std::vector<double>{}, 0.0));
}

TEST(ExpectCloseTest, NanAlwaysFails) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(CloseTo(V{1.0, 2.0}, V{1.0, nan}, 1.0));
  EXPECT_FALSE(CloseTo(V{1.0, nan}, V{1.0, 2.0}, 1.0));
  EXPECT_FALSE(CloseTo(V{1.0, nan}, V{1.0, nan}, 1.0, 1000));
  // Infinities match only themselves and never widen the scale.
  EXPECT_TRUE(CloseTo(V{inf, 1.0}, V{inf, 1.0}, 1e-12));
  EXPECT_FALSE(CloseTo(V{inf, 1.0}, V{inf, 1.5}, 1e-12));
  EXPECT_FALSE(CloseTo(V{inf}, V{-inf}, 1.0));
  EXPECT_FALSE(CloseTo(V{1.0}, V{inf}, 1.0));
}

TEST(ExpectCloseTest, MatrixAndTensorOverloadsCompareEveryEntry) {
  Matrix a(2, 2, 1.0);
  Matrix b = a;
  b(1, 1) += kBound;
  EXPECT_TRUE(CloseTo(a, b, kBound));
  EXPECT_FALSE(CloseTo(a, b, kBound / 2));
  DenseTensor t(Shape({2, 3}), 2.0);
  DenseTensor u = t;
  u[5] = 2.0 + kBound;
  EXPECT_TRUE(CloseTo(t, u, kBound / 2));
  EXPECT_FALSE(CloseTo(t, u, kBound / 4));
  EXPECT_FALSE(CloseTo(t, DenseTensor(Shape({3, 2}), 2.0), 1.0));
}

}  // namespace
}  // namespace sofia
