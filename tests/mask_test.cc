#include "tensor/mask.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace sofia {
namespace {

TEST(MaskTest, AllObservedByDefault) {
  Mask m(Shape({3, 4}));
  EXPECT_EQ(m.CountObserved(), 12u);
  EXPECT_DOUBLE_EQ(m.ObservedFraction(), 1.0);
}

TEST(MaskTest, SetAndGet) {
  Mask m(Shape({2, 2}), false);
  EXPECT_EQ(m.CountObserved(), 0u);
  m.Set(3, true);
  EXPECT_TRUE(m.Get(3));
  EXPECT_TRUE(m.At({1, 1}));
  EXPECT_EQ(m.ObservedIndices(), (std::vector<size_t>{3}));
}

TEST(MaskTest, ApplyZeroesUnobserved) {
  DenseTensor t(Shape({2, 2}), 5.0);
  Mask m(Shape({2, 2}), false);
  m.Set(1, true);
  DenseTensor masked = m.Apply(t);
  EXPECT_DOUBLE_EQ(masked[0], 0.0);
  EXPECT_DOUBLE_EQ(masked[1], 5.0);
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

TEST(MaskTest, ApplyKeepsObservedBitsAndZeroesTheRest) {
  // Observed entries keep their exact bits: -0.0, a NaN payload, and both
  // infinities. Unobserved NaN and infinities become +0.0.
  const double nan_payload = [] {
    const uint64_t b = 0x7FF80000DEADBEEFull;
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
  }();
  const double inf = std::numeric_limits<double>::infinity();
  DenseTensor t(Shape({4, 2}));
  const std::vector<double> values = {-0.0, nan_payload, inf, -inf,
                                      nan_payload, inf, -inf, -0.0};
  for (size_t k = 0; k < values.size(); ++k) t[k] = values[k];
  Mask m(Shape({4, 2}), false);
  for (size_t k = 0; k < 4; ++k) m.Set(k, true);
  const DenseTensor masked = m.Apply(t);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(Bits(masked[k]), Bits(values[k])) << "observed entry " << k;
  }
  for (size_t k = 4; k < 8; ++k) {
    EXPECT_EQ(Bits(masked[k]), 0u) << "unobserved entry " << k;
  }
}

TEST(MaskTest, FillSetsEveryIndicatorAndTheCount) {
  Mask m(Shape({3, 3}), false);
  m.Set(4, true);
  m.Fill(true);
  EXPECT_EQ(m.CountObserved(), 9u);
  EXPECT_TRUE(m == Mask(Shape({3, 3}), true));
  m.Fill(false);
  EXPECT_EQ(m.CountObserved(), 0u);
  m.Set(2, true);
  EXPECT_EQ(m.CountObserved(), 1u);
  EXPECT_EQ(m.ObservedIndices(), (std::vector<size_t>{2}));
}

TEST(MaskTest, MaskedFrobeniusNormMatchesApply) {
  DenseTensor t(Shape({3, 3}));
  for (size_t k = 0; k < 9; ++k) t[k] = static_cast<double>(k) - 4.0;
  Mask m(Shape({3, 3}), false);
  m.Set(0, true);
  m.Set(4, true);
  m.Set(8, true);
  EXPECT_NEAR(m.MaskedFrobeniusNorm(t), m.Apply(t).FrobeniusNorm(), 1e-12);
}

TEST(MaskTest, StackAndSliceRoundtrip) {
  Mask a(Shape({2, 2}), true);
  Mask b(Shape({2, 2}), false);
  b.Set(2, true);
  Mask stacked = Mask::StackSlices({a, b});
  EXPECT_EQ(stacked.shape().dims(), (std::vector<size_t>{2, 2, 2}));
  EXPECT_EQ(stacked.CountObserved(), 5u);
  Mask b_back = stacked.SliceLastMode(1);
  EXPECT_EQ(b_back.CountObserved(), 1u);
  EXPECT_TRUE(b_back.Get(2));
}

TEST(MaskTest, CountCacheTracksMutation) {
  // CountObserved is cached; Set() invalidates; every construction path
  // (fill, stack, slice) reports the true count afterwards.
  Mask m(Shape({4, 4}), false);
  EXPECT_EQ(m.CountObserved(), 0u);
  m.Set(3, true);
  EXPECT_EQ(m.CountObserved(), 1u);
  m.Set(3, false);
  m.Set(5, true);
  m.Set(6, true);
  EXPECT_EQ(m.CountObserved(), 2u);
  Mask copy = m;  // The cache travels with copies.
  EXPECT_EQ(copy.CountObserved(), 2u);
  copy.Set(7, true);
  EXPECT_EQ(copy.CountObserved(), 3u);
  EXPECT_EQ(m.CountObserved(), 2u);
}

TEST(MaskTest, EqualityComparesShapeAndObservedSet) {
  // Different counts, equal counts with different support, and different
  // shapes all compare unequal; clearing the extra entry restores equality.
  Mask a(Shape({8, 8}), false);
  Mask b(Shape({8, 8}), false);
  a.Set(0, true);
  b.Set(0, true);
  b.Set(1, true);
  EXPECT_EQ(a.CountObserved(), 1u);
  EXPECT_EQ(b.CountObserved(), 2u);
  EXPECT_TRUE(a != b);
  b.Set(1, false);
  EXPECT_TRUE(a == b);
  // Same count, different support.
  Mask c(Shape({8, 8}), false);
  c.Set(5, true);
  EXPECT_EQ(c.CountObserved(), 1u);
  EXPECT_TRUE(a != c);
  // Same count, supports differing only in the last two entries.
  Mask d(Shape({8, 8}), false);
  Mask e(Shape({8, 8}), false);
  d.Set(0, true);
  d.Set(63, true);
  e.Set(0, true);
  e.Set(62, true);
  EXPECT_TRUE(d != e);
  EXPECT_TRUE(d == Mask(d));
  // Shape mismatch.
  EXPECT_TRUE(a != Mask(Shape({8, 9}), false));
}

}  // namespace
}  // namespace sofia
