#include "eval/metrics.hpp"

#include <gtest/gtest.h>

namespace sofia {
namespace {

TEST(MetricsTest, NreZeroForExactEstimate) {
  DenseTensor t(Shape({2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(NormalizedResidualError(t, t), 0.0);
}

TEST(MetricsTest, NreMatchesHandComputation) {
  DenseTensor truth(Shape({2}), 0.0);
  truth[0] = 3.0;
  truth[1] = 4.0;  // ||truth|| = 5.
  DenseTensor est = truth;
  est[0] = 6.0;  // diff = (3, 0), ||diff|| = 3.
  EXPECT_DOUBLE_EQ(NormalizedResidualError(est, truth), 3.0 / 5.0);
}

TEST(MetricsTest, NreOfZeroTruthIsZeroOrOne) {
  DenseTensor zero(Shape({2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedResidualError(zero, zero), 0.0);
  DenseTensor nonzero(Shape({2, 2}), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedResidualError(nonzero, zero), 1.0);
}

TEST(MetricsTest, MeanAndRunningAverage) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({0.1, 0.3}), 0.2);  // RAE of a two-step NRE series.
}

}  // namespace
}  // namespace sofia
