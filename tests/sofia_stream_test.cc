#include "core/sofia_stream.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "eval/stream_runner.hpp"

namespace sofia {
namespace {

SofiaConfig SmallConfig() {
  SofiaConfig config;
  config.rank = 3;
  config.period = 8;
  config.init_seasons = 3;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.max_init_iterations = 25;
  return config;
}

TEST(SofiaStreamTest, DeclaresThreeSeasonInitWindow) {
  SofiaStream method(SmallConfig());
  EXPECT_EQ(method.init_window(), 24u);
  EXPECT_EQ(method.name(), "SOFIA");
  EXPECT_TRUE(method.SupportsForecast());
}

TEST(SofiaStreamTest, RunsThroughTheImputationProtocol) {
  SyntheticTensor syn = MakeSinusoidTensor(8, 6, 48, 3, 8, 51);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < 48; ++t) truth.push_back(syn.tensor.SliceLastMode(t));
  CorruptedStream stream = Corrupt(truth, {30.0, 10.0, 3.0}, 52);

  SofiaStream method(SmallConfig());
  StreamEvalOptions options;
  options.max_eval_entries = 0;  // Score every entry.
  StreamRunResult res =
      RunImputationComparison({&method}, stream, truth, options)[0].run;
  EXPECT_EQ(res.nre.size(), truth.size());
  EXPECT_GT(res.init_seconds, 0.0);
  EXPECT_EQ(res.step_seconds.size(), truth.size() - method.init_window());
  // Under (30,10,3) corruption, the imputation stays far below trivial
  // error 1.0 throughout.
  EXPECT_LT(res.rae, 0.5);
}

TEST(SofiaStreamTest, InitializeReturnsOneCompletionPerSlice) {
  SyntheticTensor syn = MakeSinusoidTensor(8, 6, 24, 3, 8, 53);
  std::vector<DenseTensor> slices;
  std::vector<Mask> masks;
  for (size_t t = 0; t < 24; ++t) {
    slices.push_back(syn.tensor.SliceLastMode(t));
    masks.emplace_back(slices.back().shape(), true);
  }
  SofiaStream method(SmallConfig());
  std::vector<DenseTensor> completed = method.Initialize(slices, masks);
  ASSERT_EQ(completed.size(), 24u);
  for (const DenseTensor& c : completed) {
    EXPECT_EQ(c.shape(), slices[0].shape());
  }
}

TEST(SofiaStreamTest, StepBeforeInitializeDies) {
  SofiaStream method(SmallConfig());
  DenseTensor y(Shape({4, 4}), 1.0);
  Mask omega(y.shape(), true);
  EXPECT_DEATH(method.Step(y, omega), "Initialize");
}

/// Initialize a bare SofiaModel on fully-observed slices for the
/// degenerate-Ω_t cases below.
SofiaModel InitFullModel(const SofiaConfig& config, uint64_t seed) {
  const size_t w = config.InitWindow();
  SyntheticTensor syn = MakeSinusoidTensor(8, 6, w, config.rank,
                                           config.period, seed);
  std::vector<DenseTensor> slices;
  std::vector<Mask> masks;
  for (size_t t = 0; t < w; ++t) {
    slices.push_back(syn.tensor.SliceLastMode(t));
    masks.emplace_back(slices.back().shape(), true);
  }
  return SofiaModel::Initialize(slices, masks, config);
}

/// Degenerate Ω_t = ∅: no data reaches the update, yet the vector HW
/// recursion of Eq. (26) must still advance on the smoothness-only temporal
/// row, with no NaNs in level/trend and no touched error scales.
TEST(SofiaStreamTest, AllEntriesMissingStepAdvancesHwPerEq26) {
  SofiaConfig config = SmallConfig();
  // λ2 couples to the u_{t-m} ring, which has no public accessor; dropping
  // it keeps the expected temporal row computable from the public state.
  config.lambda2 = 0.0;
  SofiaModel model = InitFullModel(config, 61);

  const std::vector<double> l_prev = model.level();
  const std::vector<double> b_prev = model.trend();
  const std::vector<double> s_prev = model.next_season();  // s_{t-m}
  const std::vector<double> u_prev = model.last_temporal_row();
  const DenseTensor sigma_before = model.error_scale();

  DenseTensor y(model.error_scale().shape(), 3.0);
  Mask empty(y.shape(), false);
  SofiaStepResult out = model.Step(y, empty);
  EXPECT_EQ(out.num_observed(), 0u);
  EXPECT_EQ(out.outliers().CountNonZero(0.0), 0u);

  const std::vector<double>& u_t = model.last_temporal_row();
  for (size_t r = 0; r < config.rank; ++r) {
    // Eq. (25) with an empty gradient: the curvature trace is zero, so the
    // step is the raw 2µ and only the λ1 pull toward u_{t-1} acts.
    const double u_hat = l_prev[r] + b_prev[r] + s_prev[r];
    const double expected_u =
        u_hat + 2.0 * config.mu * config.lambda1 * (u_prev[r] - u_hat);
    EXPECT_NEAR(u_t[r], expected_u, 1e-12) << "column " << r;
    // Eq. (26a)/(26b) on that row.
    const double alpha = model.hw_params()[r].alpha;
    const double beta = model.hw_params()[r].beta;
    const double expected_l = alpha * (u_t[r] - s_prev[r]) +
                              (1.0 - alpha) * (l_prev[r] + b_prev[r]);
    EXPECT_NEAR(model.level()[r], expected_l, 1e-12) << "column " << r;
    EXPECT_NEAR(model.trend()[r],
                beta * (model.level()[r] - l_prev[r]) +
                    (1.0 - beta) * b_prev[r],
                1e-12) << "column " << r;
    EXPECT_TRUE(std::isfinite(model.level()[r]));
    EXPECT_TRUE(std::isfinite(model.trend()[r]));
  }
  // No observation touched any error scale.
  DenseTensor sdiff = model.error_scale() - sigma_before;
  EXPECT_DOUBLE_EQ(sdiff.FrobeniusNorm(), 0.0);
}

/// Degenerate step where every observed entry is an extreme outlier: the
/// Huber clip routes (almost) the whole slice into O_t, the clipped
/// residuals keep the gradient bounded, and Eq. (26) still advances with
/// finite level/trend.
TEST(SofiaStreamTest, AllEntriesOutlierStepStaysFiniteAndAdvances) {
  SofiaConfig config = SmallConfig();
  SofiaModel model = InitFullModel(config, 63);

  const std::vector<double> l_prev = model.level();
  const std::vector<double> b_prev = model.trend();
  const std::vector<double> s_prev = model.next_season();

  DenseTensor y(model.error_scale().shape(), 1e6);  // Every reading absurd.
  Mask full(y.shape(), true);
  SofiaStepResult out = model.Step(y, full);

  // Eq. (21) flags every observed entry with nearly the full spike mass.
  ASSERT_EQ(out.num_observed(), y.NumElements());
  for (size_t k = 0; k < out.num_observed(); ++k) {
    EXPECT_GT(std::fabs(out.observed_outliers()[k]),
              0.9 * std::fabs(y[out.observed_indices()[k]] -
                              out.observed_forecast()[k]));
  }
  const std::vector<double>& u_t = model.last_temporal_row();
  for (size_t r = 0; r < config.rank; ++r) {
    EXPECT_TRUE(std::isfinite(u_t[r]));
    EXPECT_TRUE(std::isfinite(model.level()[r]));
    EXPECT_TRUE(std::isfinite(model.trend()[r]));
    // Eq. (26a) still holds exactly on the (robustly damped) temporal row.
    const double alpha = model.hw_params()[r].alpha;
    const double expected_l = alpha * (u_t[r] - s_prev[r]) +
                              (1.0 - alpha) * (l_prev[r] + b_prev[r]);
    EXPECT_NEAR(model.level()[r], expected_l,
                1e-12 * (1.0 + std::fabs(expected_l)));
  }
  // The next clean-looking forecast is still finite.
  EXPECT_TRUE(std::isfinite(model.Forecast(1).FrobeniusNorm()));
}

TEST(SofiaStreamTest, CustomDisplayNameFlowsThrough) {
  SofiaStream method(SmallConfig(), SofiaAblation{},
                     "SOFIA(no-smoothing)");
  EXPECT_EQ(method.name(), "SOFIA(no-smoothing)");
}

}  // namespace
}  // namespace sofia
