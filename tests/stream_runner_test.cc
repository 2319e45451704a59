#include "eval/stream_runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "baselines/mast.hpp"
#include "baselines/online_sgd.hpp"
#include "data/synthetic.hpp"
#include "dense_oracle.hpp"
#include "expect_close.hpp"
#include "eval/metrics.hpp"

namespace sofia {
namespace {

/// Test double: "imputes" every slice with a constant value; init phase
/// returns the observed data untouched. Forecast returns the constant too.
class ConstantMethod : public StreamingMethod {
 public:
  ConstantMethod(double value, size_t window)
      : value_(value), window_(window) {}

  std::string name() const override { return "Constant"; }
  size_t init_window() const override { return window_; }

  std::vector<DenseTensor> Initialize(
      const std::vector<DenseTensor>& slices,
      const std::vector<Mask>& masks) override {
    initialized_ = true;
    std::vector<DenseTensor> out;
    for (size_t t = 0; t < slices.size(); ++t) {
      out.push_back(masks[t].Apply(slices[t]));
    }
    return out;
  }

  StepResult StepLazy(const DenseTensor& y, const Mask&,
                      std::shared_ptr<const CooList>) override {
    ++steps_;
    last_shape_ = y.shape();
    return StepResult::Dense(DenseTensor(y.shape(), value_));
  }

  bool SupportsForecast() const override { return true; }
  StepResult ForecastLazy(size_t) const override {
    return StepResult::Dense(DenseTensor(last_shape_, value_));
  }

  bool initialized_ = false;
  int steps_ = 0;

 private:
  double value_;
  size_t window_;
  Shape last_shape_;
};

std::vector<DenseTensor> ConstantTruth(size_t steps, double value) {
  return std::vector<DenseTensor>(steps, DenseTensor(Shape({3, 2}), value));
}

/// One method through the imputation protocol, scoring every entry.
StreamRunResult RunOne(StreamingMethod* method, const CorruptedStream& stream,
                       const std::vector<DenseTensor>& truth) {
  StreamEvalOptions options;
  options.max_eval_entries = 0;
  return RunImputationComparison({method}, stream, truth, options)[0].run;
}

TEST(StreamRunnerTest, PerfectMethodScoresZeroNre) {
  std::vector<DenseTensor> truth = ConstantTruth(10, 5.0);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 1);
  ConstantMethod method(5.0, 0);
  StreamRunResult res = RunOne(&method, stream, truth);
  EXPECT_EQ(res.nre.size(), 10u);
  for (double v : res.nre) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(res.rae, 0.0);
  EXPECT_EQ(method.steps_, 10);
  EXPECT_FALSE(method.initialized_);
}

TEST(StreamRunnerTest, WrongMethodScoresExpectedNre) {
  std::vector<DenseTensor> truth = ConstantTruth(6, 2.0);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 2);
  ConstantMethod method(4.0, 0);  // NRE = |4-2|/2 = 1 per slice.
  StreamRunResult res = RunOne(&method, stream, truth);
  EXPECT_NEAR(res.rae, 1.0, 1e-12);
}

TEST(StreamRunnerTest, InitWindowIsScoredFromInitializeOutput) {
  std::vector<DenseTensor> truth = ConstantTruth(8, 3.0);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 3);
  ConstantMethod method(99.0, 4);  // Init returns the observed data: NRE 0.
  StreamRunResult res = RunOne(&method, stream, truth);
  EXPECT_TRUE(method.initialized_);
  EXPECT_EQ(method.steps_, 4);  // Only the post-init slices hit Step().
  for (size_t t = 0; t < 4; ++t) EXPECT_DOUBLE_EQ(res.nre[t], 0.0);
  for (size_t t = 4; t < 8; ++t) EXPECT_DOUBLE_EQ(res.nre[t], 32.0);
  // rae averages everything; rae_post_init only the streamed part.
  EXPECT_DOUBLE_EQ(res.rae, 16.0);
  EXPECT_DOUBLE_EQ(res.rae_post_init, 32.0);
  EXPECT_EQ(res.step_seconds.size(), 4u);
}

std::vector<DenseTensor> SinusoidTruth(size_t steps, uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, steps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < steps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  return truth;
}

TEST(StreamRunnerTest, ComparisonLazyMatchesForcedDense) {
  // The lazy pipeline must be invisible in the scores: driving StepLazy and
  // gathering from the structured handles yields the scores of
  // materializing every estimate (dense_oracle::Materializing) and reading
  // the same entries, to 1e-12 of the oracle's max-abs (the gather and the
  // materialization may contract to fused multiply-adds differently).
  std::vector<DenseTensor> truth = SinusoidTruth(16, 41);
  CorruptedStream stream = Corrupt(truth, {30.0, 5.0, 2.0}, 42);

  OnlineSgdOptions sgd_options;
  sgd_options.rank = 3;
  MastOptions mast_options;
  mast_options.rank = 3;

  StreamEvalOptions lazy_options;
  OnlineSgd sgd_lazy(sgd_options);
  Mast mast_lazy(mast_options);
  std::vector<StreamingMethod*> lazy_methods = {&sgd_lazy, &mast_lazy};
  std::vector<MethodRunResult> lazy =
      RunImputationComparison(lazy_methods, stream, truth, lazy_options);

  dense_oracle::Materializing sgd_dense(
      std::make_unique<OnlineSgd>(sgd_options));
  dense_oracle::Materializing mast_dense(std::make_unique<Mast>(mast_options));
  std::vector<StreamingMethod*> dense_methods = {&sgd_dense, &mast_dense};
  std::vector<MethodRunResult> dense =
      RunImputationComparison(dense_methods, stream, truth, lazy_options);

  ASSERT_EQ(lazy.size(), 2u);
  EXPECT_EQ(lazy[0].name, "OnlineSGD");
  EXPECT_EQ(lazy[1].name, "MAST");
  for (size_t m = 0; m < lazy.size(); ++m) {
    ASSERT_EQ(lazy[m].run.nre.size(), truth.size());
    ASSERT_EQ(dense[m].run.nre.size(), truth.size());
    EXPECT_TRUE(CloseTo(dense[m].run.nre, lazy[m].run.nre, 1e-12));
    EXPECT_TRUE(
        CloseTo(dense[m].run.observed_nre, lazy[m].run.observed_nre, 1e-12));
    EXPECT_TRUE(
        CloseTo(dense[m].run.missing_nre, lazy[m].run.missing_nre, 1e-12));
  }
}

TEST(StreamRunnerTest, ComparisonModeHonorsInitWindows) {
  std::vector<DenseTensor> truth = ConstantTruth(8, 3.0);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 43);
  ConstantMethod windowed(99.0, 4);  // Init returns observed data: NRE 0.
  ConstantMethod plain(3.0, 0);      // Perfect from the first step.
  std::vector<StreamingMethod*> methods = {&windowed, &plain};
  std::vector<MethodRunResult> res =
      RunImputationComparison(methods, stream, truth);

  EXPECT_TRUE(windowed.initialized_);
  EXPECT_EQ(windowed.steps_, 4);  // Only post-window slices hit StepLazy().
  EXPECT_EQ(plain.steps_, 8);
  ASSERT_EQ(res[0].run.nre.size(), 8u);
  // Fully observed stream: the scored set is exactly Ω, and a constant
  // estimate vs constant truth has the same NRE on any entry subset, so
  // the expectations match the dense protocol's values.
  for (size_t t = 0; t < 4; ++t) EXPECT_DOUBLE_EQ(res[0].run.nre[t], 0.0);
  for (size_t t = 4; t < 8; ++t) EXPECT_DOUBLE_EQ(res[0].run.nre[t], 32.0);
  for (size_t t = 0; t < 8; ++t) {
    EXPECT_DOUBLE_EQ(res[0].run.missing_nre[t], 0.0);  // Nothing missing.
  }
  EXPECT_DOUBLE_EQ(res[0].run.rae_post_init, 32.0);
  EXPECT_EQ(res[0].run.step_seconds.size(), 4u);
  EXPECT_DOUBLE_EQ(res[1].run.rae, 0.0);
}

TEST(StreamRunnerTest, ComparisonScoresObservedAndHeldOutPartitions) {
  // 50% missing, wrong-by-2x constant estimate: the observed and held-out
  // partitions both score |4-2|/2 = 1, and so does their union.
  std::vector<DenseTensor> truth = ConstantTruth(6, 2.0);
  CorruptedStream stream = Corrupt(truth, {50.0, 0.0, 0.0}, 44);
  ConstantMethod method(4.0, 0);
  std::vector<StreamingMethod*> methods = {&method};
  std::vector<MethodRunResult> res =
      RunImputationComparison(methods, stream, truth);
  for (size_t t = 0; t < truth.size(); ++t) {
    EXPECT_NEAR(res[0].run.nre[t], 1.0, 1e-12);
    EXPECT_NEAR(res[0].run.observed_nre[t], 1.0, 1e-12);
    EXPECT_NEAR(res[0].run.missing_nre[t], 1.0, 1e-12);
  }
}

TEST(StreamRunnerTest, ForecastProtocolComputesAfeOnHeldOutTail) {
  std::vector<DenseTensor> truth = ConstantTruth(10, 2.0);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 4);
  ConstantMethod method(3.0, 0);  // Forecast NRE = 0.5 everywhere.
  StreamEvalOptions options;
  options.max_eval_entries = 0;
  const double afe = RunForecast(&method, stream, truth, /*horizon=*/3,
                                 options);
  EXPECT_NEAR(afe, 0.5, 1e-12);
  EXPECT_EQ(method.steps_, 7);  // Only the training prefix is consumed.
}

TEST(StreamRunnerTest, ForecastProtocolRejectsZeroHorizon) {
  // horizon 0 passes the horizon < T check, and its AFE would be 0/0.
  std::vector<DenseTensor> truth = ConstantTruth(10, 2.0);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 4);
  ConstantMethod method(3.0, 0);
  EXPECT_DEATH(RunForecast(&method, stream, truth, /*horizon=*/0,
                           StreamEvalOptions{}),
               "horizon");
}

TEST(StreamRunnerTest, SampledForecastProtocolMatchesDenseOnConstants) {
  // Constant forecasts vs constant truth: the sampled held-out NRE equals
  // the full-volume NRE, and the lazy and materialized routes agree.
  std::vector<DenseTensor> truth = ConstantTruth(10, 2.0);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 4);
  StreamEvalOptions options;
  options.max_eval_entries = 4;  // Fewer than the 6 entries per slice.
  ConstantMethod lazy(3.0, 0);
  const double lazy_afe = RunForecast(&lazy, stream, truth, 3, options);
  dense_oracle::Materializing dense(std::make_unique<ConstantMethod>(3.0, 0));
  const double dense_afe = RunForecast(&dense, stream, truth, 3, options);
  EXPECT_NEAR(lazy_afe, 0.5, 1e-12);
  EXPECT_EQ(lazy_afe, dense_afe);
}

}  // namespace
}  // namespace sofia
