#include <gtest/gtest.h>

#include "baselines/online_sgd.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "eval/stream_runner.hpp"
#include "tensor/kruskal.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace {

/// Every algorithm in the library is mode-generic; these tests pin that on
/// 4-way tensors (3-way slices), e.g. (position, sensor, metric, time).

constexpr double kTwoPi = 6.283185307179586;

/// Rank-R 4-way seasonal ground truth as a stream of 3-way slices.
std::vector<DenseTensor> MakeFourWayStream(size_t i1, size_t i2, size_t i3,
                                           size_t steps, size_t rank,
                                           size_t period, uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors = {Matrix::Random(i1, rank, rng, 0.0, 1.0),
                                 Matrix::Random(i2, rank, rng, 0.0, 1.0),
                                 Matrix::Random(i3, rank, rng, 0.0, 1.0)};
  std::vector<DenseTensor> slices;
  std::vector<double> w(rank);
  for (size_t t = 0; t < steps; ++t) {
    for (size_t r = 0; r < rank; ++r) {
      w[r] = 1.5 + std::sin(kTwoPi * static_cast<double>(t % period) /
                                static_cast<double>(period) +
                            static_cast<double>(r));
    }
    slices.push_back(KruskalSlice(factors, w));
  }
  return slices;
}

/// `lambda` policy mirrors the 3-way tests: paper default for clean
/// streams, scaled smoothness plus a data-scaled λ3 under corruption.
SofiaConfig FourWayConfig(const CorruptedStream& stream, double lambda) {
  SofiaConfig config;
  config.rank = 2;
  config.period = 6;
  config.init_seasons = 3;
  config.lambda1 = lambda;
  config.lambda2 = lambda;
  config.lambda3 = 3.0 * ObservedAbsQuantile(stream, 0.75);
  config.max_init_iterations = 10;
  return config;
}

/// One method through the imputation protocol, scoring every entry.
StreamRunResult RunOne(StreamingMethod* method, const CorruptedStream& stream,
                       const std::vector<DenseTensor>& truth) {
  StreamEvalOptions options;
  options.max_eval_entries = 0;
  return RunImputationComparison({method}, stream, truth, options)[0].run;
}

TEST(MultiwayTest, SofiaTracksCleanFourWayStream) {
  std::vector<DenseTensor> truth =
      MakeFourWayStream(6, 5, 4, 48, 2, 6, 81);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 82);
  SofiaStream method(FourWayConfig(stream, /*lambda=*/1e-3));
  StreamRunResult res = RunOne(&method, stream, truth);
  EXPECT_LT(res.rae_post_init, 0.1);
}

TEST(MultiwayTest, SofiaImputesCorruptedFourWayStream) {
  std::vector<DenseTensor> truth =
      MakeFourWayStream(6, 5, 4, 48, 2, 6, 83);
  CorruptedStream stream = Corrupt(truth, {30.0, 10.0, 3.0}, 84);
  SofiaStream method(FourWayConfig(stream, /*lambda=*/0.5));
  StreamRunResult res = RunOne(&method, stream, truth);
  EXPECT_LT(res.rae, 0.5);

  OnlineSgd sgd(OnlineSgdOptions{.rank = 2});
  StreamRunResult sgd_res = RunOne(&sgd, stream, truth);
  EXPECT_LT(res.rae, sgd_res.rae);
}

TEST(MultiwayTest, ForecastShapesMatchSliceShape) {
  std::vector<DenseTensor> truth =
      MakeFourWayStream(6, 5, 4, 36, 2, 6, 85);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 86);
  SofiaStream method(FourWayConfig(stream, /*lambda=*/1e-3));
  const size_t w = method.init_window();
  std::vector<DenseTensor> init(stream.slices.begin(),
                                stream.slices.begin() + w);
  std::vector<Mask> masks(stream.masks.begin(), stream.masks.begin() + w);
  method.Initialize(init, masks);
  DenseTensor forecast = method.Forecast(3);
  EXPECT_EQ(forecast.shape().dims(), (std::vector<size_t>{6, 5, 4}));
}

TEST(MultiwayTest, FiveWayKruskalRoundtrip) {
  // Deep-order sanity: a 5-way Kruskal tensor is consistent with its
  // factors entry-by-entry.
  Rng rng(87);
  std::vector<Matrix> factors;
  const std::vector<size_t> dims = {3, 2, 4, 2, 3};
  for (size_t d : dims) factors.push_back(Matrix::RandomNormal(d, 2, rng));
  DenseTensor x = KruskalTensor(factors);
  std::vector<size_t> idx(5, 0);
  for (size_t linear = 0; linear < x.NumElements(); ++linear) {
    EXPECT_NEAR(x[linear], KruskalEntry(factors, idx), 1e-12);
    x.shape().Next(&idx);
  }
}

}  // namespace
}  // namespace sofia
