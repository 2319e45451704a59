#include "core/sofia_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "tensor/kruskal.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace {

/// A seasonal low-rank stream long enough for init + streaming + forecast.
struct StreamProblem {
  std::vector<DenseTensor> truth;
  SofiaConfig config;
};

/// `lambda` is the smoothness weight: the paper default 1e-3 for clean
/// streams (no prior needed; avoids regularization bias), 0.5 for corrupted
/// streams where the prior is what rescues the factorization.
StreamProblem MakeStream(size_t duration, uint64_t seed,
                         double lambda = 1e-3, size_t rows = 9,
                         size_t cols = 7) {
  StreamProblem p;
  p.config.period = 8;
  p.config.rank = 3;
  p.config.init_seasons = 3;
  p.config.seed = seed;
  p.config.max_init_iterations = 10;
  p.config.lambda1 = lambda;
  p.config.lambda2 = lambda;
  SyntheticTensor syn =
      MakeSinusoidTensor(rows, cols, duration, p.config.rank, p.config.period,
                         seed);
  for (size_t t = 0; t < duration; ++t) {
    p.truth.push_back(syn.tensor.SliceLastMode(t));
  }
  return p;
}

SofiaModel InitModel(const StreamProblem& p, const CorruptedStream& stream) {
  const size_t w = p.config.InitWindow();
  std::vector<DenseTensor> slices(stream.slices.begin(),
                                  stream.slices.begin() + w);
  std::vector<Mask> masks(stream.masks.begin(), stream.masks.begin() + w);
  return SofiaModel::Initialize(slices, masks, p.config);
}

TEST(SofiaModelTest, TracksCleanStreamAccurately) {
  StreamProblem p = MakeStream(64, 31);
  CorruptedStream stream = Corrupt(p.truth, {0.0, 0.0, 0.0}, 32);
  SofiaModel model = InitModel(p, stream);
  std::vector<double> nre;
  for (size_t t = p.config.InitWindow(); t < p.truth.size(); ++t) {
    SofiaStepResult out = model.Step(stream.slices[t], stream.masks[t]);
    nre.push_back(NormalizedResidualError(out.imputed(), p.truth[t]));
  }
  EXPECT_LT(Mean(nre), 0.05);
}

TEST(SofiaModelTest, ImputesMissingEntries) {
  StreamProblem p = MakeStream(64, 33, /*lambda=*/0.5);
  CorruptedStream stream = Corrupt(p.truth, {40.0, 0.0, 0.0}, 34);
  SofiaModel model = InitModel(p, stream);
  std::vector<double> nre;
  for (size_t t = p.config.InitWindow(); t < p.truth.size(); ++t) {
    SofiaStepResult out = model.Step(stream.slices[t], stream.masks[t]);
    nre.push_back(NormalizedResidualError(out.imputed(), p.truth[t]));
  }
  // 40% of entries were never observed, yet the slice error stays small.
  EXPECT_LT(Mean(nre), 0.12);
}

TEST(SofiaModelTest, DetectsInjectedSpikeAndShieldsImputation) {
  StreamProblem p = MakeStream(56, 35);
  CorruptedStream stream = Corrupt(p.truth, {0.0, 0.0, 0.0}, 36);
  SofiaModel model = InitModel(p, stream);
  const size_t w = p.config.InitWindow();

  // Warm up a few clean steps, then hit one entry with a massive spike.
  size_t t = w;
  for (; t < w + 6; ++t) model.Step(stream.slices[t], stream.masks[t]);
  DenseTensor spiked = stream.slices[t];
  const double magnitude = 20.0 * stream.max_abs;
  spiked[3] += magnitude;
  SofiaStepResult out = model.Step(spiked, stream.masks[t]);

  // Eq. (21): nearly the whole spike lands in the outlier tensor...
  EXPECT_GT(out.outliers()[3], 0.8 * magnitude);
  // ...and the imputed value stays near the truth, not the spike.
  EXPECT_LT(std::fabs(out.imputed()[3] - p.truth[t][3]),
            0.05 * magnitude);
}

TEST(SofiaModelTest, OutlierFreeInliersPassUntouched) {
  StreamProblem p = MakeStream(56, 37);
  CorruptedStream stream = Corrupt(p.truth, {0.0, 0.0, 0.0}, 38);
  SofiaModel model = InitModel(p, stream);
  const size_t w = p.config.InitWindow();
  SofiaStepResult out = model.Step(stream.slices[w], stream.masks[w]);
  // On a clean in-distribution slice, O_t should be (almost) all zero.
  EXPECT_LT(out.outliers().CountNonZero(1e-9),
            out.outliers().NumElements() / 10);
}

TEST(SofiaModelTest, TrendUpdateMatchesEquation26b) {
  StreamProblem p = MakeStream(56, 39);
  CorruptedStream stream = Corrupt(p.truth, {0.0, 0.0, 0.0}, 40);
  SofiaModel model = InitModel(p, stream);
  const size_t w = p.config.InitWindow();

  const std::vector<double> l_prev = model.level();
  const std::vector<double> b_prev = model.trend();
  model.Step(stream.slices[w], stream.masks[w]);
  for (size_t r = 0; r < p.config.rank; ++r) {
    const double beta = model.hw_params()[r].beta;
    const double expected =
        beta * (model.level()[r] - l_prev[r]) + (1.0 - beta) * b_prev[r];
    EXPECT_NEAR(model.trend()[r], expected, 1e-12) << "column " << r;
  }
}

TEST(SofiaModelTest, LevelUpdateMatchesEquation26a) {
  StreamProblem p = MakeStream(56, 41);
  CorruptedStream stream = Corrupt(p.truth, {0.0, 0.0, 0.0}, 42);
  SofiaModel model = InitModel(p, stream);
  const size_t w = p.config.InitWindow();

  const std::vector<double> l_prev = model.level();
  const std::vector<double> b_prev = model.trend();
  const std::vector<double> s_prev = model.next_season();  // s_{t-m}
  model.Step(stream.slices[w], stream.masks[w]);
  const std::vector<double>& u_t = model.last_temporal_row();
  for (size_t r = 0; r < p.config.rank; ++r) {
    const double alpha = model.hw_params()[r].alpha;
    const double expected = alpha * (u_t[r] - s_prev[r]) +
                            (1.0 - alpha) * (l_prev[r] + b_prev[r]);
    EXPECT_NEAR(model.level()[r], expected, 1e-12) << "column " << r;
  }
}

TEST(SofiaModelTest, ForecastMatchesHwExtrapolationOfFactors) {
  StreamProblem p = MakeStream(56, 43);
  CorruptedStream stream = Corrupt(p.truth, {0.0, 0.0, 0.0}, 44);
  SofiaModel model = InitModel(p, stream);
  for (size_t t = p.config.InitWindow(); t < 48; ++t) {
    model.Step(stream.slices[t], stream.masks[t]);
  }
  // h = 1 forecast must equal the reconstruction of l + b + s_next.
  std::vector<double> u_hat(p.config.rank);
  for (size_t r = 0; r < p.config.rank; ++r) {
    u_hat[r] = model.level()[r] + model.trend()[r] + model.next_season()[r];
  }
  DenseTensor expected = model.Reconstruct(u_hat);
  DenseTensor got = model.Forecast(1);
  DenseTensor diff = got - expected;
  EXPECT_LT(diff.FrobeniusNorm(), 1e-12);
}

TEST(SofiaModelTest, ForecastsFutureSlicesOfSeasonalStream) {
  StreamProblem p = MakeStream(72, 45);
  CorruptedStream stream = Corrupt(p.truth, {0.0, 0.0, 0.0}, 46);
  SofiaModel model = InitModel(p, stream);
  const size_t train = 56;
  for (size_t t = p.config.InitWindow(); t < train; ++t) {
    model.Step(stream.slices[t], stream.masks[t]);
  }
  std::vector<double> afe;
  for (size_t h = 1; h <= p.truth.size() - train; ++h) {
    afe.push_back(NormalizedResidualError(model.Forecast(h),
                                          p.truth[train + h - 1]));
  }
  EXPECT_LT(Mean(afe), 0.2);
}

TEST(SofiaModelTest, ErrorScaleStaysPositiveAndAdapts) {
  StreamProblem p = MakeStream(56, 47);
  CorruptedStream stream = Corrupt(p.truth, {0.0, 0.0, 0.0}, 48);
  SofiaModel model = InitModel(p, stream);
  const size_t w = p.config.InitWindow();
  const double initial = model.error_scale()[0];
  EXPECT_DOUBLE_EQ(initial, p.config.lambda3 / 100.0);
  for (size_t t = w; t < 52; ++t) {
    model.Step(stream.slices[t], stream.masks[t]);
    for (size_t k = 0; k < model.error_scale().NumElements(); ++k) {
      EXPECT_GT(model.error_scale()[k], 0.0);
    }
  }
}

TEST(SofiaModelTest, AblationWithoutRejectionLeaksOutliers) {
  StreamProblem p = MakeStream(64, 49, /*lambda=*/0.5);
  CorruptedStream stream = Corrupt(p.truth, {0.0, 15.0, 5.0}, 50);
  // Corrupt only the post-init part so both models start identically.
  for (size_t t = 0; t < p.config.InitWindow(); ++t) {
    stream.slices[t] = p.truth[t];
  }

  auto run = [&](bool reject) {
    SofiaAblation ablation;
    ablation.reject_outliers = reject;
    const size_t w = p.config.InitWindow();
    std::vector<DenseTensor> slices(stream.slices.begin(),
                                    stream.slices.begin() + w);
    std::vector<Mask> masks(stream.masks.begin(), stream.masks.begin() + w);
    SofiaModel model =
        SofiaModel::Initialize(slices, masks, p.config, ablation);
    std::vector<double> nre;
    for (size_t t = w; t < p.truth.size(); ++t) {
      SofiaStepResult out = model.Step(stream.slices[t], stream.masks[t]);
      nre.push_back(NormalizedResidualError(out.imputed(), p.truth[t]));
    }
    return Mean(nre);
  };

  EXPECT_LT(run(/*reject=*/true), run(/*reject=*/false));
}

/// Bitwise equality of two double arrays (memcmp: -0.0 and NaN payloads
/// count too).
void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

std::vector<double> Values(const DenseTensor& t) {
  return std::vector<double>(t.data(), t.data() + t.NumElements());
}

std::vector<double> Values(const Matrix& m) {
  return std::vector<double>(m.data(), m.data() + m.size());
}

TEST(SofiaModelTest, InitializeIsBitwiseIndependentOfThePool) {
  // Init runs on the pool it is handed, or on an executor of
  // config.num_threads workers local to the call. The ALS kernels split
  // each sweep into thread-owned units, so every worker count, and an
  // adopted executor, must give the same bits: factors, the init
  // completion, the Holt-Winters fit, σ, and the next step. 20 x 16 x 24
  // at 70% observed is past one 4096-record reduction block, so any
  // blocked reduction splits across threads too.
  StreamProblem p = MakeStream(32, 61, /*lambda=*/0.5, 20, 16);
  CorruptedStream stream = Corrupt(p.truth, {30.0, 5.0, 4.0}, 62);
  const size_t w = p.config.InitWindow();
  std::vector<DenseTensor> slices(stream.slices.begin(),
                                  stream.slices.begin() + w);
  std::vector<Mask> masks(stream.masks.begin(), stream.masks.begin() + w);
  size_t observed = 0;
  for (const Mask& m : masks) observed += m.CountObserved();
  ASSERT_GT(observed, 4096u);

  std::vector<SofiaModel> models;
  std::vector<std::string> labels;
  for (size_t threads : {1, 2, 3, 8}) {
    SofiaConfig config = p.config;
    config.num_threads = threads;
    models.push_back(SofiaModel::Initialize(slices, masks, config));
    labels.push_back("num_threads=" + std::to_string(threads));
  }
  ShardExecutor adopted(3);
  models.push_back(
      SofiaModel::Initialize(slices, masks, p.config, {}, &adopted));
  labels.push_back("adopted 3-thread executor");

  const SofiaModel& ref = models[0];
  for (size_t i = 1; i < models.size(); ++i) {
    SCOPED_TRACE(labels[i]);
    const SofiaModel& model = models[i];
    ASSERT_EQ(model.nontemporal_factors().size(),
              ref.nontemporal_factors().size());
    for (size_t n = 0; n < ref.nontemporal_factors().size(); ++n) {
      ExpectSameBits(Values(model.nontemporal_factors()[n]),
                     Values(ref.nontemporal_factors()[n]), "factor");
    }
    ExpectSameBits(Values(model.init_completed()),
                   Values(ref.init_completed()), "init_completed");
    ASSERT_EQ(model.hw_params().size(), ref.hw_params().size());
    for (size_t r = 0; r < ref.hw_params().size(); ++r) {
      ExpectSameBits({model.hw_params()[r].alpha, model.hw_params()[r].beta,
                      model.hw_params()[r].gamma},
                     {ref.hw_params()[r].alpha, ref.hw_params()[r].beta,
                      ref.hw_params()[r].gamma},
                     "hw_params");
    }
    ExpectSameBits(model.level(), ref.level(), "level");
    ExpectSameBits(model.trend(), ref.trend(), "trend");
    ExpectSameBits(model.last_temporal_row(), ref.last_temporal_row(),
                   "last_temporal_row");
    ExpectSameBits(Values(model.error_scale()), Values(ref.error_scale()),
                   "sigma");
  }

  const DenseTensor& y = stream.slices[w];
  const Mask& omega = stream.masks[w];
  SofiaStepResult ref_step = models[0].Step(y, omega);
  for (size_t i = 1; i < models.size(); ++i) {
    SCOPED_TRACE(labels[i]);
    SofiaStepResult step = models[i].Step(y, omega);
    ExpectSameBits(step.observed_forecast(), ref_step.observed_forecast(),
                   "forecast");
    ExpectSameBits(step.observed_outliers(), ref_step.observed_outliers(),
                   "outliers");
    ExpectSameBits(step.temporal_row(), ref_step.temporal_row(),
                   "temporal_row");
    ExpectSameBits(Values(step.imputed()), Values(ref_step.imputed()),
                   "imputed");
    ExpectSameBits(Values(models[i].error_scale()),
                   Values(ref.error_scale()), "sigma after step");
  }
}

}  // namespace
}  // namespace sofia
