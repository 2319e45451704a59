// The lazy StepResult pipeline, end to end:
//  - StepResult's accessors (at / GatherAt / imputed) agree across kinds,
//    and the materialization counter fires exactly on lazy densification;
//  - RunImputationComparison scores every method (SOFIA + all eight
//    baselines) as if its estimates were materialized first (the
//    dense_oracle::Materializing decorator), including empty-Ω, full-Ω,
//    and mask-reuse steps;
//  - uncapped, the lazy imputation and forecast scores equal the dense
//    protocol's full-volume NRE (dense_oracle::RunDenseImputation,
//    RunDenseForecast);
//  - the lazy protocol performs zero full-volume reconstructions
//    (counter-verified), killing the O(volume R) dense floor the dense
//    protocol pays per method per step.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/brst.hpp"
#include "baselines/cp_wopt_stream.hpp"
#include "baselines/cphw.hpp"
#include "baselines/mast.hpp"
#include "baselines/observed_sweep.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "baselines/smf.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "dense_oracle.hpp"
#include "expect_close.hpp"
#include "eval/step_result.hpp"
#include "eval/stream_runner.hpp"
#include "tensor/kruskal.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace {

// ---------------------------------------------------------------- handles

std::vector<Matrix> SmallFactors(uint64_t seed) {
  Rng rng(seed);
  return {Matrix::Random(4, 3, rng, -1.0, 1.0),
          Matrix::Random(5, 3, rng, -1.0, 1.0)};
}

TEST(StepResultTest, KruskalViewMatchesKruskalSlice) {
  std::vector<Matrix> factors = SmallFactors(7);
  std::vector<double> w = {0.3, -1.2, 0.5};
  StepResult lazy = StepResult::Kruskal(factors, w);
  DenseTensor reference = KruskalSlice(factors, w);

  Mask omega(reference.shape(), true);
  CooList all = CooList::Build(omega, /*with_mode_buckets=*/false);
  std::vector<double> gathered = lazy.GatherAt(all);
  ASSERT_EQ(gathered.size(), reference.NumElements());
  // The gather replicates the chain arithmetic; a build that contracts to
  // fused multiply-adds may contract the two differently.
  EXPECT_TRUE(CloseTo(all.Gather(reference), gathered, 1e-12));
  EXPECT_NEAR(lazy.at({1, 2}), reference[reference.shape().Linearize({1, 2})],
              1e-12);

  EXPECT_FALSE(lazy.materialized());
  const size_t before = StepResult::materializations();
  const DenseTensor& dense = lazy.imputed();
  EXPECT_EQ(StepResult::materializations(), before + 1);
  for (size_t k = 0; k < reference.NumElements(); ++k) {
    EXPECT_EQ(dense[k], reference[k]);
  }
  // Cached: a second read does not re-materialize.
  lazy.imputed();
  EXPECT_EQ(StepResult::materializations(), before + 1);
}

TEST(StepResultTest, MaskedViewReadsObservedAndZeroes) {
  auto y = std::make_shared<const DenseTensor>(Shape({2, 3}), 5.0);
  Mask omega(y->shape(), false);
  omega.Set(0, true);
  omega.Set(4, true);
  StepResult lazy = StepResult::Masked(y, omega);
  EXPECT_EQ(lazy.at({0, 0}), 5.0);
  EXPECT_EQ(lazy.at({1, 0}), 0.0);
  const DenseTensor& dense = lazy.imputed();
  EXPECT_EQ(dense[0], 5.0);
  EXPECT_EQ(dense[1], 0.0);
  EXPECT_EQ(dense[4], 5.0);
}

TEST(StepResultTest, DenseKindDoesNotCountAsMaterialization) {
  const size_t before = StepResult::materializations();
  StepResult dense = StepResult::Dense(DenseTensor(Shape({2, 2}), 1.0));
  EXPECT_TRUE(dense.materialized());
  dense.imputed();
  EXPECT_EQ(StepResult::materializations(), before);
}

// ------------------------------------------------- nine-method comparison

std::vector<DenseTensor> MakeTruth(size_t steps, uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, steps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < steps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  return truth;
}

/// All nine streaming methods of the comparison protocols, small configs.
std::vector<std::unique_ptr<StreamingMethod>> MakeAllMethods() {
  std::vector<std::unique_ptr<StreamingMethod>> methods;
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.num_threads = 1;
  methods.push_back(std::make_unique<SofiaStream>(config));
  methods.push_back(std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}));
  methods.push_back(std::make_unique<Olstec>(OlstecOptions{.rank = 3}));
  methods.push_back(std::make_unique<Mast>(MastOptions{.rank = 3}));
  methods.push_back(std::make_unique<OrMstc>(
      OrMstcOptions{.rank = 3, .outlier_lambda = 2.0}));
  methods.push_back(std::make_unique<BrstLite>(BrstOptions{.rank = 4}));
  methods.push_back(std::make_unique<Smf>(SmfOptions{.rank = 3, .period = 4}));
  methods.push_back(std::make_unique<Cphw>(CphwOptions{.rank = 3,
                                                       .period = 4}));
  methods.push_back(std::make_unique<CpWoptStream>(
      CpWoptStreamOptions{.rank = 3, .iterations_per_step = 5}));
  return methods;
}

/// Stream with an empty-Ω step, a full-Ω step, and a run of identical masks
/// (the mask-reuse case) on top of random corruption.
CorruptedStream MakeEdgeCaseStream(const std::vector<DenseTensor>& truth) {
  CorruptedStream stream = Corrupt(truth, {40.0, 10.0, 2.0}, 92);
  EXPECT_GE(truth.size(), 16u);
  stream.masks[9] = Mask(truth[0].shape(), false);  // Empty Ω.
  stream.masks[10] = Mask(truth[0].shape(), true);  // Full Ω.
  stream.masks[12] = stream.masks[11];              // Mask reuse...
  stream.masks[13] = stream.masks[11];              // ...for three steps.
  return stream;
}

TEST(StepResultPipelineTest, LazyEqualsForcedDenseForAllNineMethods) {
  // SOFIA's init window is 3 * period = 12 slices; leave a streamed tail.
  std::vector<DenseTensor> truth = MakeTruth(20, 91);
  CorruptedStream stream = MakeEdgeCaseStream(truth);

  StreamEvalOptions options;
  options.max_eval_entries = 8;  // Exercise the strided sampler too.

  std::vector<std::unique_ptr<StreamingMethod>> lazy_owned = MakeAllMethods();
  std::vector<std::unique_ptr<StreamingMethod>> dense_owned = MakeAllMethods();
  std::vector<StreamingMethod*> lazy_methods, dense_methods;
  for (auto& m : lazy_owned) lazy_methods.push_back(m.get());
  for (auto& m : dense_owned) {
    m = std::make_unique<dense_oracle::Materializing>(std::move(m));
    dense_methods.push_back(m.get());
  }
  ASSERT_EQ(lazy_methods.size(), 9u);

  // The lazy run performs zero full-volume reconstructions: the counter
  // must not move while the comparison executes.
  StepResult::ResetMaterializations();
  std::vector<MethodRunResult> lazy =
      RunImputationComparison(lazy_methods, stream, truth, options);
  EXPECT_EQ(StepResult::materializations(), 0u)
      << "the lazy protocol densified an estimate";

  std::vector<MethodRunResult> dense =
      RunImputationComparison(dense_methods, stream, truth, options);

  ASSERT_EQ(lazy.size(), dense.size());
  for (size_t m = 0; m < lazy.size(); ++m) {
    SCOPED_TRACE(lazy[m].name);
    ASSERT_EQ(lazy[m].run.nre.size(), truth.size());
    ASSERT_EQ(dense[m].run.nre.size(), truth.size());
    for (size_t t = 0; t < truth.size(); ++t) {
      EXPECT_NEAR(lazy[m].run.nre[t], dense[m].run.nre[t], 1e-12)
          << "t=" << t;
      EXPECT_NEAR(lazy[m].run.observed_nre[t], dense[m].run.observed_nre[t],
                  1e-12)
          << "t=" << t;
      EXPECT_NEAR(lazy[m].run.missing_nre[t], dense[m].run.missing_nre[t],
                  1e-12)
          << "t=" << t;
    }
    EXPECT_NEAR(lazy[m].run.rae, dense[m].run.rae, 1e-12);
  }
}

TEST(StepResultPipelineTest, UncappedLazyScoreMatchesLegacyFullVolumeNre) {
  // With max_eval_entries = 0 the scored set is observed ∪ all missing =
  // every entry, so the lazy protocol's per-step NRE equals the legacy
  // dense protocol's full-volume NormalizedResidualError up to summation
  // order (≤ 1e-12) — the equivalence the pipeline bench's legacy-dense
  // comparator and the figure benches rest on.
  std::vector<DenseTensor> truth = MakeTruth(12, 61);
  CorruptedStream stream = Corrupt(truth, {35.0, 5.0, 2.0}, 62);

  OnlineSgd legacy_method(OnlineSgdOptions{.rank = 3});
  StreamRunResult legacy =
      dense_oracle::RunDenseImputation(&legacy_method, stream, truth);

  OnlineSgd lazy_method(OnlineSgdOptions{.rank = 3});
  StreamEvalOptions options;
  options.max_eval_entries = 0;  // Score every missing entry.
  std::vector<StreamingMethod*> methods = {&lazy_method};
  std::vector<MethodRunResult> lazy =
      RunImputationComparison(methods, stream, truth, options);

  ASSERT_EQ(lazy[0].run.nre.size(), legacy.nre.size());
  for (size_t t = 0; t < truth.size(); ++t) {
    EXPECT_NEAR(lazy[0].run.nre[t], legacy.nre[t],
                1e-12 * (1.0 + legacy.nre[t]))
        << "t=" << t;
  }
}

TEST(StepResultPipelineTest, UncappedLazyForecastMatchesLegacyFullVolumeAfe) {
  // The forecast twin of the test above: with max_eval_entries = 0 every
  // entry of each horizon slice is scored, so the lazy AFE equals the mean
  // full-volume NRE of the materialized forecasts — the equivalence the
  // fig1/fig6 benches rest on.
  std::vector<DenseTensor> truth = MakeTruth(24, 73);
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 74);
  StreamEvalOptions options;
  options.max_eval_entries = 0;

  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  std::vector<std::function<std::unique_ptr<StreamingMethod>()>> makers = {
      [&] { return std::make_unique<SofiaStream>(config); },
      [] { return std::make_unique<Smf>(SmfOptions{.rank = 3, .period = 4}); },
      [] {
        return std::make_unique<Cphw>(CphwOptions{.rank = 3, .period = 4});
      },
  };
  for (const auto& make : makers) {
    std::unique_ptr<StreamingMethod> lazy_method = make();
    std::unique_ptr<StreamingMethod> legacy_method = make();
    SCOPED_TRACE(lazy_method->name());
    const double lazy_afe =
        RunForecast(lazy_method.get(), stream, truth, 4, options);
    const double legacy_afe =
        dense_oracle::RunDenseForecast(legacy_method.get(), stream, truth, 4);
    EXPECT_GT(legacy_afe, 0.0);
    EXPECT_NEAR(lazy_afe, legacy_afe, 1e-12 * (1.0 + legacy_afe));
  }
}

TEST(StepResultPipelineTest, LazyForecastMatchesForcedDense) {
  std::vector<DenseTensor> truth = MakeTruth(24, 71);
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 72);

  StreamEvalOptions options;
  options.max_eval_entries = 16;

  // Forecast-capable methods: SOFIA, SMF, CPHW.
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  {
    SofiaStream lazy_method(config);
    dense_oracle::Materializing dense_method(
        std::make_unique<SofiaStream>(config));
    StepResult::ResetMaterializations();
    const double lazy_afe = RunForecast(&lazy_method, stream, truth, 4,
                                        options);
    EXPECT_EQ(StepResult::materializations(), 0u);
    const double dense_afe = RunForecast(&dense_method, stream, truth, 4,
                                         options);
    EXPECT_NEAR(lazy_afe, dense_afe, 1e-12);
  }
  {
    Smf lazy_method(SmfOptions{.rank = 3, .period = 4});
    dense_oracle::Materializing dense_method(
        std::make_unique<Smf>(SmfOptions{.rank = 3, .period = 4}));
    StepResult::ResetMaterializations();
    const double lazy_afe = RunForecast(&lazy_method, stream, truth, 4,
                                        options);
    EXPECT_EQ(StepResult::materializations(), 0u);
    const double dense_afe = RunForecast(&dense_method, stream, truth, 4,
                                         options);
    EXPECT_EQ(lazy_afe, dense_afe);  // Identical loops: identical bits.
  }
}

TEST(StepResultPipelineTest, SofiaAdoptsSharedPatternWithoutBuilding) {
  // With the shared_ptr pattern cache, SOFIA steps driven through the
  // comparison runner never build a CooList themselves.
  std::vector<DenseTensor> truth = MakeTruth(16, 51);
  CorruptedStream stream = Corrupt(truth, {30.0, 5.0, 2.0}, 52);

  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  SofiaStream method(config);
  std::vector<StreamingMethod*> methods = {&method};
  RunImputationComparison(methods, stream, truth);
  EXPECT_EQ(method.model().step_pattern_builds(), 0u)
      << "SOFIA rebuilt a pattern the runner already built";
}

TEST(StepResultPipelineTest, SharedPatternSurvivesMaskReuseSteps) {
  // Identical consecutive masks: the runner builds once, every method
  // (including SOFIA's internal cache) reuses, and scores still match the
  // materialized route.
  std::vector<DenseTensor> truth = MakeTruth(10, 31);
  CorruptedStream stream = Corrupt(truth, {50.0, 0.0, 0.0}, 32);
  for (size_t t = 1; t < stream.masks.size(); ++t) {
    stream.masks[t] = stream.masks[0];  // One fixed outage mask throughout.
  }

  OnlineSgd lazy_method(OnlineSgdOptions{.rank = 3});
  dense_oracle::Materializing dense_method(
      std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}));
  std::vector<StreamingMethod*> lazy_methods = {&lazy_method};
  std::vector<StreamingMethod*> dense_methods = {&dense_method};
  std::vector<MethodRunResult> lazy =
      RunImputationComparison(lazy_methods, stream, truth);
  std::vector<MethodRunResult> dense =
      RunImputationComparison(dense_methods, stream, truth);
  for (size_t t = 0; t < truth.size(); ++t) {
    EXPECT_EQ(lazy[0].run.nre[t], dense[0].run.nre[t]) << "t=" << t;
  }
}

}  // namespace
}  // namespace sofia
