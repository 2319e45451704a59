// The adversarial scenario generators (data/scenarios.hpp):
//  - same (truth, options, seed) => bitwise-identical streams, including
//    the NaN payloads of garbage slices (memcmp-pinned);
//  - bursty-outage mask churn is exactly the recorded Markov flip counts x
//    row-volume per step, and the comparison runner rebuilds its pattern
//    on exactly the steps whose mask moved;
//  - regime change transforms the scoring truth from the change point on;
//  - structured outliers are whole-row, constant-offset bursts;
//  - garbage slices alternate NaN and huge-finite payloads at the recorded
//    fault steps;
//  - the name <-> kind mapping round-trips over the catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "baselines/online_sgd.hpp"
#include "data/scenarios.hpp"
#include "data/synthetic.hpp"
#include "eval/stream_runner.hpp"

namespace sofia {
namespace {

std::vector<DenseTensor> MakeTruth(size_t steps, uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, steps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < steps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  return truth;
}

bool BitwiseEqual(const DenseTensor& a, const DenseTensor& b) {
  if (!(a.shape() == b.shape())) return false;
  return std::memcmp(a.data(), b.data(),
                     a.NumElements() * sizeof(double)) == 0;
}

bool MasksEqual(const Mask& a, const Mask& b) {
  if (!(a.shape() == b.shape())) return false;
  for (size_t k = 0; k < a.shape().NumElements(); ++k) {
    if (a.Get(k) != b.Get(k)) return false;
  }
  return true;
}

TEST(ScenariosTest, NameKindRoundTripsOverCatalog) {
  for (ScenarioKind kind : ScenarioCatalog()) {
    EXPECT_EQ(ParseScenario(ScenarioName(kind)), kind);
  }
  EXPECT_DEATH(ParseScenario("definitely-not-a-scenario"), "scenario");
}

TEST(ScenariosTest, SameSeedIsBitwiseIdenticalForEveryScenario) {
  std::vector<DenseTensor> truth = MakeTruth(30, 171);
  ScenarioOptions options;
  for (ScenarioKind kind : ScenarioCatalog()) {
    SCOPED_TRACE(ScenarioName(kind));
    ScenarioStream a = MakeScenario(kind, truth, options, 172);
    ScenarioStream b = MakeScenario(kind, truth, options, 172);
    ASSERT_EQ(a.stream.slices.size(), b.stream.slices.size());
    for (size_t t = 0; t < a.stream.slices.size(); ++t) {
      // memcmp, not ==: NaN garbage payloads must match bit for bit too.
      EXPECT_TRUE(BitwiseEqual(a.stream.slices[t], b.stream.slices[t]))
          << "t=" << t;
      EXPECT_TRUE(MasksEqual(a.stream.masks[t], b.stream.masks[t]))
          << "t=" << t;
      EXPECT_TRUE(BitwiseEqual(a.truth[t], b.truth[t])) << "t=" << t;
    }
    EXPECT_EQ(a.fault_steps, b.fault_steps);
    EXPECT_EQ(a.outage_flips, b.outage_flips);
    EXPECT_EQ(a.regime_step, b.regime_step);

    // A different seed moves the stochastic scenarios (regime change is the
    // only purely deterministic transform beyond the element substrate).
    ScenarioStream c = MakeScenario(kind, truth, options, 173);
    bool any_diff = false;
    for (size_t t = 0; t < a.stream.slices.size() && !any_diff; ++t) {
      any_diff = !BitwiseEqual(a.stream.slices[t], c.stream.slices[t]) ||
                 !MasksEqual(a.stream.masks[t], c.stream.masks[t]);
    }
    EXPECT_TRUE(any_diff);
  }
}

TEST(ScenariosTest, OutageFlipsMatchMaskChurnAndRunnerRebuilds) {
  std::vector<DenseTensor> truth = MakeTruth(24, 181);
  ScenarioOptions options;
  // Pure outages: no element-wise missingness, so the mask delta between
  // consecutive steps is exactly the flipped rows.
  options.element = CorruptionSetting{0.0, 0.0, 0.0};
  options.outage_fail_prob = 0.15;
  options.outage_recover_prob = 0.5;
  ScenarioStream scenario =
      MakeScenario(ScenarioKind::kBurstyOutage, truth, options, 182);

  ASSERT_EQ(scenario.outage_flips.size(), truth.size());
  size_t total_flips = 0;
  for (size_t f : scenario.outage_flips) total_flips += f;
  ASSERT_GT(total_flips, 0u) << "outage chain never moved; raise the probs";

  // Row volume of mode 0: a 6x5 slice changes 5 entries per flipped row.
  const size_t row_volume = truth[0].shape().NumElements() /
                            truth[0].shape().dim(0);
  size_t churn_steps = 0;
  for (size_t t = 1; t < scenario.outage_flips.size(); ++t) {
    const std::vector<size_t> before =
        scenario.stream.masks[t - 1].ObservedIndices();
    const std::vector<size_t> after =
        scenario.stream.masks[t].ObservedIndices();
    std::vector<size_t> delta;
    std::set_symmetric_difference(before.begin(), before.end(),
                                  after.begin(), after.end(),
                                  std::back_inserter(delta));
    EXPECT_EQ(delta.size(), scenario.outage_flips[t] * row_volume)
        << "mask churn disagrees with the Markov flips at step " << t;
    if (scenario.outage_flips[t] > 0) ++churn_steps;
  }

  OnlineSgd method(OnlineSgdOptions{.rank = 3});
  std::vector<StreamingMethod*> methods = {&method};
  std::vector<MethodRunResult> results = RunImputationComparison(
      methods, scenario.stream, scenario.truth);
  EXPECT_EQ(results[0].run.pattern_builds, 1 + churn_steps)
      << "the runner must rebuild on exactly the steps whose mask moved";
  EXPECT_EQ(results[0].run.pattern_builds + results[0].run.pattern_reuses,
            truth.size());
}

TEST(ScenariosTest, RegimeChangeTransformsScoringTruthFromChangePoint) {
  std::vector<DenseTensor> truth = MakeTruth(20, 191);
  ScenarioOptions options;
  options.regime_fraction = 0.5;
  options.regime_amplitude = 3.0;
  ScenarioStream scenario =
      MakeScenario(ScenarioKind::kRegimeChange, truth, options, 192);

  EXPECT_EQ(scenario.regime_step, 10u);
  for (size_t t = 0; t < truth.size(); ++t) {
    for (size_t k = 0; k < truth[t].NumElements(); ++k) {
      const double expected =
          t < scenario.regime_step ? truth[t][k] : 3.0 * truth[t][k];
      ASSERT_EQ(scenario.truth[t][k], expected) << "t=" << t << " k=" << k;
    }
  }
}

TEST(ScenariosTest, StructuredOutliersAreConstantRowAlignedBursts) {
  std::vector<DenseTensor> truth = MakeTruth(30, 201);
  ScenarioOptions options;
  options.element = CorruptionSetting{0.0, 0.0, 0.0};  // Isolate the bursts.
  options.burst_start_prob = 0.1;
  ScenarioStream scenario =
      MakeScenario(ScenarioKind::kStructuredOutliers, truth, options, 202);

  const Shape& shape = truth[0].shape();
  size_t outlier_entries = 0;
  for (size_t t = 0; t < truth.size(); ++t) {
    // Within one step, every entry of an outlier row carries one shared
    // offset; rows without outliers match the truth exactly.
    for (size_t i = 0; i < shape.dim(0); ++i) {
      double row_offset = 0.0;
      bool row_is_outlier = false;
      for (size_t j = 0; j < shape.dim(1); ++j) {
        const size_t linear = shape.Linearize({i, j});
        if (scenario.stream.outlier_positions[t].Get(linear)) {
          row_is_outlier = true;
          row_offset = scenario.stream.slices[t][linear] - truth[t][linear];
          break;
        }
      }
      for (size_t j = 0; j < shape.dim(1); ++j) {
        const size_t linear = shape.Linearize({i, j});
        const double expected =
            truth[t][linear] + (row_is_outlier ? row_offset : 0.0);
        ASSERT_NEAR(scenario.stream.slices[t][linear], expected, 1e-12)
            << "t=" << t << " i=" << i << " j=" << j;
        if (row_is_outlier) ++outlier_entries;
      }
      if (row_is_outlier) {
        EXPECT_NEAR(std::fabs(row_offset),
                    options.burst_magnitude * scenario.stream.max_abs, 1e-9);
      }
    }
  }
  EXPECT_GT(outlier_entries, 0u) << "no burst fired; raise burst_start_prob";
}

TEST(ScenariosTest, GarbageSlicesAlternateNanAndHugeAtRecordedSteps) {
  std::vector<DenseTensor> truth = MakeTruth(44, 211);
  ScenarioOptions options;
  options.garbage_offset = 16;
  options.garbage_every = 12;
  ScenarioStream scenario =
      MakeScenario(ScenarioKind::kGarbageSlices, truth, options, 212);

  EXPECT_EQ(scenario.fault_steps, (std::vector<size_t>{16, 28, 40}));
  for (size_t f = 0; f < scenario.fault_steps.size(); ++f) {
    const size_t t = scenario.fault_steps[f];
    const DenseTensor& slice = scenario.stream.slices[t];
    const Mask& mask = scenario.stream.masks[t];
    const bool expect_nan = (f % 2 == 0);
    for (size_t k = 0; k < slice.NumElements(); ++k) {
      if (!mask.Get(k)) continue;
      if (expect_nan) {
        ASSERT_TRUE(std::isnan(slice[k])) << "t=" << t << " k=" << k;
      } else {
        ASSERT_TRUE(std::isfinite(slice[k]));
        ASSERT_GE(std::fabs(slice[k]),
                  options.garbage_magnitude *
                      std::max(scenario.stream.max_abs, 1.0) * 0.999);
      }
    }
  }
  // Non-fault steps keep their (element-corrupted) payloads finite.
  for (size_t t = 0; t < truth.size(); ++t) {
    if (std::find(scenario.fault_steps.begin(), scenario.fault_steps.end(),
                  t) != scenario.fault_steps.end()) {
      continue;
    }
    for (size_t k = 0; k < scenario.stream.slices[t].NumElements(); ++k) {
      if (scenario.stream.masks[t].Get(k)) {
        ASSERT_TRUE(std::isfinite(scenario.stream.slices[t][k]))
            << "t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace sofia
