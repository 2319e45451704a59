#include <gtest/gtest.h>

#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/dataset_sim.hpp"
#include "data/synthetic.hpp"
#include "eval/experiment.hpp"
#include "eval/stream_runner.hpp"

namespace sofia {
namespace {

std::vector<DenseTensor> MakeTruth(size_t steps, uint64_t seed) {
  return MakeScalabilityStream(10, 8, steps, 3, 8, seed);
}

TEST(OutageTest, OutagesDropWholeRows) {
  std::vector<DenseTensor> truth = MakeTruth(60, 71);
  OutageSetting outages;
  outages.outage_start_prob = 0.05;
  outages.outage_length = 4;
  CorruptedStream stream =
      CorruptWithOutages(truth, {0.0, 0.0, 0.0}, outages, 72);

  // Every mask must be "row-consistent": within a step, a mode-0 row is
  // either fully present or fully absent (no element-wise missingness was
  // requested).
  const Shape& shape = truth[0].shape();
  size_t outage_rows = 0;
  for (const Mask& mask : stream.masks) {
    for (size_t i = 0; i < shape.dim(0); ++i) {
      size_t present = 0;
      for (size_t j = 0; j < shape.dim(1); ++j) {
        if (mask.At({i, j})) ++present;
      }
      EXPECT_TRUE(present == 0 || present == shape.dim(1))
          << "row " << i << " partially missing";
      if (present == 0) ++outage_rows;
    }
  }
  EXPECT_GT(outage_rows, 0u) << "no outages triggered at all";
}

TEST(OutageTest, OutagesPersistForConfiguredLength) {
  std::vector<DenseTensor> truth = MakeTruth(120, 73);
  OutageSetting outages;
  outages.outage_start_prob = 0.01;
  outages.outage_length = 6;
  CorruptedStream stream =
      CorruptWithOutages(truth, {0.0, 0.0, 0.0}, outages, 74);

  // Scan row 0..n for runs of fully-missing steps; every maximal run must
  // be at least the configured length (possibly longer if restarted).
  const Shape& shape = truth[0].shape();
  for (size_t i = 0; i < shape.dim(0); ++i) {
    size_t run = 0;
    for (size_t t = 0; t < stream.masks.size(); ++t) {
      bool all_missing = true;
      for (size_t j = 0; j < shape.dim(1); ++j) {
        if (stream.masks[t].At({i, j})) all_missing = false;
      }
      if (all_missing) {
        ++run;
      } else {
        if (run > 0) EXPECT_GE(run, outages.outage_length);
        run = 0;
      }
    }
  }
}

TEST(OutageTest, ComposesWithElementwiseCorruption) {
  std::vector<DenseTensor> truth = MakeTruth(60, 75);
  OutageSetting outages;
  outages.outage_start_prob = 0.03;
  outages.outage_length = 3;
  CorruptedStream with_elementwise =
      CorruptWithOutages(truth, {30.0, 10.0, 3.0}, outages, 76);
  CorruptedStream only_outages =
      CorruptWithOutages(truth, {0.0, 0.0, 0.0}, outages, 76);
  // Element-wise missingness strictly reduces the observed count.
  size_t observed_a = 0, observed_b = 0;
  for (size_t t = 0; t < truth.size(); ++t) {
    observed_a += with_elementwise.masks[t].CountObserved();
    observed_b += only_outages.masks[t].CountObserved();
  }
  EXPECT_LT(observed_a, observed_b);
}

TEST(OutageTest, SofiaImputesThroughSensorOutages) {
  // End-to-end: whole sensors disappear for stretches; SOFIA's seasonal
  // model carries them through.
  Dataset d = MakeIntelLabSensor(DatasetScale::kSmall);
  d.slices.resize(6 * d.period);
  OutageSetting outages;
  outages.outage_start_prob = 0.02;
  outages.outage_length = 8;
  CorruptedStream stream =
      CorruptWithOutages(d.slices, {10.0, 10.0, 3.0}, outages, 77);

  SofiaStream method(MakeExperimentConfig(d, stream));
  StreamEvalOptions options;
  options.max_eval_entries = 0;  // Score every entry.
  StreamRunResult res =
      RunImputationComparison({&method}, stream, d.slices, options)[0].run;
  EXPECT_LT(res.rae, 0.6);
}

}  // namespace
}  // namespace sofia
