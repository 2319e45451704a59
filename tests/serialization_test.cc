#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/sofia_model.hpp"
#include "data/corruption.hpp"
#include "util/state_io.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"

namespace sofia {
namespace {

struct Fixture {
  std::vector<DenseTensor> truth;
  CorruptedStream stream;
  SofiaConfig config;
  SofiaModel model;
};

Fixture MakeFixture(uint64_t seed, size_t num_threads = 0) {
  SofiaConfig config;
  config.num_threads = num_threads;
  config.rank = 3;
  config.period = 6;
  config.init_seasons = 3;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.seed = seed;
  config.max_init_iterations = 8;
  SyntheticTensor syn = MakeSinusoidTensor(7, 5, 60, 3, 6, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < 60; ++t) truth.push_back(syn.tensor.SliceLastMode(t));
  CorruptedStream stream = Corrupt(truth, {20.0, 10.0, 3.0}, seed + 1);
  const size_t w = config.InitWindow();
  std::vector<DenseTensor> is(stream.slices.begin(),
                              stream.slices.begin() + w);
  std::vector<Mask> im(stream.masks.begin(), stream.masks.begin() + w);
  SofiaModel model = SofiaModel::Initialize(is, im, config);
  return {std::move(truth), std::move(stream), config, std::move(model)};
}

TEST(SerializationTest, RoundtripPreservesForecasts) {
  Fixture f = MakeFixture(61);
  // Advance a few steps so the state is no longer the fresh init.
  for (size_t t = f.config.InitWindow(); t < 30; ++t) {
    f.model.Step(f.stream.slices[t], f.stream.masks[t]);
  }
  std::stringstream buffer;
  f.model.Serialize(buffer);
  SofiaModel restored = SofiaModel::Deserialize(buffer);
  for (size_t h = 1; h <= 2 * f.config.period; ++h) {
    DenseTensor a = f.model.Forecast(h);
    DenseTensor b = restored.Forecast(h);
    DenseTensor diff = a - b;
    EXPECT_DOUBLE_EQ(diff.FrobeniusNorm(), 0.0) << "h=" << h;
  }
}

TEST(SerializationTest, RestoredModelContinuesStreamIdentically) {
  Fixture f = MakeFixture(63);
  const size_t w = f.config.InitWindow();
  for (size_t t = w; t < 28; ++t) {
    f.model.Step(f.stream.slices[t], f.stream.masks[t]);
  }
  std::stringstream buffer;
  f.model.Serialize(buffer);
  SofiaModel restored = SofiaModel::Deserialize(buffer);

  // Bit-for-bit identical stepping after restore.
  for (size_t t = 28; t < 40; ++t) {
    SofiaStepResult a = f.model.Step(f.stream.slices[t], f.stream.masks[t]);
    SofiaStepResult b = restored.Step(f.stream.slices[t], f.stream.masks[t]);
    DenseTensor diff = a.imputed() - b.imputed();
    EXPECT_DOUBLE_EQ(diff.FrobeniusNorm(), 0.0) << "t=" << t;
    DenseTensor odiff = a.outliers() - b.outliers();
    EXPECT_DOUBLE_EQ(odiff.FrobeniusNorm(), 0.0) << "t=" << t;
  }
}

TEST(SerializationTest, RoundtripAfterRingWraparound) {
  // Step past a full period so the seasonal ring (season_pos_), the
  // temporal-row ring (row_pos_/row_history_), and the error-scale tensor
  // all hold genuinely streamed state — freshly-initialized models leave
  // those at their seed values.
  Fixture f = MakeFixture(67);
  const size_t w = f.config.InitWindow();
  const size_t m = f.config.period;
  for (size_t t = w; t < w + m + 3; ++t) {
    f.model.Step(f.stream.slices[t], f.stream.masks[t]);
  }
  std::stringstream buffer;
  f.model.Serialize(buffer);
  SofiaModel restored = SofiaModel::Deserialize(buffer);

  // season_pos_ alignment: the next seasonal component must be the same slot.
  EXPECT_EQ(restored.next_season(), f.model.next_season());
  EXPECT_EQ(restored.level(), f.model.level());
  EXPECT_EQ(restored.trend(), f.model.trend());
  EXPECT_EQ(restored.last_temporal_row(), f.model.last_temporal_row());
  // sigma_ round-trips exactly (max_digits10 text encoding).
  DenseTensor sdiff = restored.error_scale() - f.model.error_scale();
  EXPECT_DOUBLE_EQ(sdiff.FrobeniusNorm(), 0.0);

  // row_history_/row_pos_ feed the λ2 seasonal coupling of Eq. (25): over
  // the next full period every ring slot is consumed, so bitwise-identical
  // stepping proves the whole ring (and its rotation) round-tripped.
  for (size_t t = w + m + 3; t < w + 2 * m + 4; ++t) {
    SofiaStepResult a = f.model.Step(f.stream.slices[t], f.stream.masks[t]);
    SofiaStepResult b = restored.Step(f.stream.slices[t], f.stream.masks[t]);
    DenseTensor idiff = a.imputed() - b.imputed();
    EXPECT_DOUBLE_EQ(idiff.FrobeniusNorm(), 0.0) << "t=" << t;
    DenseTensor fdiff = a.forecast() - b.forecast();
    EXPECT_DOUBLE_EQ(fdiff.FrobeniusNorm(), 0.0) << "t=" << t;
    EXPECT_EQ(a.observed_outliers(), b.observed_outliers()) << "t=" << t;
    EXPECT_EQ(restored.next_season(), f.model.next_season()) << "t=" << t;
    EXPECT_EQ(restored.last_temporal_row(), f.model.last_temporal_row())
        << "t=" << t;
  }
}

TEST(SerializationTest, PreservesConfigAndHwState) {
  Fixture f = MakeFixture(65);
  std::stringstream buffer;
  f.model.Serialize(buffer);
  SofiaModel restored = SofiaModel::Deserialize(buffer);
  EXPECT_EQ(restored.config().rank, f.config.rank);
  EXPECT_EQ(restored.config().period, f.config.period);
  EXPECT_EQ(restored.level(), f.model.level());
  EXPECT_EQ(restored.trend(), f.model.trend());
  EXPECT_EQ(restored.last_temporal_row(), f.model.last_temporal_row());
  for (size_t r = 0; r < f.config.rank; ++r) {
    EXPECT_DOUBLE_EQ(restored.hw_params()[r].alpha,
                     f.model.hw_params()[r].alpha);
  }
}

TEST(SerializationTest, V2CheckpointRestoresAndStepsLikeV3) {
  // v2 added a config line with two kernel-path knobs (the dense-scan
  // switch and the mask-reuse switch); v3 dropped it with the dense path.
  // A v2 checkpoint with both knobs off must restore into exactly the v3
  // state and step bit-for-bit like the v3 round trip. num_threads (here
  // the 3 workers init ran on) is runtime-only in both: results are
  // thread-count invariant and the worker count belongs to the restoring
  // machine.
  Fixture f = MakeFixture(69, /*num_threads=*/3);
  EXPECT_EQ(f.model.config().num_threads, 3u);
  const size_t w = f.config.InitWindow();
  for (size_t t = w; t < w + 5; ++t) {
    f.model.Step(f.stream.slices[t], f.stream.masks[t]);
  }
  std::stringstream v3_buffer;
  f.model.Serialize(v3_buffer);
  const std::string v3 = v3_buffer.str();
  const std::string header = "sofia-model v3\n";
  ASSERT_EQ(v3.compare(0, header.size(), header), 0);
  const size_t config_end = v3.find('\n', header.size()) + 1;
  const std::string v2 = "sofia-model v2\n" +
                         v3.substr(header.size(), config_end - header.size()) +
                         "0 0\n" + v3.substr(config_end);

  std::istringstream v3_in(v3);
  SofiaModel from_v3 = SofiaModel::Deserialize(v3_in);
  std::istringstream v2_in(v2);
  SofiaModel from_v2 = SofiaModel::Deserialize(v2_in);
  EXPECT_EQ(from_v2.config().num_threads, 0u);
  EXPECT_EQ(from_v3.config().num_threads, 0u);
  std::stringstream again;
  from_v2.Serialize(again);
  EXPECT_EQ(again.str(), v3);

  for (size_t t = w + 5; t < w + 5 + 2 * f.config.period; ++t) {
    SofiaStepResult a = from_v3.Step(f.stream.slices[t], f.stream.masks[t]);
    SofiaStepResult b = from_v2.Step(f.stream.slices[t], f.stream.masks[t]);
    EXPECT_EQ(a.temporal_row(), b.temporal_row()) << "t=" << t;
    EXPECT_EQ(a.observed_forecast(), b.observed_forecast()) << "t=" << t;
    EXPECT_EQ(a.observed_outliers(), b.observed_outliers()) << "t=" << t;
    DenseTensor idiff = a.imputed() - b.imputed();
    EXPECT_EQ(idiff.MaxAbs(), 0.0) << "t=" << t;
  }
  EXPECT_EQ(from_v2.level(), from_v3.level());
  EXPECT_EQ(from_v2.trend(), from_v3.trend());
}

TEST(SerializationTest, RejectsGarbageInput) {
  // Garbage bytes throw state_io::StateError (the durability layer's
  // snapshot fallback relies on this) — never abort, never a partial model.
  std::stringstream buffer("not a checkpoint at all");
  EXPECT_THROW(SofiaModel::Deserialize(buffer), state_io::StateError);
}

}  // namespace
}  // namespace sofia
