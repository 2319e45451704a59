#include <gtest/gtest.h>

#include <memory>

#include "baselines/mast.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/smf.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/dataset_sim.hpp"
#include "eval/experiment.hpp"
#include "eval/stream_runner.hpp"

namespace sofia {
namespace {

/// End-to-end checks of the paper's headline claims on a scaled-down
/// taxi-like stream. These run the same harness the benches use, scoring
/// every entry (max_eval_entries = 0) as the figures do.

StreamEvalOptions FullVolume() {
  StreamEvalOptions options;
  options.max_eval_entries = 0;
  return options;
}

/// RAE of one method over the stream.
double Rae(StreamingMethod* method, const CorruptedStream& stream,
           const std::vector<DenseTensor>& truth) {
  return RunImputationComparison({method}, stream, truth, FullVolume())[0]
      .run.rae;
}

TEST(IntegrationTest, SofiaBeatsNonRobustStreamersUnderCorruption) {
  // A (50, 20, 4) grid point of the Fig. 3/4 experiment.
  Dataset d = MakeChicagoTaxi(DatasetScale::kSmall);
  // Shorten the stream to keep the test fast (init + ~3 seasons).
  d.slices.resize(6 * d.period);
  CorruptedStream stream = Corrupt(d.slices, {50.0, 20.0, 4.0}, 1001);

  SofiaStream sofia_method(MakeExperimentConfig(d, stream));
  OnlineSgd sgd(OnlineSgdOptions{.rank = d.rank});
  Mast mast(MastOptions{.rank = d.rank});
  std::vector<MethodRunResult> results = RunImputationComparison(
      {&sofia_method, &sgd, &mast}, stream, d.slices, FullVolume());
  const StreamRunResult& sofia_res = results[0].run;
  const StreamRunResult& sgd_res = results[1].run;
  const StreamRunResult& mast_res = results[2].run;

  // The paper's core claim (Fig. 4): lower running average error than the
  // non-robust streaming competitors under missing data + outliers.
  EXPECT_LT(sofia_res.rae, sgd_res.rae);
  EXPECT_LT(sofia_res.rae, mast_res.rae);
  // And in absolute terms the corruption is largely repaired.
  EXPECT_LT(sofia_res.rae, 0.3);
}

TEST(IntegrationTest, SofiaForecastsBeatSmfUnderOutliers) {
  // The Fig. 6 protocol in miniature: SOFIA sees missing data + outliers,
  // SMF sees fully observed data with the same outliers.
  Dataset d = MakeNetworkTraffic(DatasetScale::kSmall);
  d.slices.resize(7 * d.period);
  const size_t horizon = d.period;

  CorruptedStream sofia_stream = Corrupt(d.slices, {30.0, 20.0, 5.0}, 2001);
  CorruptedStream smf_stream = Corrupt(d.slices, {0.0, 20.0, 5.0}, 2002);

  SofiaStream sofia_method(MakeExperimentConfig(d, sofia_stream));
  const double sofia_afe = RunForecast(&sofia_method, sofia_stream, d.slices,
                                       horizon, FullVolume());

  Smf smf(SmfOptions{.rank = d.rank, .period = d.period});
  const double smf_afe =
      RunForecast(&smf, smf_stream, d.slices, horizon, FullVolume());

  EXPECT_LT(sofia_afe, smf_afe);
}

TEST(IntegrationTest, HarsherCorruptionDegradesGracefully) {
  // NRE should grow with corruption level but stay bounded (no blow-up),
  // mirroring the monotone trend across the Fig. 4 setting grid.
  Dataset d = MakeIntelLabSensor(DatasetScale::kSmall);
  d.slices.resize(6 * d.period);

  double mild_rae, harsh_rae;
  {
    CorruptedStream stream = Corrupt(d.slices, {20.0, 10.0, 2.0}, 3001);
    SofiaStream method(MakeExperimentConfig(d, stream));
    mild_rae = Rae(&method, stream, d.slices);
  }
  {
    CorruptedStream stream = Corrupt(d.slices, {70.0, 20.0, 5.0}, 3002);
    SofiaStream method(MakeExperimentConfig(d, stream));
    harsh_rae = Rae(&method, stream, d.slices);
  }
  EXPECT_LT(mild_rae, 1.0);
  EXPECT_LT(harsh_rae, 2.0);  // Bounded even at (70, 20, 5).
  EXPECT_LE(mild_rae, harsh_rae * 1.05);  // Monotone up to small noise.
}

}  // namespace
}  // namespace sofia
