// Sensor anomaly detection: SOFIA's outlier tensor O_t as a streaming
// anomaly detector.
//
// An Intel-Lab-style deployment streams (position, sensor) readings every
// tick. Besides random missingness, a burst of sensor faults injects
// extreme readings. SOFIA is not told where the faults are — we check how
// precisely the entries it routes into O_t (Eq. (21)) coincide with the
// injected faults.
//
// Usage: sensor_anomaly [--fault_rate=10] [--magnitude=5]
//                       [--num_threads=0]
//                       [--workers=0] [--simd=on|off]
//                       [--trace-out=FILE] [--metrics-out=FILE]
//                       [--stats-every=N] [--obs=on|off]
//
// --workers sizes the sharded executor SOFIA's init runs on (overrides
// --num_threads when nonzero; steps are one serial pass); --simd=off
// forces the scalar kernel instantiations. Detection counts are identical
// across both knobs.
// --trace-out/--metrics-out capture an obs trace and metric snapshots of
// the run (obs/cli.hpp). Any other flag is an error.

#include <cmath>
#include <cstdio>

#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/dataset_sim.hpp"
#include "eval/experiment.hpp"
#include "obs/cli.hpp"
#include "tensor/simd.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  Flags flags(argc, argv);
  const obs::ObsCliConfig obs_config = obs::SetupObsFromFlags(flags);
  const double fault_rate = flags.GetDouble("fault_rate", 10.0);
  const double magnitude = flags.GetDouble("magnitude", 5.0);

  Dataset lab = MakeIntelLabSensor(DatasetScale::kSmall);
  lab.slices.resize(6 * lab.period);
  // 20% missing plus the fault injections we want to detect.
  CorruptedStream stream =
      Corrupt(lab.slices, {20.0, fault_rate, magnitude}, /*seed=*/11);

  SofiaConfig config = MakeExperimentConfig(lab, stream);
  config.num_threads = static_cast<size_t>(
      flags.GetInt("num_threads", static_cast<int64_t>(config.num_threads)));
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 0));
  if (workers != 0) config.num_threads = workers;
  simd::SetEnabled(
      flags.GetString("simd", simd::Enabled() ? "on" : "off") == "on");
  if (ReportUnreadFlags(flags, argv[0]) > 0) return 2;
  const size_t window = config.InitWindow();
  std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                       stream.slices.begin() + window);
  std::vector<Mask> init_masks(stream.masks.begin(),
                               stream.masks.begin() + window);
  SofiaModel model = SofiaModel::Initialize(init_slices, init_masks, config);

  size_t true_positive = 0, false_positive = 0, false_negative = 0;
  for (size_t t = window; t < lab.slices.size(); ++t) {
    SofiaStepResult out = model.Step(stream.slices[t], stream.masks[t]);
    const Mask& injected = stream.outlier_positions[t];
    // The observed-entry view walks exactly the entries a detector can see,
    // without ever materializing the dense O_t or X̂_t slices.
    for (size_t j = 0; j < out.num_observed(); ++j) {
      const size_t k = out.observed_indices()[j];
      // Flag entries whose rejected mass clearly exceeds the entry's own
      // adaptive error scale (Eq. (22)); borderline soft-threshold residue
      // is not an alarm.
      const bool flagged =
          std::fabs(out.observed_outliers()[j]) > 3.0 * model.error_scale()[k];
      const bool faulty = injected.Get(k);
      if (flagged && faulty) ++true_positive;
      if (flagged && !faulty) ++false_positive;
      if (!flagged && faulty) ++false_negative;
    }
  }

  const double precision =
      true_positive + false_positive > 0
          ? static_cast<double>(true_positive) /
                static_cast<double>(true_positive + false_positive)
          : 0.0;
  const double recall =
      true_positive + false_negative > 0
          ? static_cast<double>(true_positive) /
                static_cast<double>(true_positive + false_negative)
          : 0.0;

  std::printf("Streaming fault detection on %zu x %zu sensor slices "
              "(faults: %.0f%% at %.0fx max)\n\n",
              lab.slices[0].dim(0), lab.slices[0].dim(1), fault_rate,
              magnitude);
  Table table({"metric", "value"});
  table.AddRow({"flagged & faulty (TP)", std::to_string(true_positive)});
  table.AddRow({"flagged & clean (FP)", std::to_string(false_positive)});
  table.AddRow({"missed faults (FN)", std::to_string(false_negative)});
  table.AddRow({"precision", Table::Num(precision, 3)});
  table.AddRow({"recall", Table::Num(recall, 3)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("SOFIA detects faults as a side effect of robust streaming "
              "factorization — no labels, thresholds tuned only through "
              "the error-scale tensor (Eq. (22)).\n");
  obs::FinishObs(obs_config);
  return 0;
}
