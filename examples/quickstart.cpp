// Quickstart: factorize a corrupted seasonal tensor stream with SOFIA,
// impute its missing entries, and forecast the next season.
//
// The stream is a toy "sensor grid": 8 x 6 readings per tick, daily period
// of 12 ticks, with 30% of entries missing and 10% hit by outliers.
//
// Build & run:  ./examples/quickstart
//               [--workers=0] [--simd=on|off]
//               [--trace-out=FILE] [--metrics-out=FILE]
//               [--stats-every=N] [--obs=on|off]
//
// The knobs mirror the other examples: --workers sizes SOFIA's internal
// kernel worker pool, --simd=off forces the scalar kernels. The imputation
// numbers are identical across both. --trace-out/--metrics-out record
// an observability trace / metric snapshots of the run (obs/cli.hpp).
// Any other flag is an error.

#include <cmath>
#include <cstdio>

#include "core/sofia.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "obs/cli.hpp"
#include "tensor/simd.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  Flags flags(argc, argv);
  const obs::ObsCliConfig obs_config = obs::SetupObsFromFlags(flags);
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 0));
  simd::SetEnabled(
      flags.GetString("simd", simd::Enabled() ? "on" : "off") == "on");
  if (ReportUnreadFlags(flags, argv[0]) > 0) return 2;

  // 1. A ground-truth seasonal low-rank stream (what the world would look
  //    like if sensors never failed).
  const size_t kPeriod = 12;
  const size_t kSteps = 8 * kPeriod;
  SyntheticTensor world = MakeSinusoidTensor(8, 6, kSteps, /*rank=*/3,
                                             kPeriod, /*seed=*/42);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < kSteps; ++t) {
    truth.push_back(world.tensor.SliceLastMode(t));
  }

  // 2. What we actually receive: 30% missing, 10% outliers at 3x max.
  CorruptedStream stream = Corrupt(truth, {30.0, 10.0, 3.0}, /*seed=*/43);

  // 3. Configure SOFIA. The smoothness weights work against the temporal
  //    normal-equation curvature, and λ3 should sit between the clean-data
  //    and outlier scales (see DESIGN.md §5).
  SofiaConfig config;
  config.rank = 3;
  config.period = kPeriod;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  // Runtime knob — shape only, the numbers below don't move.
  config.num_threads = workers;

  // 4. Initialize on the first 3 seasons (Algorithm 1 + HW fitting)...
  const size_t window = config.InitWindow();
  std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                       stream.slices.begin() + window);
  std::vector<Mask> init_masks(stream.masks.begin(),
                               stream.masks.begin() + window);
  SofiaModel model = SofiaModel::Initialize(init_slices, init_masks, config);

  // 5. ...then stream the rest (Algorithm 3), imputing as we go.
  double nre_sum = 0.0;
  size_t outliers_caught = 0;
  for (size_t t = window; t < kSteps; ++t) {
    SofiaStepResult out = model.Step(stream.slices[t], stream.masks[t]);
    nre_sum += NormalizedResidualError(out.imputed(), truth[t]);
    // Outliers live only at observed entries — count them from the sparse
    // view instead of materializing the dense O_t tensor.
    for (double o : out.observed_outliers()) {
      if (std::fabs(o) > 1e-9) ++outliers_caught;
    }
  }
  std::printf("streamed %zu subtensors; mean imputation NRE = %.4f\n",
              kSteps - window, nre_sum / static_cast<double>(kSteps - window));
  std::printf("outlier entries flagged while streaming: %zu\n",
              outliers_caught);

  // 6. Forecast one full future season (Eq. (28)).
  std::printf("next-season forecast of entry (0,0):\n ");
  for (size_t h = 1; h <= kPeriod; ++h) {
    std::printf(" %6.2f", model.Forecast(h)[0]);
  }
  std::printf("\ndone — see examples/traffic_forecast.cpp for forecast "
              "evaluation against held-out data.\n");
  obs::FinishObs(obs_config);
  return 0;
}
