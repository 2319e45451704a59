// Network traffic forecasting: predict next-day router-to-router volumes
// from a corrupted history, and compare SOFIA's Holt-Winters-on-factors
// forecasts against the seasonal matrix factorization baseline (SMF).
//
// SOFIA trains on a stream with missing data AND outliers; SMF gets the
// easier fully observed stream (it cannot handle missing entries) with the
// same outliers. The per-horizon table shows the forecast quality across
// one full future season.
//
// Usage: traffic_forecast [--missing=30] [--seed=3]
//                         [--scenario=clean|bursty-outage|regime-change|
//                                     structured-outliers|garbage-slices|
//                                     combined-stress]
//                         [--guard=off|skip|rollback|reinit]
//                         [--num_threads=0] [--simd=on|off]
//                         [--workers=0]
//                         [--trace-out=FILE] [--metrics-out=FILE]
//                         [--stats-every=N] [--obs=on|off]
//
// --scenario replaces SOFIA's i.i.d. training corruption with one of the
// structured failure modes of data/scenarios.hpp (sensor outage bursts,
// a mid-stream seasonal regime change, mode-aligned outlier bursts,
// garbage payloads, or all at once); forecasts are then scored against the
// scenario's own — possibly regime-transformed — truth. --guard wraps
// SOFIA's training in the StreamGuard fault-tolerance layer, which is what
// makes the garbage-slice scenarios survivable at all.
//
// --workers sizes SOFIA's internal sharded executor for the training
// steps (util/shard_executor.hpp — each worker keeps a stable range of the
// pattern's records across the whole prefix); it overrides --num_threads
// for the SOFIA model when nonzero. --simd=off forces the scalar kernel
// instantiations (tensor/simd.hpp). Any other flag is an error.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/smf.hpp"
#include "core/sofia_stream.hpp"
#include "eval/step_result.hpp"
#include "eval/stream_guard.hpp"
#include "data/corruption.hpp"
#include "data/dataset_sim.hpp"
#include "data/scenarios.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "obs/cli.hpp"
#include "tensor/simd.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  Flags flags(argc, argv);
  // Observability: --trace-out= captures a Chrome-trace of the run,
  // --metrics-out= appends registry snapshots as JSON lines (obs/cli.hpp).
  const obs::ObsCliConfig obs_config = obs::SetupObsFromFlags(flags);
  const double missing = flags.GetDouble("missing", 30.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 3));
  const std::string scenario_name = flags.GetString("scenario", "clean");
  const std::string guard_name = flags.GetString("guard", "off");
  const size_t num_threads =
      static_cast<size_t>(flags.GetInt("num_threads", 0));
  simd::SetEnabled(
      flags.GetString("simd", simd::Enabled() ? "on" : "off") == "on");
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 0));
  if (ReportUnreadFlags(flags, argv[0]) > 0) return 2;

  Dataset traffic = MakeNetworkTraffic(DatasetScale::kSmall);
  traffic.slices.resize(7 * traffic.period);
  const size_t horizon = traffic.period;  // One full future season.
  const size_t train = traffic.slices.size() - horizon;

  // SOFIA's training stream: the element-wise protocol, or a structured
  // failure scenario layered on top of it.
  const ScenarioKind kind = ParseScenario(scenario_name);
  ScenarioOptions scenario_options;
  scenario_options.element = {missing, 20.0, 5.0};
  // Garbage payloads must fall past the init window (3m slices go straight
  // into Initialize, which the guard's per-step validation cannot cover).
  scenario_options.garbage_offset = std::max(
      scenario_options.garbage_offset, 3 * traffic.period + 1);
  CorruptedStream sofia_stream;
  std::vector<DenseTensor> score_truth = traffic.slices;
  {
    ScenarioStream scenario =
        MakeScenario(kind, traffic.slices, scenario_options, seed);
    sofia_stream = std::move(scenario.stream);
    score_truth = std::move(scenario.truth);
    if (!scenario.fault_steps.empty()) {
      std::printf("scenario '%s': %zu garbage slices injected\n",
                  scenario.name.c_str(), scenario.fault_steps.size());
    }
    if (scenario.regime_step != 0) {
      std::printf("scenario '%s': regime change at step %zu\n",
                  scenario.name.c_str(), scenario.regime_step);
    }
  }
  CorruptedStream smf_stream =
      Corrupt(traffic.slices, {0.0, 20.0, 5.0}, seed + 1);

  // Train SOFIA on the corrupted prefix, optionally behind StreamGuard.
  SofiaConfig config = MakeExperimentConfig(traffic, sofia_stream);
  config.num_threads = workers != 0 ? workers : num_threads;
  const size_t window = config.InitWindow();
  std::unique_ptr<StreamingMethod> sofia_method =
      std::make_unique<SofiaStream>(config);
  const StreamGuard* guard_view = nullptr;
  if (guard_name != "off") {
    StreamGuardOptions guard_options;
    guard_options.policy = ParseGuardPolicy(guard_name);
    auto guarded = std::make_unique<StreamGuard>(std::move(sofia_method),
                                                 guard_options);
    guard_view = guarded.get();
    sofia_method = std::move(guarded);
  }
  std::vector<DenseTensor> init_slices(sofia_stream.slices.begin(),
                                       sofia_stream.slices.begin() + window);
  std::vector<Mask> init_masks(sofia_stream.masks.begin(),
                               sofia_stream.masks.begin() + window);
  sofia_method->Initialize(init_slices, init_masks);
  for (size_t t = window; t < train; ++t) {
    // Forecast-only pass: Observe() skips even the lazy estimate handle.
    sofia_method->Observe(sofia_stream.slices[t], sofia_stream.masks[t]);
  }
  if (guard_view != nullptr) {
    const GuardTelemetry& telemetry = guard_view->telemetry();
    std::printf("guard: %zu input trips, %zu health trips, %zu recoveries "
                "over %zu training steps\n",
                telemetry.input_trips, telemetry.health_trips,
                telemetry.recoveries, telemetry.steps);
  }

  // Train SMF on its fully observed prefix.
  SmfOptions smf_options;
  smf_options.rank = traffic.rank;
  smf_options.period = traffic.period;
  Smf smf(smf_options);
  for (size_t t = 0; t < train; ++t) {
    smf.Observe(smf_stream.slices[t], smf_stream.masks[t]);
  }

  std::printf("Forecasting %zu steps of %s traffic (SOFIA trained on the "
              "'%s' scenario with %.0f%% missing; SMF fully observed + "
              "outliers)\n\n",
              horizon, traffic.slices[0].shape().ToString().c_str(),
              scenario_name.c_str(), missing);
  // Score every horizon at one shared sample of held-out entries, read
  // through lazy forecast handles — the Fig. 6 protocol without a single
  // dense forecast tensor. Truth comes from the scenario (which transforms
  // it under a regime change), so the target is what the stream's future
  // actually looks like.
  Mask sample(traffic.slices[0].shape(), false);
  for (size_t k = 0; k < sample.shape().NumElements(); k += 3) {
    sample.Set(k, true);  // Every third entry.
  }
  CooList held_out = CooList::Build(sample, /*with_mode_buckets=*/false);

  Table table({"h", "SOFIA NRE", "SMF NRE"});
  double sofia_sum = 0.0, smf_sum = 0.0;
  std::vector<double> est, ref;
  for (size_t h = 1; h <= horizon; ++h) {
    const DenseTensor& truth = score_truth[train + h - 1];
    held_out.GatherInto(truth, &ref);
    sofia_method->ForecastLazy(h).GatherAtInto(held_out, &est);
    const double sofia_nre = GatheredNre(AccumulateGatheredError(est, ref));
    smf.ForecastLazy(h).GatherAtInto(held_out, &est);
    const double smf_nre = GatheredNre(AccumulateGatheredError(est, ref));
    sofia_sum += sofia_nre;
    smf_sum += smf_nre;
    table.AddRow({std::to_string(h), Table::Num(sofia_nre),
                  Table::Num(smf_nre)});
  }
  table.AddRow({"AFE", Table::Num(sofia_sum / horizon),
                Table::Num(smf_sum / horizon)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("SOFIA's outlier rejection keeps the seasonal model clean, so "
              "its forecasts hold up even with %.0f%% of the training data "
              "missing.\n", missing);
  obs::FinishObs(obs_config);
  return 0;
}
