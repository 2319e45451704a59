// Taxi-trip imputation: the workload from the paper's introduction.
//
// A city collects hourly zone-to-zone trip counts as a (source, destination,
// hour) tensor stream. Entries go missing (collection outages) and some are
// corrupted (system errors). SOFIA recovers the missing counts in real time;
// we compare it against a non-robust streaming factorization (OnlineSGD) to
// show what the outlier/seasonality machinery buys.
//
// The comparison runs on the lazy eval pipeline: both methods return
// StepResult handles and are scored at observed + held-out entries through
// shared CooList gathers — no per-step dense reconstruction anywhere.
//
// Usage: taxi_imputation [--missing=50] [--outliers=20] [--magnitude=4]
//                        [--num_threads=0]
//                        [--eval_cap=1024]
//                        [--simd=on|off]
//                        [--scenario=clean|bursty-outage|regime-change|
//                                    structured-outliers|garbage-slices|
//                                    combined-stress]
//                        [--guard=off|skip|rollback|reinit]
//                        [--workers=0]
//                        [--trace-out=FILE] [--metrics-out=FILE]
//                        [--stats-every=N] [--obs=on|off]
//
// --workers sets the method lanes of the streaming runtime behind the
// comparison (eval/stream_pipeline.hpp): the two methods step side by side
// on min(workers, 2) threads. It changes wall-clock shape only — scores are
// bitwise identical at every setting.
//
// --scenario replaces the plain element-wise corruption with one of the
// adversarial stream scenarios from data/scenarios.hpp; --guard wraps both
// methods in a StreamGuard with the given degradation policy (try
// --scenario=garbage-slices with and without --guard=rollback). Any other
// flag is an error.

#include <cstdio>
#include <memory>

#include "baselines/online_sgd.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/dataset_sim.hpp"
#include "data/scenarios.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "eval/step_result.hpp"
#include "eval/stream_guard.hpp"
#include "eval/stream_runner.hpp"
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
  CorruptionSetting setting;
  setting.missing_percent = flags.GetDouble("missing", 50.0);
  setting.outlier_percent = flags.GetDouble("outliers", 20.0);
  setting.magnitude = flags.GetDouble("magnitude", 4.0);
  // --scenario= swaps the plain element corruption for an adversarial
  // stream (outages, regime change, garbage slices, ...); the scoring
  // truth comes from the scenario, which may transform it mid-stream.
  const std::string scenario_name = flags.GetString("scenario", "");
  // Kernel knobs, shared by SOFIA and the baseline: both run their
  // per-step work on the observed-entry kernels. --simd=off forces the
  // scalar kernel instantiations (tensor/simd.hpp).
  const size_t num_threads =
      static_cast<size_t>(flags.GetInt("num_threads", 0));
  simd::SetEnabled(
      flags.GetString("simd", simd::Enabled() ? "on" : "off") == "on");
  // --guard= wraps both methods in the fault-tolerance layer
  // (eval/stream_guard.hpp): input validation, health watch, and the named
  // degradation policy on trip.
  const std::string guard_name = flags.GetString("guard", "off");
  // Lazy comparison protocol: one shared pattern build per distinct mask
  // per step, scores from gathers, the methods stepped side by side.
  StreamEvalOptions options;
  options.max_eval_entries =
      static_cast<size_t>(flags.GetInt("eval_cap", 1024));
  options.num_threads = num_threads;
  options.workers = static_cast<size_t>(flags.GetInt("workers", 0));
  if (ReportUnreadFlags(flags, argv[0]) > 0) return 2;

  Dataset taxi = MakeChicagoTaxi(DatasetScale::kSmall);
  taxi.slices.resize(6 * taxi.period);

  CorruptedStream stream;
  std::vector<DenseTensor> truth = taxi.slices;
  if (scenario_name.empty()) {
    stream = Corrupt(taxi.slices, setting, /*seed=*/7);
  } else {
    ScenarioOptions scenario_options;
    scenario_options.element = setting;
    // Faults go into the streamed phase: init is offline, where the guard
    // fail-fasts on bad input by design (a data bug, not a stream fault).
    scenario_options.garbage_offset = 3 * taxi.period + 4;
    ScenarioStream scenario = MakeScenario(ParseScenario(scenario_name),
                                           taxi.slices, scenario_options,
                                           /*seed=*/7);
    stream = std::move(scenario.stream);
    truth = std::move(scenario.truth);
  }

  std::printf("Chicago-style taxi stream: %s per slice, m=%zu, %zu steps, "
              "setting %s%s%s\n\n",
              taxi.slices[0].shape().ToString().c_str(), taxi.period,
              taxi.slices.size(), setting.ToString().c_str(),
              scenario_name.empty() ? "" : ", scenario ",
              scenario_name.c_str());

  SofiaConfig config = MakeExperimentConfig(taxi, stream);
  config.num_threads = num_threads;
  auto sofia_owned = std::make_unique<SofiaStream>(config);
  SofiaStream* sofia_method = sofia_owned.get();  // For the final model peek.

  OnlineSgdOptions sgd_options;
  sgd_options.rank = taxi.rank;

  std::unique_ptr<StreamingMethod> sofia_runner = std::move(sofia_owned);
  std::unique_ptr<StreamingMethod> sgd_runner =
      std::make_unique<OnlineSgd>(sgd_options);
  if (guard_name != "off") {
    StreamGuardOptions guard_options;
    guard_options.policy = ParseGuardPolicy(guard_name);
    sofia_runner = std::make_unique<StreamGuard>(std::move(sofia_runner),
                                                 guard_options);
    sgd_runner = std::make_unique<StreamGuard>(std::move(sgd_runner),
                                               guard_options);
  }

  StepResult::ResetMaterializations();
  std::vector<StreamingMethod*> methods = {sofia_runner.get(),
                                           sgd_runner.get()};
  std::vector<MethodRunResult> results =
      RunImputationComparison(methods, stream, truth, options);

  Table table({"method", "RAE", "RAE held-out", "RAE post-init",
               "ART (s/subtensor)"});
  for (const MethodRunResult& r : results) {
    table.AddRow({r.name, Table::Num(r.run.rae),
                  Table::Num(Mean(r.run.missing_nre)),
                  Table::Num(r.run.rae_post_init),
                  Table::Num(r.run.art_seconds)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("dense reconstructions during the comparison: %zu\n\n",
              StepResult::materializations());
  for (const MethodRunResult& r : results) {
    if (!r.run.guarded) continue;
    std::printf("%s: %zu input trips, %zu health trips, %zu rollbacks, "
                "%zu reinits, %zu recoveries\n",
                r.name.c_str(), r.run.guard.input_trips,
                r.run.guard.health_trips, r.run.guard.rollbacks,
                r.run.guard.reinits, r.run.guard.recoveries);
  }
  if (guard_name != "off") std::printf("\n");

  // Show a few concrete recoveries: entries that were missing at the last
  // step, with SOFIA's imputed value vs the ground truth the model never
  // saw — spot reads through the lazy handle of the final model state.
  const size_t last = truth.size() - 1;
  StepResult final_state = StepResult::Kruskal(
      sofia_method->model().nontemporal_factors(),
      sofia_method->model().last_temporal_row());
  std::printf("sample imputations at t=%zu (entries the model never saw):\n",
              last);
  size_t shown = 0;
  const Shape& slice_shape = truth[last].shape();
  std::vector<size_t> idx(slice_shape.order(), 0);
  for (size_t k = 0; k < truth[last].NumElements() && shown < 5; ++k) {
    if (!stream.masks[last].Get(k)) {
      std::printf("  entry %3zu: truth %8.2f   imputed %8.2f\n", k,
                  truth[last][k], final_state.at(idx));
      ++shown;
    }
    slice_shape.Next(&idx);
  }
  const double sofia_rae = results[0].run.rae;
  const double sgd_rae = results[1].run.rae;
  std::printf("\nSOFIA recovers the stream %0.1fx more accurately than the "
              "non-robust baseline.\n",
              sofia_rae > 0 ? sgd_rae / sofia_rae : 0.0);
  obs::FinishObs(obs_config);
  return 0;
}
