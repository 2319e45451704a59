// End-to-end cost of the imputation comparison protocol on the lazy
// StepResult pipeline vs its dense predecessor: all nine streaming methods
// (SOFIA + eight baselines) are driven through the comparison runner on a
// fig-3-shaped synthetic stream (tall slices, low observed density) at 1% /
// 5% / 10% observed (fixed Bernoulli mask across steps — the
// fixed-sensor-outage case, so every mask-reuse cache holds after the first
// step). Two paths are timed:
//  - lazy: RunImputationComparison driving StepLazy, scoring via gathers;
//  - legacy dense: the pre-lazy pipeline verbatim — materialized Step
//    estimates plus full-volume NormalizedResidualError per method per
//    step (the lazy protocol's score with --eval_cap=0 matches it to
//    <= 1e-12).
// The speedup (lazy over legacy) is the end-to-end cost of the O(volume R)
// dense floor the lazy pipeline removes.
//
// Emits its summary JSON directly (same schema as BENCH_baselines.json):
//
//   bench_pipeline [--out=BENCH_pipeline.json] [--rows=448] [--cols=448]
//                  [--steps=96] [--reps=3] [--eval_cap=512]
//
// The driving CMake target is gated behind SOFIA_BUILD_BENCH like every
// other bench binary.

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/brst.hpp"
#include "baselines/cp_wopt_stream.hpp"
#include "baselines/cphw.hpp"
#include "baselines/mast.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "baselines/smf.hpp"
#include "core/sofia_stream.hpp"
#include "baselines/observed_sweep.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "eval/step_result.hpp"
#include "eval/stream_runner.hpp"
#include "util/bench_json.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace sofia {
namespace {

constexpr size_t kRank = 4;
constexpr size_t kPeriod = 4;

Mask BernoulliMask(const Shape& shape, double density, Rng& rng) {
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

/// Fresh instances of all nine comparison methods (small, bench-friendly
/// configs; SOFIA's init loop is capped so the measured wall-clock is the
/// steady-state streaming pipeline, which both paths share anyway).
std::vector<std::unique_ptr<StreamingMethod>> MakeAllMethods() {
  std::vector<std::unique_ptr<StreamingMethod>> methods;
  SofiaConfig config;
  config.rank = kRank;
  config.period = kPeriod;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.num_threads = 1;
  config.max_init_iterations = 1;
  config.max_als_iterations = 2;
  config.tolerance = 0.5;  // The bench measures pipeline cost, not fit.
  methods.push_back(std::make_unique<SofiaStream>(config));
  methods.push_back(
      std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = kRank}));
  methods.push_back(std::make_unique<Olstec>(OlstecOptions{.rank = kRank}));
  methods.push_back(std::make_unique<Mast>(
      MastOptions{.rank = kRank, .inner_iterations = 1}));
  methods.push_back(std::make_unique<OrMstc>(OrMstcOptions{
      .rank = kRank, .outlier_lambda = 2.0, .inner_iterations = 1}));
  methods.push_back(std::make_unique<BrstLite>(BrstOptions{.rank = kRank}));
  methods.push_back(
      std::make_unique<Smf>(SmfOptions{.rank = kRank, .period = kPeriod}));
  methods.push_back(
      std::make_unique<Cphw>(CphwOptions{.rank = kRank, .period = kPeriod}));
  methods.push_back(std::make_unique<CpWoptStream>(
      CpWoptStreamOptions{.rank = kRank, .iterations_per_step = 1}));
  return methods;
}

/// The pre-lazy comparison protocol, verbatim: methods with an init
/// window are initialized on their window prefix and its completions are
/// scored with the full-volume NormalizedResidualError; every due method's
/// Step materializes its dense estimate and every step is scored with the
/// full-volume NRE — the two O(volume) terms per method per step that the
/// lazy pipeline removes. Workload-identical to RunImputationComparison
/// (same slices consumed per method, same shared pattern builds). The lazy
/// protocol's score with max_eval_entries = 0 matches this one to <= 1e-12
/// (tests/step_result_test.cc).
void LegacyDenseComparison(const std::vector<StreamingMethod*>& methods,
                           const CorruptedStream& stream,
                           const std::vector<DenseTensor>& truth) {
  std::vector<size_t> windows(methods.size(), 0);
  std::vector<double> sink;
  for (size_t m = 0; m < methods.size(); ++m) {
    windows[m] = methods[m]->init_window();
    if (windows[m] == 0) continue;
    std::vector<DenseTensor> init_slices(
        stream.slices.begin(), stream.slices.begin() + windows[m]);
    std::vector<Mask> init_masks(stream.masks.begin(),
                                 stream.masks.begin() + windows[m]);
    std::vector<DenseTensor> completed =
        methods[m]->Initialize(init_slices, init_masks);
    for (size_t t = 0; t < windows[m]; ++t) {
      sink.push_back(NormalizedResidualError(completed[t], truth[t]));
    }
  }
  std::shared_ptr<const CooList> pattern;
  for (size_t t = 0; t < truth.size(); ++t) {
    const Mask& omega = stream.masks[t];
    if (pattern == nullptr || !pattern->SameObservedSet(omega)) {
      pattern = MakeSharedPattern(omega);
    }
    for (size_t m = 0; m < methods.size(); ++m) {
      if (t < windows[m]) continue;
      DenseTensor imputed =
          methods[m]->Step(stream.slices[t], omega, pattern);
      sink.push_back(NormalizedResidualError(imputed, truth[t]));
    }
  }
}

/// Wall seconds of one full comparison run over the stream with fresh
/// method instances; best (minimum) of `reps` runs. `options == nullptr`
/// selects the legacy dense protocol.
double TimeProtocol(const CorruptedStream& stream,
                    const std::vector<DenseTensor>& truth,
                    const StreamEvalOptions* options, size_t reps) {
  double best = 0.0;
  for (size_t rep = 0; rep < reps; ++rep) {
    std::vector<std::unique_ptr<StreamingMethod>> owned = MakeAllMethods();
    std::vector<StreamingMethod*> methods;
    for (auto& m : owned) methods.push_back(m.get());
    Stopwatch timer;
    if (options == nullptr) {
      LegacyDenseComparison(methods, stream, truth);
    } else {
      RunImputationComparison(methods, stream, truth, *options);
    }
    const double seconds = timer.ElapsedSeconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) {
  using namespace sofia;
  Flags flags(argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_pipeline.json");
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 448));
  const size_t cols = static_cast<size_t>(flags.GetInt("cols", 448));
  const size_t steps = static_cast<size_t>(flags.GetInt("steps", 96));
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 3));
  const size_t eval_cap = static_cast<size_t>(flags.GetInt("eval_cap", 512));

  std::vector<DenseTensor> truth;
  {
    SyntheticTensor syn =
        MakeSinusoidTensor(rows, cols, steps, kRank, kPeriod, /*seed=*/101);
    for (size_t t = 0; t < steps; ++t) {
      truth.push_back(syn.tensor.SliceLastMode(t));
    }
  }

  const std::vector<int> densities = {1, 5, 10};
  std::map<std::string, double> results;   // "pipeline_lazy/10_s" -> s.
  std::map<std::string, double> speedups;  // "density_10pct" -> x.

  for (int density : densities) {
    // One corrupted stream per density: Bernoulli-masked truth (no outlier
    // injection — the bench measures pipeline cost, not robustness), fixed
    // mask across steps so the mask-reuse caches hold after step one.
    Rng mask_rng(7);
    Mask omega = BernoulliMask(truth[0].shape(),
                               static_cast<double>(density) / 100.0,
                               mask_rng);
    CorruptedStream stream;
    stream.slices = truth;
    stream.masks.assign(steps, omega);

    // One lane, like the legacy loop: the ratio is the dense floor alone,
    // not the method lanes.
    StreamEvalOptions lazy_options;
    lazy_options.max_eval_entries = eval_cap;
    lazy_options.workers = 1;

    StepResult::ResetMaterializations();
    const double lazy_s = TimeProtocol(stream, truth, &lazy_options, reps);
    const size_t lazy_mat = StepResult::materializations();
    // Pre-lazy pipeline: dense estimates + full-volume NRE.
    const double legacy_s = TimeProtocol(stream, truth, nullptr, reps);

    const std::string arg = std::to_string(density);
    results["pipeline_lazy/" + arg + "_s"] = lazy_s;
    results["pipeline_legacy_dense/" + arg + "_s"] = legacy_s;
    speedups["vs_legacy_dense_density_" + arg + "pct"] =
        lazy_s > 0.0 ? legacy_s / lazy_s : 0.0;
    std::printf("density %3d%%: legacy %8.3f s, lazy %8.3f s, speedup "
                "%.2fx vs legacy (lazy materializations: %zu)\n",
                density, legacy_s, lazy_s,
                lazy_s > 0.0 ? legacy_s / lazy_s : 0.0, lazy_mat);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"description\": \"End-to-end comparison-protocol "
               "wall-clock, lazy StepResult pipeline vs dense paths: all "
               "nine streaming methods (SOFIA + 8 baselines) over a "
               "%zu-step stream of %zux%zu slices, rank %zu, fixed "
               "Bernoulli mask, argument = percent of entries observed. "
               "pipeline_lazy drives RunImputationComparison on StepLazy "
               "handles, scoring observed + <= %zu sampled held-out "
               "entries per step via CooList gathers with zero dense "
               "reconstructions (counter-verified per run). "
               "pipeline_legacy_dense is the pre-lazy pipeline "
               "verbatim: materialized Step estimates + full-volume NRE "
               "per method per step (matched by the lazy score at "
               "eval_cap=0 to <= 1e-12) — the O(volume R) floor the lazy "
               "pipeline removes end-to-end. Best (min) protocol wall time "
               "over %zu repetitions, both paths on a single thread "
               "(bench_pipeline --out=BENCH_pipeline.json).\",\n",
               steps, rows, cols, kRank, eval_cap, reps);
  bench::WriteMachineBlock(f);
  std::fprintf(f, "  \"unit\": \"s\",\n");
  std::fprintf(f, "  \"results\": {\n");
  size_t i = 0;
  for (const auto& [key, value] : results) {
    std::fprintf(f, "    \"%s\": %.4f%s\n", key.c_str(), value,
                 ++i < results.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup_lazy_over_dense\": {\n");
  i = 0;
  for (const auto& [key, value] : speedups) {
    std::fprintf(f, "    \"%s\": %.2f%s\n", key.c_str(), value,
                 ++i < speedups.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
