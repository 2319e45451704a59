// Streaming-runtime bench: what the method lanes buy on the comparison
// protocol.
//
//  - lanes 1/2/4/8: all nine comparison methods (the Fig. 3/5 protocol)
//    over a stream of small slices through RunImputationComparison; each
//    slice's methods step and score side by side on min(lanes, 9) threads.
//    Reports slices/sec over the streamed part (Initialize excluded) and
//    the speedup against one lane, plus each method's median step time at
//    one lane (Fig. 5 on this machine: the slowest lane's methods bound the
//    slice);
//  - executor dispatch: the per-batch cost of the persistent executor on
//    trivial batches.
//
// Scores are bitwise identical at every lane count (pinned by
// tests/stream_pipeline_test.cc); this bench reports the wall-clock shape
// of the machine it runs on, whose core count the machine block records.
//
//   bench_runtime [--out=BENCH_runtime.json] [--reps=5]
//
// Gated behind SOFIA_BUILD_BENCH like every other bench binary.

#include <algorithm>
#include <cctype>
#include <cstdio>
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
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/stream_runner.hpp"
#include "util/bench_json.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/shard_executor.hpp"
#include "util/stopwatch.hpp"

namespace sofia {
namespace {

constexpr size_t kRank = 4;
constexpr size_t kPeriod = 4;
/// Lane rows: kLaneSteps kLaneSize x kLaneSize slices, the benchmark's
/// compare-nine slice shape.
constexpr size_t kLaneSize = 40;
constexpr size_t kLaneSteps = 240;

std::vector<DenseTensor> SinusoidSlices(size_t rows, size_t cols,
                                        size_t steps, uint64_t seed) {
  SyntheticTensor syn =
      MakeSinusoidTensor(rows, cols, steps, kRank, kPeriod, seed);
  std::vector<DenseTensor> slices;
  for (size_t t = 0; t < steps; ++t) {
    slices.push_back(syn.tensor.SliceLastMode(t));
  }
  return slices;
}

SofiaConfig BenchSofiaConfig() {
  SofiaConfig config;
  config.rank = kRank;
  config.period = kPeriod;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.num_threads = 1;
  config.max_init_iterations = 1;
  config.max_als_iterations = 2;
  config.tolerance = 0.5;  // Measures runtime shape, not fit quality.
  return config;
}

/// The nine comparison methods at library defaults (rank/period set).
std::vector<std::unique_ptr<StreamingMethod>> MakeNine() {
  std::vector<std::unique_ptr<StreamingMethod>> m;
  m.push_back(std::make_unique<SofiaStream>(BenchSofiaConfig()));
  m.push_back(std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = kRank}));
  m.push_back(std::make_unique<Olstec>(OlstecOptions{.rank = kRank}));
  m.push_back(std::make_unique<Mast>(MastOptions{.rank = kRank}));
  m.push_back(std::make_unique<OrMstc>(OrMstcOptions{.rank = kRank}));
  m.push_back(std::make_unique<BrstLite>(BrstOptions{.rank = kRank}));
  m.push_back(
      std::make_unique<Smf>(SmfOptions{.rank = kRank, .period = kPeriod}));
  m.push_back(
      std::make_unique<Cphw>(CphwOptions{.rank = kRank, .period = kPeriod}));
  m.push_back(
      std::make_unique<CpWoptStream>(CpWoptStreamOptions{.rank = kRank}));
  return m;
}

/// Median of a method's per-step wall times, in microseconds.
double MedianUs(std::vector<double> seconds) {
  if (seconds.empty()) return 0.0;
  const auto mid = seconds.begin() + static_cast<long>(seconds.size() / 2);
  std::nth_element(seconds.begin(), mid, seconds.end());
  return 1e6 * *mid;
}

/// Slices/sec of one nine-method comparison run under `options` (fresh
/// methods — they are stateful). The streamed part is the Run's wall time
/// minus its Initialize calls. `step_us`, when given, receives each
/// method's median step time keyed by its lower-cased name.
double TimeNine(const CorruptedStream& stream,
                const std::vector<DenseTensor>& truth,
                const StreamEvalOptions& options,
                std::map<std::string, double>* step_us = nullptr) {
  std::vector<std::unique_ptr<StreamingMethod>> owned = MakeNine();
  std::vector<StreamingMethod*> methods;
  for (const auto& m : owned) methods.push_back(m.get());
  Stopwatch wall;
  std::vector<MethodRunResult> results =
      RunImputationComparison(methods, stream, truth, options);
  double streamed_s = wall.ElapsedSeconds();
  for (const MethodRunResult& r : results) {
    streamed_s -= r.run.init_seconds;
    if (step_us != nullptr) {
      std::string key = r.name;
      std::transform(key.begin(), key.end(), key.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
      });
      (*step_us)[key] = MedianUs(r.run.step_seconds);
    }
  }
  return streamed_s > 0.0 ? static_cast<double>(truth.size()) / streamed_s
                          : 0.0;
}

/// Per-batch dispatch cost: microseconds per batch of a persistent
/// ShardExecutor running `batches` trivial 16-task batches.
double TimeDispatch(size_t threads, size_t batches) {
  std::vector<double> sink(16, 0.0);  // Task t writes only sink[t].
  auto task = [&](size_t t) { sink[t] += static_cast<double>(t); };
  Stopwatch timer;
  {
    ShardExecutor executor(threads);
    for (size_t b = 0; b < batches; ++b) executor.Run(16, task);
  }
  return 1e6 * timer.ElapsedSeconds() / static_cast<double>(batches);
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) {
  using namespace sofia;
  Flags flags(argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_runtime.json");
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 5));

  std::map<std::string, double> results;
  std::map<std::string, double> speedups;

  // Method lanes: the nine-method comparison on small corrupted slices
  // (30% missing, 10% outliers of magnitude 3). Each rep runs every lane
  // count in turn, so a slow phase of a shared host hits
  // all of them alike; each lane count keeps its best rep, and each
  // method its lowest 1-lane median step.
  {
    const std::vector<DenseTensor> truth =
        SinusoidSlices(kLaneSize, kLaneSize, kLaneSteps, /*seed=*/103);
    const CorruptedStream stream = Corrupt(truth, {30.0, 10.0, 3.0}, 104);
    StreamEvalOptions options;
    const size_t lane_counts[] = {1, 2, 4, 8};
    std::map<size_t, double> best;
    std::map<std::string, double> best_step_us;
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const size_t lanes : lane_counts) {
        options.workers = lanes;
        std::map<std::string, double> step_us;
        best[lanes] = std::max(
            best[lanes],
            TimeNine(stream, truth, options, lanes == 1 ? &step_us : nullptr));
        for (const auto& [name, us] : step_us) {
          const auto it = best_step_us.find(name);
          if (it == best_step_us.end() || us < it->second) {
            best_step_us[name] = us;
          }
        }
      }
    }
    for (const auto& [name, us] : best_step_us) {
      results["steps/" + name + "_us"] = us;
      std::printf("one lane, %-10s %8.1f us/step (median)\n", name.c_str(),
                  us);
    }
    for (const size_t lanes : lane_counts) {
      const std::string arg = std::to_string(lanes);
      results["lanes/" + arg + "_slices_per_s"] = best[lanes];
      speedups["lanes_" + arg + "_vs_1"] =
          best[1] > 0.0 ? best[lanes] / best[1] : 0.0;
      std::printf("nine methods, %zu lane(s): %8.1f slices/s (%.2fx vs 1)\n",
                  lanes, best[lanes], speedups["lanes_" + arg + "_vs_1"]);
    }
  }

  // Executor dispatch on trivial batches.
  const double persistent_us = TimeDispatch(/*threads=*/4, /*batches=*/2000);
  results["dispatch/persistent_us_per_batch"] = persistent_us;
  std::printf("dispatch (4 threads, 16 tasks): persistent %.1f us/batch\n",
              persistent_us);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"description\": \"Streaming runtime "
               "(eval/stream_pipeline.hpp). lanes/N = slices/sec of the "
               "nine-method comparison (Fig. 3/5 protocol, library-default "
               "baselines, rank %zu) over %zu %zux%zu slices (30%% "
               "missing, 10%% outliers), each slice's methods stepped and "
               "scored side by side on min(N, 9) lanes, Initialize "
               "excluded; steps/<method>_us = that method's median step "
               "time at one lane (Fig. 5 on this machine), lowest over the "
               "repetitions; dispatch/persistent_us_per_batch = "
               "microseconds per 16-task batch on a persistent 4-thread "
               "executor. Scores are bitwise identical at every lane count "
               "(tests/stream_pipeline_test.cc); best of %zu repetitions on "
               "the machine in the machine block. (bench_runtime "
               "--out=BENCH_runtime.json)\",\n",
               kRank, kLaneSteps, kLaneSize, kLaneSize, reps);
  bench::WriteMachineBlock(f);
  std::fprintf(f, "  \"unit\": \"slices_per_s | us\",\n");
  std::fprintf(f, "  \"results\": {\n");
  size_t i = 0;
  for (const auto& [key, value] : results) {
    std::fprintf(f, "    \"%s\": %.4f%s\n", key.c_str(), value,
                 ++i < results.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup\": {\n");
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
