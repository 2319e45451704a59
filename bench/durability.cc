// Durability-layer benchmark: what crash consistency costs on the step
// path, and what recovery costs after a kill. Two representative methods
// (OnlineSGD — cheap steps, small state; SOFIA — the real workload) are
// driven over the same corrupted stream three ways:
//
//  - raw:            the bare method (baseline wall time);
//  - durable:        DurableGuard, journal + snapshots written on the
//                    ingest thread, the journal fsynced at each snapshot;
//  - durable_fsync:  the same with sync_each_append=true — the group-commit
//                    lower bound for callers that need every slice durable
//                    the moment StepLazy returns.
//
// Each mode keeps its best rep as <method>/<mode>_s, with the median and
// worst rep beside it (_median_rep_s, _worst_rep_s), so a slow phase of a
// shared host shows. It also times Recover() (newest snapshot + full
// journal-tail replay, which re-runs inner steps) and reports journal
// throughput. The speedup_durability map holds the overhead ratios (best
// over best) the README quotes.
//
//   bench_durability [--out=BENCH_durability.json] [--rows=64] [--cols=64]
//                    [--steps=128] [--reps=3] [--snapshot-every=16]
//
// The driving CMake target is gated behind SOFIA_BUILD_BENCH like every
// other bench binary.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/online_sgd.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/durable_guard.hpp"
#include "util/bench_json.hpp"
#include "util/flags.hpp"
#include "util/stopwatch.hpp"

namespace sofia {
namespace {

constexpr size_t kRank = 4;
constexpr size_t kPeriod = 4;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sofia_bench_durable_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  return dir == nullptr ? std::string("/tmp") : std::string(dir);
}

void RemoveTree(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "cleanup of %s failed\n", dir.c_str());
  }
}

std::unique_ptr<StreamingMethod> MakeMethod(const std::string& name) {
  if (name == "onlinesgd") {
    return std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = kRank});
  }
  SofiaConfig config;
  config.rank = kRank;
  config.period = kPeriod;
  config.num_threads = 1;
  config.max_init_iterations = 1;
  config.max_als_iterations = 2;
  config.tolerance = 0.5;
  return std::make_unique<SofiaStream>(config);
}

enum class Mode { kRaw, kDurable, kDurableFsync };

struct ModeResult {
  double seconds = 0.0;         ///< Best (min) stream wall time.
  double median_seconds = 0.0;  ///< Median rep's stream wall time.
  double worst_seconds = 0.0;   ///< Slowest rep's stream wall time.
  double recover_seconds = 0.0;
  DurableTelemetry telemetry;  ///< From the rep that set `seconds`.
};

ModeResult RunMode(const std::string& method_name, Mode mode,
                   const CorruptedStream& stream, size_t snapshot_every,
                   size_t reps) {
  ModeResult best;
  std::vector<double> rep_seconds;
  for (size_t rep = 0; rep < reps; ++rep) {
    const std::string dir = MakeTempDir();
    std::unique_ptr<StreamingMethod> method = MakeMethod(method_name);
    std::unique_ptr<DurableGuard> durable;
    StreamingMethod* driven = method.get();
    if (mode != Mode::kRaw) {
      DurableGuardOptions options;
      options.state_dir = dir;
      options.snapshot_every = snapshot_every;
      options.sync_each_append = mode == Mode::kDurableFsync;
      durable = std::make_unique<DurableGuard>(std::move(method), options);
      driven = durable.get();
    }

    const size_t window = driven->init_window();
    if (window > 0) {
      driven->Initialize(
          std::vector<DenseTensor>(stream.slices.begin(),
                                   stream.slices.begin() + window),
          std::vector<Mask>(stream.masks.begin(),
                            stream.masks.begin() + window));
    }
    Stopwatch timer;
    for (size_t t = window; t < stream.slices.size(); ++t) {
      driven->Observe(stream.slices[t], stream.masks[t]);
    }
    if (durable) durable->Drain();
    const double seconds = timer.ElapsedSeconds();
    rep_seconds.push_back(seconds);

    double recover_seconds = 0.0;
    if (durable) {
      DurableGuard rebooted(MakeMethod(method_name),
                            durable->options());
      Stopwatch recover_timer;
      rebooted.Recover();
      recover_seconds = recover_timer.ElapsedSeconds();
    }
    if (rep == 0 || seconds < best.seconds) {
      best.seconds = seconds;
      best.recover_seconds = recover_seconds;
      if (durable) best.telemetry = durable->telemetry();
    }
    durable.reset();  // Close the journal before deleting the tree.
    RemoveTree(dir);
  }
  std::sort(rep_seconds.begin(), rep_seconds.end());
  best.median_seconds = rep_seconds[rep_seconds.size() / 2];
  best.worst_seconds = rep_seconds.back();
  return best;
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) {
  using namespace sofia;
  Flags flags(argc, argv);
  const std::string out_path =
      flags.GetString("out", "BENCH_durability.json");
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 64));
  const size_t cols = static_cast<size_t>(flags.GetInt("cols", 64));
  const size_t steps = static_cast<size_t>(flags.GetInt("steps", 128));
  const size_t reps =
      std::max<size_t>(1, static_cast<size_t>(flags.GetInt("reps", 3)));
  const size_t snapshot_every =
      static_cast<size_t>(flags.GetInt("snapshot-every", 16));

  std::vector<DenseTensor> truth;
  {
    SyntheticTensor syn =
        MakeSinusoidTensor(rows, cols, steps, kRank, kPeriod, /*seed=*/401);
    for (size_t t = 0; t < steps; ++t) {
      truth.push_back(syn.tensor.SliceLastMode(t));
    }
  }
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 402);

  std::map<std::string, double> results;
  std::map<std::string, double> overhead;

  for (const std::string method : {"onlinesgd", "sofia"}) {
    const ModeResult raw =
        RunMode(method, Mode::kRaw, stream, snapshot_every, reps);
    const ModeResult durable =
        RunMode(method, Mode::kDurable, stream, snapshot_every, reps);
    const ModeResult fsync =
        RunMode(method, Mode::kDurableFsync, stream, snapshot_every, reps);

    for (const auto& [mode, result] :
         {std::make_pair("raw", &raw), std::make_pair("durable", &durable),
          std::make_pair("durable_fsync", &fsync)}) {
      const std::string key = method + "/" + mode;
      results[key + "_s"] = result->seconds;
      results[key + "_median_rep_s"] = result->median_seconds;
      results[key + "_worst_rep_s"] = result->worst_seconds;
    }
    results[method + "/recover_s"] = durable.recover_seconds;
    results[method + "/journal_mb"] =
        static_cast<double>(durable.telemetry.journal_bytes) / (1 << 20);
    results[method + "/snapshots"] =
        static_cast<double>(durable.telemetry.snapshots_written);
    overhead["durable_overhead_" + method] =
        raw.seconds > 0.0 ? durable.seconds / raw.seconds : 0.0;
    overhead["durable_fsync_overhead_" + method] =
        raw.seconds > 0.0 ? fsync.seconds / raw.seconds : 0.0;
    overhead["journal_mb_per_s_" + method] =
        durable.seconds > 0.0
            ? static_cast<double>(durable.telemetry.journal_bytes) /
                  (1 << 20) / durable.seconds
            : 0.0;

    std::printf("%-10s raw %6.3f s | durable %6.3f s (median %6.3f, worst "
                "%6.3f) | fsync %6.3f s | recover %6.3f s | %zu snapshots, "
                "%.2f MiB journaled\n",
                method.c_str(), raw.seconds, durable.seconds,
                durable.median_seconds, durable.worst_seconds,
                fsync.seconds, durable.recover_seconds,
                static_cast<size_t>(durable.telemetry.snapshots_written),
                static_cast<double>(durable.telemetry.journal_bytes) /
                    (1 << 20));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"description\": \"Durability-layer overhead: OnlineSGD "
               "and SOFIA over a %zu-step stream of %zux%zu slices (rank "
               "%zu, 20%% missing + 5%% outliers), raw vs DurableGuard "
               "with the write-ahead slice journal and a rotated atomic "
               "snapshot every %zu steps, journal+snapshot IO on the ingest "
               "thread — fsynced at each snapshot (durable) or after every "
               "append (durable_fsync, the group-commit lower bound). "
               "recover_s times Recover(): newest-valid-snapshot restore "
               "plus full journal-tail replay through real inner steps. "
               "Wall times <mode>_s are best of %zu, with the median and "
               "worst rep in <mode>_median_rep_s and _worst_rep_s "
               "(bench_durability --out=BENCH_durability.json).\",\n",
               steps, rows, cols, kRank, snapshot_every, reps);
  bench::WriteMachineBlock(f);
  std::fprintf(f, "  \"unit\": \"s\",\n");
  std::fprintf(f, "  \"results\": {\n");
  size_t i = 0;
  for (const auto& [key, value] : results) {
    const double safe = std::isfinite(value) ? value : -1.0;
    std::fprintf(f, "    \"%s\": %.4f%s\n", key.c_str(), safe,
                 ++i < results.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup_durability\": {\n");
  i = 0;
  for (const auto& [key, value] : overhead) {
    const double safe = std::isfinite(value) ? value : -1.0;
    std::fprintf(f, "    \"%s\": %.3f%s\n", key.c_str(), safe,
                 ++i < overhead.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
