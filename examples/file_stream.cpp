// End-to-end workflow on file-based data: the path a user with a real
// event log follows.
//
//   1. (Stand-in for real data) write a corrupted tensor stream to CSV in
//      the record format `t,i,j,value` — one line per *observed* entry.
//   2. Read it back with the stream loader.
//   3. Detect the seasonal period from the slice-mean series (SOFIA's one
//      required prior) using masked autocorrelation.
//   4. Run SOFIA over the stream and report imputation quality.
//
// Usage: file_stream [--path=/tmp/sofia_demo_stream.csv]
//                    [--num_threads=0] [--guard=off|skip|rollback|reinit]
//                    [--simd=on|off]
//                    [--workers=0]
//                    [--state-dir=] [--snapshot-every=16] [--journal=on]
//                    [--kill-at=-1]
//                    [--trace-out=] [--metrics-out=] [--stats-every=0]
//                    [--stats-out=] [--obs=1]
//
// The observability flags (src/obs/cli.hpp) work in every mode:
// --trace-out writes a Chrome trace-event JSON (load it in
// https://ui.perfetto.dev) with the main thread and shard workers as
// named tracks; --metrics-out appends the final registry snapshot as one
// JSON line (feed it to tool_obs_report); --stats-every=N emits a
// snapshot line every N steps while streaming.
//
// --guard wraps SOFIA in the StreamGuard fault-tolerance layer — real file
// streams are exactly where NaN records and blackout slices show up (the
// loader itself rejects malformed lines; the guard covers faults injected
// after loading, e.g. by upstream preprocessing).
//
// --state-dir switches on the crash-consistent durability layer
// (eval/durable_guard.hpp) and runs a kill-restart-resume demo instead of
// the comparison run: SOFIA streams with every slice write-ahead
// journaled (--journal=off keeps snapshots only) and a rotated atomic
// snapshot every --snapshot-every steps; at step --kill-at (default:
// mid-stream) the "process" is killed, a fresh guard recovers from
// whatever reached disk, resumes, and the demo verifies the recovered
// estimates are bitwise identical to a run that never crashed.
//
// --simd=off forces the scalar kernel instantiations (tensor/simd.hpp).
// Any flag not listed above is an error.
//
// The run is driven by the streaming runtime (eval/stream_pipeline.hpp),
// which ingests each slice (pattern build, truth gathers) right before its
// solve. --workers caps the method lanes (one method here, so it runs
// inline on the caller with its kernels serial); scores are bitwise
// identical for every setting.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/sofia_stream.hpp"
#include "eval/durable_guard.hpp"
#include "eval/stream_guard.hpp"
#include "data/corruption.hpp"
#include "data/dataset_sim.hpp"
#include "data/stream_io.hpp"
#include "eval/experiment.hpp"
#include "eval/stream_runner.hpp"
#include "obs/cli.hpp"
#include "obs/obs.hpp"
#include "tensor/simd.hpp"
#include "timeseries/period.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  Flags flags(argc, argv);
  const obs::ObsCliConfig obs_config = obs::SetupObsFromFlags(flags);
  const std::string path =
      flags.GetString("path", "/tmp/sofia_demo_stream.csv");
  const size_t num_threads =
      static_cast<size_t>(flags.GetInt("num_threads", 0));
  simd::SetEnabled(
      flags.GetString("simd", simd::Enabled() ? "on" : "off") == "on");
  // --state-dir: the crash-consistent durability demo (write-ahead journal
  // + rotated atomic snapshots + kill-restart-resume) instead of the
  // comparison run.
  const std::string state_dir = flags.GetString("state-dir", "");
  DurableGuardOptions durable_options;
  durable_options.state_dir = state_dir;
  durable_options.snapshot_every =
      static_cast<size_t>(flags.GetInt("snapshot-every", 16));
  durable_options.journal = flags.GetBool("journal", true);
  const int64_t kill_flag = flags.GetInt("kill-at", -1);
  const std::string guard_name = flags.GetString("guard", "off");
  StreamEvalOptions options;
  options.num_threads = num_threads;
  options.workers = static_cast<size_t>(flags.GetInt("workers", 0));
  if (ReportUnreadFlags(flags, argv[0]) > 0) return 2;

  // 1. Simulate "real" data on disk: a network-traffic-like stream with
  //    30% missing entries and 10% outliers.
  uint64_t phase_start = obs::NowNs();
  Dataset traffic = MakeNetworkTraffic(DatasetScale::kSmall);
  traffic.slices.resize(7 * traffic.period);
  CorruptedStream corrupted = Corrupt(traffic.slices, {30.0, 10.0, 3.0}, 71);
  if (!WriteStreamCsvFile(path, TensorStream{corrupted.slices,
                                             corrupted.masks})) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    obs::FinishObs(obs_config);
    return 1;
  }
  std::printf("wrote %zu observed-entry records to %s\n",
              [&] {
                size_t n = 0;
                for (const Mask& m : corrupted.masks) n += m.CountObserved();
                return n;
              }(),
              path.c_str());
  obs::TraceRecord("demo.write_csv", phase_start, obs::NowNs() - phase_start,
                   0, nullptr);
  phase_start = obs::NowNs();

  // 2. Load it back, as a real consumer would.
  TensorStream loaded = ReadStreamCsvFile(path);
  std::printf("loaded %zu slices of shape %s\n", loaded.slices.size(),
              loaded.slices[0].shape().ToString().c_str());
  obs::TraceRecord("demo.load", phase_start, obs::NowNs() - phase_start, 0,
                   nullptr);
  phase_start = obs::NowNs();

  // 3. Detect the seasonal period from the per-step *median* of observed
  //    entries. The median shrugs off the injected outliers that would
  //    dominate a plain mean, and the masked autocorrelation tolerates the
  //    missing data.
  std::vector<double> medians;
  std::vector<bool> has_data;
  for (size_t t = 0; t < loaded.slices.size(); ++t) {
    std::vector<double> values;
    for (size_t k = 0; k < loaded.slices[t].NumElements(); ++k) {
      if (loaded.masks[t].Get(k)) values.push_back(loaded.slices[t][k]);
    }
    if (values.empty()) {
      medians.push_back(0.0);
      has_data.push_back(false);
      continue;
    }
    auto mid = values.begin() + static_cast<long>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    medians.push_back(*mid);
    has_data.push_back(true);
  }
  const size_t period = EstimatePeriod(medians, 2, 3 * traffic.period,
                                       &has_data);
  std::printf("detected seasonal period m = %zu (generator used m = %zu)\n",
              period, traffic.period);
  obs::TraceRecord("demo.detect_period", phase_start,
                   obs::NowNs() - phase_start, 0, nullptr);

  // 4. Run SOFIA with the detected period.
  Dataset as_loaded = traffic;  // Ground truth for scoring only.
  SofiaConfig config = MakeExperimentConfig(as_loaded, corrupted);
  config.period = period;
  config.num_threads = num_threads;
  if (!state_dir.empty()) {
    const size_t window = config.InitWindow();
    const size_t total = loaded.slices.size();
    const std::vector<DenseTensor> init_slices(
        loaded.slices.begin(), loaded.slices.begin() + window);
    const std::vector<Mask> init_masks(loaded.masks.begin(),
                                       loaded.masks.begin() + window);
    const auto gather_step = [&](StreamingMethod* m, size_t t) {
      StepResult result = m->StepLazy(loaded.slices[t], loaded.masks[t]);
      CooList pattern =
          CooList::Build(loaded.masks[t], /*with_mode_buckets=*/false);
      return result.GatherAt(pattern);
    };

    // Reference: the same stream, no crash, no durability wrapper.
    std::vector<std::vector<double>> reference;
    {
      SofiaStream plain(config);
      plain.Initialize(init_slices, init_masks);
      for (size_t t = window; t < total; ++t) {
        reference.push_back(gather_step(&plain, t));
      }
    }

    const size_t kill_at =  // In post-init steps; default mid-stream.
        kill_flag < 0 ? (total - window) / 2
                      : std::min<size_t>(static_cast<size_t>(kill_flag),
                                         total - window);
    {
      DurableGuard durable(std::make_unique<SofiaStream>(config),
                           durable_options);
      durable.Initialize(init_slices, init_masks);
      for (size_t t = window; t < window + kill_at; ++t) {
        gather_step(&durable, t);
      }
      std::printf("[durable] streamed %zu steps (journal %s, snapshot "
                  "every %zu), then killed the process\n",
                  kill_at, durable_options.journal ? "on" : "off",
                  durable_options.snapshot_every);
    }  // "Power off": only what reached disk survives.

    DurableGuard rebooted(std::make_unique<SofiaStream>(config),
                          durable_options);
    const RecoveryReport report = rebooted.Recover();
    if (!report.restored) {
      std::fprintf(stderr, "[durable] nothing usable in %s\n",
                   state_dir.c_str());
      obs::FinishObs(obs_config);
      return 1;
    }
    std::printf("[durable] recovered: snapshot seq %llu @ step %llu + %zu "
                "journaled slices replayed -> resuming at step %llu\n",
                static_cast<unsigned long long>(report.snapshot_seq),
                static_cast<unsigned long long>(report.snapshot_step),
                report.replayed_records,
                static_cast<unsigned long long>(report.resume_step));
    size_t mismatches = 0;
    for (size_t t = window + report.resume_step; t < total; ++t) {
      if (gather_step(&rebooted, t) != reference[t - window]) ++mismatches;
    }
    std::printf("[durable] resumed %zu steps: %s\n",
                total - window - report.resume_step,
                mismatches == 0
                    ? "bitwise identical to the uninterrupted run"
                    : "DIVERGED — durability contract broken");
    std::remove(path.c_str());
    obs::FinishObs(obs_config);
    return mismatches == 0 ? 0 : 1;
  }

  std::unique_ptr<StreamingMethod> method =
      std::make_unique<SofiaStream>(config);
  if (guard_name != "off") {
    StreamGuardOptions guard_options;
    guard_options.policy = ParseGuardPolicy(guard_name);
    method = std::make_unique<StreamGuard>(std::move(method), guard_options);
  }
  CorruptedStream stream;
  stream.slices = loaded.slices;
  stream.masks = loaded.masks;

  std::vector<StreamingMethod*> methods = {method.get()};
  std::vector<MethodRunResult> results =
      RunImputationComparison(methods, stream, traffic.slices, options);
  const StreamRunResult& res = results[0].run;
  std::printf("imputation RAE over the stream: %.4f (vs ~1.0 for "
              "zero-filling the gaps)\n", res.rae);
  if (res.guarded) {
    std::printf("guard: %zu input trips, %zu health trips, %zu recoveries\n",
                res.guard.input_trips, res.guard.health_trips,
                res.guard.recoveries);
  }
  const PipelineTelemetry& pipe = res.pipeline;
  std::printf("runtime: %zu lane(s) — %zu steps, %llu arena growths after "
              "warm-up\n",
              pipe.workers, pipe.steps,
              static_cast<unsigned long long>(pipe.arena_growth_steady));
  std::remove(path.c_str());
  obs::FinishObs(obs_config);
  return 0;
}
