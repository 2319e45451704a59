// The repository benchmark's measuring program.
//
//   perfbench gen --workload=W --seed=N --dir=D [--quick=1]
//   perfbench run --workload=W --dir=D --seconds=S --trace=0|1
//                 [--decorators=1]
//
// `gen` writes a workload's inputs (workloads.hpp) and is never timed.
// `run` replays them through the library's public API in a closed loop:
// one replay thread hands the next slice over only after the previous
// slice's estimates are gathered, with no think time. A *pass* is one full
// replay — open and validate the input, construct the methods, Initialize,
// stream every slice, forecast the held-out horizon, check the outputs.
// Passes repeat until `--seconds` have been measured (at least
// kMinPasses). Every pass does the same work with bitwise the same results,
// so the run reports its fastest set-up and, per slice, the fastest of its
// replays (see LatencyPercentile). Runtime knobs stay at library defaults,
// except SOFIA's worker count (kSofiaWorkers).
//
// With --trace=1 the first pass runs untraced and every later pass runs
// under an obs trace session; the per-layer metrics come from the traced
// passes, and the untraced pass gives the tracing overhead.
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the lines before it hold the machine/defaults block and the
// per-method accuracy the caller checks against reference values. The exit
// code is 0 when every output check passed, 3 when one failed (the result
// is still printed), 2 on a usage or input error (no result).

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/brst.hpp"
#include "baselines/cp_wopt_stream.hpp"
#include "baselines/cphw.hpp"
#include "baselines/mast.hpp"
#include "baselines/observed_sweep.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "baselines/smf.hpp"
#include "core/sofia_stream.hpp"
#include "data/slice_format.hpp"
#include "eval/durable_guard.hpp"
#include "eval/stream_guard.hpp"
#include "eval/stream_pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "timed_method.hpp"
#include "util/bench_json.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sofia::CooList;
using sofia::DenseTensor;
using sofia::Mask;
using sofia::StepResult;
using sofia::StreamingMethod;

struct RunOptions {
  std::string workload;
  std::string dir;
  double seconds = 10.0;
  bool trace = false;
  bool decorators = true;
};

/// Replays per run: enough for a best-of over the host's slow phases, and
/// for the untraced pass the traced ones are compared with.
constexpr size_t kMinPasses = 3;

/// Per-call trace span names of the comparison methods (string literals:
/// the trace ring stores the pointers). Index = position in MakeNine().
const char* const kMethodSpans[] = {
    "bench.method.sofia",  "bench.method.onlinesgd", "bench.method.olstec",
    "bench.method.mast",   "bench.method.or-mstc",   "bench.method.brst",
    "bench.method.smf",    "bench.method.cphw",      "bench.method.cp-wopt"};
const char* const kMethodKeys[] = {"sofia", "onlinesgd", "olstec",
                                   "mast",  "or-mstc",   "brst",
                                   "smf",   "cphw",      "cp-wopt"};
constexpr size_t kNumMethods = 9;

/// Everything one pass measured.
struct Pass {
  bool traced = false;
  double setup_s = 0.0, open_s = 0.0, init_s = 0.0;
  std::vector<double> latency_us;  ///< One per timed slice.
  std::vector<double> decode_us, pattern_us, gather_us, core_step_us,
      overhead_us;
  std::vector<double> method_step_us[kNumMethods];
  double slice_ns = 0.0;    ///< Σ slice latency (ns).
  double covered_ns = 0.0;  ///< Σ time inside named spans (ns).
  double guard_ns = 0.0, checkpoint_ns = 0.0;  ///< Guard self, ring saves.
  double durable_ns = 0.0, snapshot_ns = 0.0;   ///< Durable self, snapshots.
  double forecast_us = 0.0;  ///< Mean ForecastLazy + gather per step.
  double recover_ms = 0.0;
  uint64_t entries = 0;  ///< Observed entries of the timed slices.
  size_t attempted = 0, failed = 0;
  double rae = 0.0, afe = 0.0;
  std::vector<std::pair<std::string, double>> method_rae;
  uint64_t digest = 1469598103934665603ULL;  ///< FNV-1a over result bits.
  // Counts over the timed region.
  double trips = 0, health_trips = 0, rollbacks = 0;
  double journal_bytes = 0, snapshots = 0;
  double batches = 0, nnz = 0, flops = 0, pattern_builds = 0;
  std::vector<std::string> check_failures;
};

void Fold(uint64_t* digest, const std::vector<double>& values) {
  for (const double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      *digest ^= (bits >> (8 * b)) & 0xff;
      *digest *= 1099511628211ULL;
    }
  }
}

bool AllFinite(const std::vector<double>& values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// ||est - truth|| / ||truth|| (the NRE of Section VI-A on a sample).
double Nre(const std::vector<double>& est, const std::vector<double>& truth) {
  double num = 0.0, den = 0.0;
  for (size_t k = 0; k < truth.size(); ++k) {
    num += (est[k] - truth[k]) * (est[k] - truth[k]);
    den += truth[k] * truth[k];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Nearest-rank percentile (q in [0, 100]); 0 when empty.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const size_t k = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Sum of every registry counter named `<prefix>*<suffix>`.
double CounterSum(const std::string& prefix, const std::string& suffix) {
  double sum = 0.0;
  for (const auto& [name, counter] : sofia::obs::Registry::Global().Counters()) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += static_cast<double>(counter->Value());
    }
  }
  return sum;
}

/// Registry counters read before and after the timed region.
struct CounterSnapshot {
  double batches, nnz, flops, pattern_builds, ingest_us, score_us;
  static CounterSnapshot Take() {
    return {CounterSum("executor.batches", ""),
            CounterSum("kernel.", ".nnz"),
            CounterSum("kernel.", ".flop_estimate"),
            CounterSum("pipeline.pattern_builds", ""),
            CounterSum("time.pipeline.ingest_us", ""),
            CounterSum("time.pipeline.score_us", "")};
  }
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// SOFIA's kernel workers. The library default is one per CPU; on a shared
/// 4-vCPU host four workers made set-up ~1.7x slower than one and up to 3.5x
/// slower in the host's busy phases (every batch waits for the vCPU the
/// host slowed), so the figures measured the host's scheduler. One worker
/// matches the pipeline's own default (StreamEvalOptions::num_threads).
constexpr size_t kSofiaWorkers = 1;

sofia::SofiaConfig MakeConfig(const Meta& meta) {
  sofia::SofiaConfig config;  // Library defaults for the other runtime knobs.
  config.num_threads = kSofiaWorkers;
  config.rank = meta.rank;
  config.period = meta.period;
  config.lambda1 = meta.lambda1;
  config.lambda2 = meta.lambda2;
  config.lambda3 = meta.lambda3;
  config.max_init_iterations = meta.max_init_iterations;
  return config;
}

std::unique_ptr<StreamingMethod> Decorate(
    std::unique_ptr<StreamingMethod> method, const char* span, bool on,
    TimedMethod** handle) {
  if (!on) {
    *handle = nullptr;
    return method;
  }
  auto timed = std::make_unique<TimedMethod>(std::move(method), span);
  *handle = timed.get();
  return timed;
}

/// Both input files, opened and validated against the meta.
struct Inputs {
  sofia::slicefmt::SliceFileReader stream, truth;
};

bool OpenInputs(const RunOptions& opts, const Meta& meta, Inputs* in,
                std::string* error) {
  if (!in->stream.Open(opts.dir + "/stream.slices", error) ||
      !in->truth.Open(opts.dir + "/truth.slices", error)) {
    return false;
  }
  const sofia::Shape shape({meta.rows, meta.cols});
  if (in->stream.truncated() || in->truth.truncated() ||
      in->stream.num_records() != meta.streamed ||
      in->truth.num_records() != meta.streamed + meta.horizon ||
      !(in->stream.slice_shape() == shape) ||
      !(in->truth.slice_shape() == shape)) {
    *error = "input files do not match meta.txt";
    return false;
  }
  return true;
}

/// Truth record `i` as a gather pattern plus its values.
struct Scored {
  CooList pattern;
  std::vector<double> truth;
};

Scored ScoredAt(const sofia::slicefmt::SliceFileReader& truth, size_t i) {
  const sofia::slicefmt::SliceRecordView& view = truth.record(i);
  std::vector<size_t> indices(view.nnz);
  Scored out;
  out.truth.resize(view.nnz);
  for (size_t k = 0; k < view.nnz; ++k) {
    indices[k] = static_cast<size_t>(view.entries[k].index);
    out.truth[k] = view.entries[k].value;
  }
  out.pattern = CooList::FromIndices(truth.slice_shape(), std::move(indices),
                                     /*with_mode_buckets=*/false);
  return out;
}

/// Forecasts h = 1..horizon after the stream and scores each at the
/// horizon sample; returns the AFE, records the per-step cost, and keeps
/// the h = 1 gather for the recovery check.
double ScoreForecast(const StreamingMethod& method, const Inputs& in,
                     const Meta& meta, Pass* pass,
                     std::vector<double>* first_step) {
  std::vector<double> errors, est;
  uint64_t ns = 0;
  for (size_t h = 1; h <= meta.horizon; ++h) {
    const Scored scored = ScoredAt(in.truth, meta.streamed + h - 1);
    const uint64_t start = NowNs();
    const StepResult forecast = method.ForecastLazy(h);
    forecast.GatherAtInto(scored.pattern, &est);
    ns += NowNs() - start;
    if (!AllFinite(est)) {
      pass->check_failures.push_back("non-finite forecast at h=" +
                                     std::to_string(h));
    }
    Fold(&pass->digest, est);
    errors.push_back(Nre(est, scored.truth));
    if (h == 1) *first_step = est;
  }
  pass->forecast_us =
      meta.horizon > 0 ? 1e-3 * static_cast<double>(ns) / meta.horizon : 0.0;
  return Mean(errors);
}

/// guarded-durable: one method stack, driven by
/// the benchmark's own closed loop over the journal.
Pass RunSinglePass(const RunOptions& opts, const Meta& meta, size_t index) {
  Pass pass;
  const bool guarded = meta.workload == "guarded-durable";
  const uint64_t t_setup = NowNs();
  Inputs in;
  std::string error;
  if (!OpenInputs(opts, meta, &in, &error)) {
    pass.check_failures.push_back("open: " + error);
    return pass;
  }
  pass.open_s = 1e-9 * static_cast<double>(NowNs() - t_setup);

  const sofia::SofiaConfig config = MakeConfig(meta);
  const std::string state_dir =
      opts.dir + "/state-" + std::to_string(index);
  sofia::DurableGuardOptions durable_options;
  durable_options.state_dir = state_dir;
  TimedMethod *sofia_t = nullptr, *guard_t = nullptr, *top_t = nullptr;
  std::unique_ptr<StreamingMethod> top =
      Decorate(std::make_unique<sofia::SofiaStream>(config),
               "bench.sofia.step", opts.decorators, &sofia_t);
  sofia::StreamGuard* guard = nullptr;
  sofia::DurableGuard* durable = nullptr;
  if (guarded) {
    ::mkdir(state_dir.c_str(), 0755);
    auto g = std::make_unique<sofia::StreamGuard>(std::move(top));
    guard = g.get();
    top = Decorate(std::move(g), "bench.guard.step", opts.decorators,
                   &guard_t);
    auto d = std::make_unique<sofia::DurableGuard>(std::move(top),
                                                   durable_options);
    durable = d.get();
    top = Decorate(std::move(d), "bench.durable.step", opts.decorators,
                   &top_t);
  }

  const size_t window = config.InitWindow();
  {
    std::vector<DenseTensor> slices(window);
    std::vector<Mask> masks(window);
    for (size_t t = 0; t < window; ++t) {
      in.stream.Decode(t, &slices[t], &masks[t]);
    }
    const uint64_t start = NowNs();
    top->Initialize(slices, masks);
    pass.init_s = 1e-9 * static_cast<double>(NowNs() - start);
  }
  pass.setup_s = 1e-9 * static_cast<double>(NowNs() - t_setup);
  if (sofia_t != nullptr) sofia_t->TakeSaveNs();
  if (guard_t != nullptr) guard_t->TakeSaveNs();

  const CounterSnapshot before = CounterSnapshot::Take();
  std::vector<double> nre, est_observed, est_held;
  DenseTensor y;
  Mask omega;
  for (size_t i = window; i < meta.streamed; ++i) {
    const Scored scored = ScoredAt(in.truth, i);  // The query, not timed.
    ++pass.attempted;
    const uint64_t t0 = NowNs();
    in.stream.Decode(i, &y, &omega);
    const uint64_t t1 = NowNs();
    std::shared_ptr<const CooList> pattern = sofia::MakeSharedPattern(omega);
    const uint64_t t2 = NowNs();
    StepResult estimate;
    try {
      estimate = top->StepLazy(y, omega, pattern);
    } catch (const std::exception& e) {
      ++pass.failed;
      pass.check_failures.push_back(std::string("step threw: ") + e.what());
      continue;
    }
    const uint64_t t3 = NowNs();
    estimate.GatherAtInto(*pattern, &est_observed);
    estimate.GatherAtInto(scored.pattern, &est_held);
    const uint64_t t4 = NowNs();

    if (sofia::obs::TraceActive()) {
      sofia::obs::TraceRecord("bench.slice", t0, t4 - t0, i, "slice");
      sofia::obs::TraceRecord("bench.decode", t0, t1 - t0, i, "slice");
      sofia::obs::TraceRecord("bench.pattern", t1, t2 - t1, i, "slice");
      sofia::obs::TraceRecord("bench.gather", t3, t4 - t3, i, "slice");
    }
    const double slice_ns = static_cast<double>(t4 - t0);
    const double step_ns = static_cast<double>(t3 - t2);
    pass.latency_us.push_back(1e-3 * slice_ns);
    pass.decode_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    pass.pattern_us.push_back(1e-3 * static_cast<double>(t2 - t1));
    pass.gather_us.push_back(1e-3 * static_cast<double>(t4 - t3));
    pass.overhead_us.push_back(1e-3 * (slice_ns - step_ns));
    pass.slice_ns += slice_ns;
    pass.covered_ns += slice_ns;  // decode + pattern + step + gather.
    pass.entries += pattern->nnz();
    if (sofia_t != nullptr) {
      const double sofia_ns = static_cast<double>(sofia_t->TakeSliceStepNs());
      pass.core_step_us.push_back(1e-3 * sofia_ns);
      if (guarded) {
        const double guard_incl =
            static_cast<double>(guard_t->TakeSliceStepNs());
        const double durable_incl =
            static_cast<double>(top_t->TakeSliceStepNs());
        pass.guard_ns += guard_incl - sofia_ns;
        pass.durable_ns += durable_incl - guard_incl;
        // DurableGuard snapshots save through the guard; the rest of the
        // SaveState time under the guard is its own ring checkpoints.
        const double snapshot_ns = static_cast<double>(guard_t->TakeSaveNs());
        pass.snapshot_ns += snapshot_ns;
        pass.checkpoint_ns +=
            static_cast<double>(sofia_t->TakeSaveNs()) - snapshot_ns;
      }
    }

    const bool finite = AllFinite(est_observed) && AllFinite(est_held);
    if (!finite) {
      ++pass.failed;
      if (pass.failed == 1) {
        pass.check_failures.push_back("non-finite estimate at step " +
                                      std::to_string(i));
      }
    }
    Fold(&pass.digest, est_observed);
    Fold(&pass.digest, est_held);
    nre.push_back(Nre(est_held, scored.truth));
  }
  const CounterSnapshot after = CounterSnapshot::Take();
  pass.batches = after.batches - before.batches;
  pass.nnz = after.nnz - before.nnz;
  pass.flops = after.flops - before.flops;
  pass.pattern_builds = static_cast<double>(pass.attempted);
  pass.rae = Mean(nre);
  pass.method_rae.emplace_back("SOFIA", pass.rae);

  std::vector<double> live_first;
  pass.afe = ScoreForecast(*top, in, meta, &pass, &live_first);

  if (guarded) {
    const sofia::GuardTelemetry& g = guard->telemetry();
    pass.trips = static_cast<double>(g.input_trips);
    pass.health_trips = static_cast<double>(g.health_trips);
    pass.rollbacks = static_cast<double>(g.rollbacks);
    pass.journal_bytes = static_cast<double>(durable->telemetry().journal_bytes);
    pass.snapshots =
        static_cast<double>(durable->telemetry().snapshots_written);
    if (pass.trips != static_cast<double>(meta.garbage_slices)) {
      pass.check_failures.push_back(
          "guard input trips " + std::to_string(g.input_trips) +
          " != injected garbage slices " +
          std::to_string(meta.garbage_slices));
    }
    // A fresh stack recovered from disk must forecast bit for bit like
    // the live one.
    durable->Drain();
    sofia::DurableGuard rebooted(
        std::make_unique<sofia::StreamGuard>(
            std::make_unique<sofia::SofiaStream>(config)),
        durable_options);
    const uint64_t start = NowNs();
    const sofia::RecoveryReport report = rebooted.Recover();
    pass.recover_ms = 1e-6 * static_cast<double>(NowNs() - start);
    const Scored first = ScoredAt(in.truth, meta.streamed);
    const std::vector<double> recovered =
        rebooted.ForecastLazy(1).GatherAt(first.pattern);
    if (!report.restored || report.resume_step != meta.streamed - window ||
        recovered.size() != live_first.size() ||
        std::memcmp(recovered.data(), live_first.data(),
                    recovered.size() * sizeof(double)) != 0) {
      pass.check_failures.push_back(
          "recovered forecast differs from the live guard's (restored " +
          std::to_string(report.restored) + ", resume step " +
          std::to_string(report.resume_step) + ", replayed " +
          std::to_string(report.replayed_records) + ")");
    }
  }
  return pass;
}

/// The nine comparison methods at library defaults (rank/period from the
/// workload), SOFIA first: its StepLazy start marks each slice.
std::vector<std::unique_ptr<StreamingMethod>> MakeNine(const Meta& meta) {
  std::vector<std::unique_ptr<StreamingMethod>> m;
  m.push_back(std::make_unique<sofia::SofiaStream>(MakeConfig(meta)));
  m.push_back(std::make_unique<sofia::OnlineSgd>(
      sofia::OnlineSgdOptions{.rank = meta.rank}));
  m.push_back(std::make_unique<sofia::Olstec>(
      sofia::OlstecOptions{.rank = meta.rank}));
  m.push_back(
      std::make_unique<sofia::Mast>(sofia::MastOptions{.rank = meta.rank}));
  m.push_back(std::make_unique<sofia::OrMstc>(
      sofia::OrMstcOptions{.rank = meta.rank}));
  m.push_back(std::make_unique<sofia::BrstLite>(
      sofia::BrstOptions{.rank = meta.rank}));
  m.push_back(std::make_unique<sofia::Smf>(
      sofia::SmfOptions{.rank = meta.rank, .period = meta.period}));
  m.push_back(std::make_unique<sofia::Cphw>(
      sofia::CphwOptions{.rank = meta.rank, .period = meta.period}));
  m.push_back(std::make_unique<sofia::CpWoptStream>(
      sofia::CpWoptStreamOptions{.rank = meta.rank}));
  return m;
}

/// compare-nine: all nine methods through the StreamPipeline runtime. The
/// runtime takes a materialized stream, so decoding is part of set-up; the
/// slice clock runs from SOFIA's StepLazy on slice t to its StepLazy on
/// slice t+1 (the last slice ends when Run returns).
Pass RunComparePass(const RunOptions& opts, const Meta& meta) {
  Pass pass;
  const uint64_t t_setup = NowNs();
  Inputs in;
  std::string error;
  if (!OpenInputs(opts, meta, &in, &error)) {
    pass.check_failures.push_back("open: " + error);
    return pass;
  }
  pass.open_s = 1e-9 * static_cast<double>(NowNs() - t_setup);
  sofia::CorruptedStream stream;
  std::vector<DenseTensor> truth(meta.streamed);
  stream.slices.resize(meta.streamed);
  stream.masks.resize(meta.streamed);
  Mask full;
  for (size_t t = 0; t < meta.streamed; ++t) {
    const uint64_t start = NowNs();
    in.stream.Decode(t, &stream.slices[t], &stream.masks[t]);
    pass.decode_us.push_back(1e-3 * static_cast<double>(NowNs() - start));
    in.truth.Decode(t, &truth[t], &full);
  }

  std::vector<std::unique_ptr<StreamingMethod>> owned = MakeNine(meta);
  TimedMethod* timed[kNumMethods] = {};
  std::vector<StreamingMethod*> methods;
  for (size_t m = 0; m < owned.size(); ++m) {
    owned[m] = Decorate(std::move(owned[m]), kMethodSpans[m],
                        opts.decorators, &timed[m]);
    methods.push_back(owned[m].get());
  }
  const size_t window = owned[0]->init_window();
  sofia::StreamPipeline pipeline(stream, truth, sofia::StreamEvalOptions{});

  const CounterSnapshot before = CounterSnapshot::Take();
  std::vector<sofia::MethodRunResult> results;
  try {
    results = pipeline.Run(methods);
  } catch (const std::exception& e) {
    pass.attempted = pass.failed = meta.streamed - window;
    pass.check_failures.push_back(std::string("run threw: ") + e.what());
    return pass;
  }
  const uint64_t run_end = NowNs();
  const CounterSnapshot after = CounterSnapshot::Take();
  const size_t timed_slices = meta.streamed - window;
  pass.attempted = timed_slices;

  if (timed[0] != nullptr) {
    uint64_t first_step = timed[0]->first_step_ns();
    for (size_t m = 0; m < kNumMethods; ++m) {
      first_step = std::min(first_step, timed[m]->first_step_ns());
    }
    pass.setup_s = 1e-9 * static_cast<double>(first_step - t_setup);
    pass.init_s = 1e-9 * static_cast<double>(timed[0]->init_ns());
    // Per-call logs: method m's call k steps slice k (no baseline has an
    // init window), SOFIA's call k steps slice window + k.
    const std::vector<uint64_t>& sofia_starts = timed[0]->starts();
    for (size_t k = 0; k < timed_slices; ++k) {
      const uint64_t begin = sofia_starts[k];
      const uint64_t end =
          k + 1 < timed_slices ? sofia_starts[k + 1] : run_end;
      const double slice_ns = static_cast<double>(end - begin);
      double methods_ns = 0.0;
      for (size_t m = 0; m < kNumMethods; ++m) {
        const size_t call = m == 0 ? k : window + k;
        const double ns = static_cast<double>(timed[m]->durations()[call]);
        pass.method_step_us[m].push_back(1e-3 * ns);
        methods_ns += ns;
      }
      pass.latency_us.push_back(1e-3 * slice_ns);
      pass.overhead_us.push_back(1e-3 * (slice_ns - methods_ns));
      pass.slice_ns += slice_ns;
      pass.covered_ns += methods_ns;
      pass.entries += stream.masks[window + k].CountObserved();
    }
    pass.core_step_us = pass.method_step_us[0];
  }
  // Ingest (pattern builds, truth gathers) and scoring run inside the
  // runtime; their registry stage timers cover every slice of the run.
  const double per_slice = 1.0 / static_cast<double>(meta.streamed);
  pass.pattern_us.push_back((after.ingest_us - before.ingest_us) * per_slice);
  pass.gather_us.push_back((after.score_us - before.score_us) * per_slice);
  pass.covered_ns += 1e3 * (after.ingest_us - before.ingest_us +
                            after.score_us - before.score_us) *
                     static_cast<double>(timed_slices) * per_slice;
  pass.batches = after.batches - before.batches;
  pass.nnz = after.nnz - before.nnz;
  pass.flops = after.flops - before.flops;
  pass.pattern_builds = after.pattern_builds - before.pattern_builds;

  for (size_t m = 0; m < results.size(); ++m) {
    const sofia::StreamRunResult& run = results[m].run;
    if (run.missing_nre.size() != meta.streamed ||
        run.observed_nre.size() != meta.streamed) {
      pass.check_failures.push_back(results[m].name + ": wrong NRE count");
      return pass;
    }
    Fold(&pass.digest, run.observed_nre);
    Fold(&pass.digest, run.missing_nre);
    const std::vector<double> held(run.missing_nre.begin() + window,
                                   run.missing_nre.end());
    pass.method_rae.emplace_back(results[m].name, Mean(held));
  }
  for (size_t k = 0; k < timed_slices; ++k) {
    bool finite = true;
    for (const sofia::MethodRunResult& r : results) {
      finite = finite && std::isfinite(r.run.missing_nre[window + k]) &&
               std::isfinite(r.run.observed_nre[window + k]);
    }
    if (!finite) ++pass.failed;
  }
  if (pass.failed > 0) pass.check_failures.push_back("non-finite scores");
  pass.rae = pass.method_rae.empty() ? 0.0 : pass.method_rae[0].second;
  std::vector<double> first;
  pass.afe = ScoreForecast(*methods[0], in, meta, &pass, &first);
  return pass;
}

// ---------------------------------------------------------------------------
// Reporting.

std::vector<double> Pooled(const std::vector<const Pass*>& passes,
                           std::vector<double> Pass::*field) {
  std::vector<double> out;
  for (const Pass* p : passes) {
    out.insert(out.end(), (p->*field).begin(), (p->*field).end());
  }
  return out;
}

double MedianOf(const std::vector<const Pass*>& passes, double Pass::*field) {
  std::vector<double> v;
  for (const Pass* p : passes) v.push_back(p->*field);
  return Median(v);
}

double SumOf(const std::vector<const Pass*>& passes, double Pass::*field) {
  double s = 0.0;
  for (const Pass* p : passes) s += p->*field;
  return s;
}

struct Metric {
  std::string name, unit;
  double value;
};

double MinOf(const std::vector<const Pass*>& passes, double Pass::*field) {
  double best = passes[0]->*field;
  for (const Pass* p : passes) best = std::min(best, p->*field);
  return best;
}

/// Slice-latency percentile `q` of a run, over each slice's fastest replay.
/// Every pass replays the same slices with the same results, so slice k's
/// minimum over the passes is its cost without the shared host's slow
/// phases (about 1.5x, lasting 0.5-5 s, on any pinned CPU), which would
/// otherwise decide the run's figure by how much of the run they cover.
/// Each pass times >= 1000 slices, so the p99 has >= 10 samples beyond it.
/// Passes of unequal length (one stopped at a failure) are pooled instead.
double LatencyPercentile(const std::vector<const Pass*>& passes, double q) {
  std::vector<double> best = passes[0]->latency_us;
  for (const Pass* p : passes) {
    if (p->latency_us.size() != best.size()) {
      return Percentile(Pooled(passes, &Pass::latency_us), q);
    }
    for (size_t k = 0; k < best.size(); ++k) {
      best[k] = std::min(best[k], p->latency_us[k]);
    }
  }
  return Percentile(best, q);
}

/// Every end-to-end figure; BENCHMARK.json says which ones are gated.
std::vector<Metric> EndToEnd(const std::vector<const Pass*>& passes,
                             size_t attempted, size_t failed) {
  std::vector<double> rates;  // Observed entries per second of slice time.
  for (const Pass* p : passes) {
    if (p->slice_ns > 0.0) rates.push_back(1e9 * p->entries / p->slice_ns);
  }
  return {
      // The fastest of the run's set-ups, for the same reason.
      {"setup_s", "s", MinOf(passes, &Pass::setup_s)},
      {"slice_p50_us", "us", LatencyPercentile(passes, 50.0)},
      {"slice_p90_us", "us", LatencyPercentile(passes, 90.0)},
      {"slice_p99_us", "us", LatencyPercentile(passes, 99.0)},
      {"entries_per_s", "1/s", Median(rates)},
      {"rae", "ratio", passes[0]->rae},
      {"afe", "ratio", passes[0]->afe},
      {"failed_frac", "ratio",
       attempted > 0 ? static_cast<double>(failed) / attempted : 0.0},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
}

std::vector<Metric> PerLayer(const std::vector<const Pass*>& traced,
                             const std::vector<const Pass*>& untraced) {
  const double slice_ns = SumOf(traced, &Pass::slice_ns);
  const auto share = [&](double ns) {
    return slice_ns > 0.0 ? 100.0 * ns / slice_ns : 0.0;
  };
  const std::vector<double> sofia_steps = Pooled(traced, &Pass::core_step_us);
  const double sofia_p50 = Percentile(sofia_steps, 50.0);
  const double timed_slices =
      static_cast<double>(Pooled(traced, &Pass::latency_us).size());
  const double per_pass_slices = timed_slices / traced.size();
  const double traced_p50 =
      Percentile(Pooled(traced, &Pass::latency_us), 50.0);
  const double untraced_p50 =
      Percentile(Pooled(untraced, &Pass::latency_us), 50.0);
  const double slice_p50 = traced_p50 > 0.0 ? traced_p50 : 1.0;

  std::vector<Metric> out = {
      {"data.open_s", "s", MedianOf(traced, &Pass::open_s)},
      {"data.decode_us", "us",
       Percentile(Pooled(traced, &Pass::decode_us), 50.0)},
      {"tensor.pattern_us", "us",
       Percentile(Pooled(traced, &Pass::pattern_us), 50.0)},
      {"core.init_s", "s", MedianOf(traced, &Pass::init_s)},
      {"core.step_us", "us", sofia_p50},
      {"core.forecast_us", "us", MedianOf(traced, &Pass::forecast_us)},
      {"eval.gather_us", "us",
       Percentile(Pooled(traced, &Pass::gather_us), 50.0)},
      {"eval.pipeline_overhead_us", "us",
       Percentile(Pooled(traced, &Pass::overhead_us), 50.0)},
  };
  for (size_t m = 1; m < kNumMethods; ++m) {
    std::vector<double> steps;
    for (const Pass* p : traced) {
      steps.insert(steps.end(), p->method_step_us[m].begin(),
                   p->method_step_us[m].end());
    }
    out.push_back({std::string("fig5.") + kMethodKeys[m] + "_over_sofia", "x",
                   sofia_p50 > 0.0 ? Percentile(steps, 50.0) / sofia_p50
                                   : 0.0});
  }
  const double n = static_cast<double>(traced.size());
  out.insert(
      out.end(),
      {
          {"eval.guard_pct", "%", share(SumOf(traced, &Pass::guard_ns))},
          {"eval.checkpoint_pct", "%",
           share(SumOf(traced, &Pass::checkpoint_ns))},
          {"eval.durable_pct", "%", share(SumOf(traced, &Pass::durable_ns))},
          {"eval.snapshot_pct", "%", share(SumOf(traced, &Pass::snapshot_ns))},
          {"durable.recover_slices", "slices",
           1e3 * MedianOf(traced, &Pass::recover_ms) / slice_p50},
          {"guard.trips", "count", SumOf(traced, &Pass::trips) / n},
          {"guard.health_trips", "count",
           SumOf(traced, &Pass::health_trips) / n},
          {"guard.rollbacks", "count", SumOf(traced, &Pass::rollbacks) / n},
          {"durable.journal_bytes", "bytes",
           SumOf(traced, &Pass::journal_bytes) / n},
          {"durable.snapshots", "count", SumOf(traced, &Pass::snapshots) / n},
          {"executor.batches_per_slice", "count",
           SumOf(traced, &Pass::batches) / n / per_pass_slices},
          {"kernel.nnz_per_slice", "count",
           SumOf(traced, &Pass::nnz) / n / per_pass_slices},
          {"kernel.flops_per_slice", "count",
           SumOf(traced, &Pass::flops) / n / per_pass_slices},
          {"pipeline.pattern_builds", "count",
           SumOf(traced, &Pass::pattern_builds) / n},
          {"trace.span_cover_pct", "%",
           share(SumOf(traced, &Pass::covered_ns))},
          {"trace.slice_p50_us", "us", traced_p50},
          {"trace.overhead_pct", "%",
           untraced_p50 > 0.0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0)
                              : 0.0},
      });
  return out;
}

void PrintMachineBlock(const Meta& meta) {
  const sofia::SofiaConfig sofia_defaults;
  const sofia::StreamEvalOptions pipeline_defaults;
  std::printf("{\n");
  sofia::bench::WriteMachineBlock(stdout);
  std::printf(
      "  \"defaults\": {\n    \"nproc\": %u,\n    \"sofia_workers\": %zu,\n"
      "    \"pattern_storage\": \"%s\",\n    \"pipeline_workers\": %zu,\n"
      "    \"pipeline_depth\": %zu,\n    \"pipeline_window\": %zu,\n"
      "    \"max_eval_entries\": %zu\n  },\n",
      std::thread::hardware_concurrency(),
      sofia::ResolveNumThreads(sofia_defaults.num_threads),
      sofia::PatternStorageName(sofia_defaults.pattern_storage).c_str(),
      sofia::ResolveNumThreads(pipeline_defaults.workers != 0
                                   ? pipeline_defaults.workers
                                   : pipeline_defaults.num_threads),
      pipeline_defaults.pipeline_depth, pipeline_defaults.window,
      pipeline_defaults.max_eval_entries);
  std::printf(
      "  \"workload\": {\"name\": \"%s\", \"seed\": %llu, \"slice\": "
      "\"%zux%zu\", \"streamed\": %zu, \"horizon\": %zu, "
      "\"garbage_slices\": %zu, \"loop\": \"closed\", \"clients\": 1, "
      "\"sofia_workers\": %zu}\n}\n",
      meta.workload.c_str(), static_cast<unsigned long long>(meta.seed),
      meta.rows, meta.cols, meta.streamed, meta.horizon, meta.garbage_slices,
      kSofiaWorkers);
}

int Run(const RunOptions& opts) {
  Meta meta;
  if (!ReadMeta(opts.dir + "/meta.txt", &meta) ||
      meta.workload != opts.workload) {
    std::fprintf(stderr, "missing or mismatched %s/meta.txt\n",
                 opts.dir.c_str());
    return 2;
  }
  PrintMachineBlock(meta);
  std::fflush(stdout);

  std::vector<Pass> passes;
  const uint64_t start = NowNs();
  const bool compare = meta.workload == "compare-nine";
  while (passes.size() < kMinPasses ||
         1e-9 * static_cast<double>(NowNs() - start) < opts.seconds) {
    const bool traced = opts.trace && !passes.empty();
    if (traced && !sofia::obs::TraceActive()) {
      sofia::obs::TraceOptions trace_options;
      trace_options.capacity = size_t{1} << 18;
      sofia::obs::TraceStart(trace_options);
    }
    passes.push_back(compare ? RunComparePass(opts, meta)
                             : RunSinglePass(opts, meta, passes.size()));
    passes.back().traced = traced;
    if (!passes.back().check_failures.empty()) break;
  }
  if (sofia::obs::TraceActive()) {
    sofia::obs::TraceStopAndWrite(opts.dir + "/trace.json");
  }

  // Output checks: every pass reproduces the first bit for bit.
  std::vector<std::string> failures;
  size_t attempted = 0, failed = 0;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    failures.insert(failures.end(), p.check_failures.begin(),
                    p.check_failures.end());
    if (p.digest != passes[0].digest) {
      failures.push_back("a pass's results differ from the first pass's");
    }
  }
  std::printf("{\"digest\": \"%016llx\", \"passes\": %zu, \"rae\": {",
              static_cast<unsigned long long>(passes[0].digest),
              passes.size());
  for (size_t m = 0; m < passes[0].method_rae.size(); ++m) {
    std::printf("%s\"%s\": %.17g", m ? ", " : "",
                passes[0].method_rae[m].first.c_str(),
                passes[0].method_rae[m].second);
  }
  std::printf("}, \"afe\": %.17g", passes[0].afe);
  // Per-pass figures, to see the spread inside one run.
  const char* const labels[] = {"pass_setup_s", "pass_p50_us", "pass_p99_us"};
  for (int k = 0; k < 3; ++k) {
    std::printf(", \"%s\": [", labels[k]);
    for (size_t p = 0; p < passes.size(); ++p) {
      const double v = k == 0 ? passes[p].setup_s
                              : Percentile(passes[p].latency_us,
                                           k == 1 ? 50.0 : 99.0);
      std::printf("%s%.6g", p ? ", " : "", v);
    }
    std::printf("]");
  }
  std::printf(", \"checks\": [");
  for (size_t k = 0; k < failures.size(); ++k) {
    std::printf("%s\"%s\"", k ? ", " : "", failures[k].c_str());
  }
  std::printf("]}\n");

  std::vector<const Pass*> traced, untraced;
  for (const Pass& p : passes) (p.traced ? traced : untraced).push_back(&p);
  const std::vector<Metric> metrics =
      opts.trace ? PerLayer(traced.empty() ? untraced : traced, untraced)
                 : EndToEnd(untraced, attempted, failed);
  const bool correct = failures.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", std::max<size_t>(attempted, 1),
              failed);
  for (size_t k = 0; k < metrics.size(); ++k) {
    const double v = std::isfinite(metrics[k].value) ? metrics[k].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k ? ", " : "", metrics[k].name.c_str(), v,
                metrics[k].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|run --workload=W ...\n");
    return 2;
  }
  const std::string command = argv[1];
  sofia::Flags flags(argc - 1, argv + 1);
  const std::string workload = flags.GetString("workload", "");
  const std::string dir = flags.GetString("dir", "");
  if (!perfbench::IsWorkload(workload) || dir.empty()) {
    std::fprintf(stderr, "unknown workload '%s' or no --dir\n",
                 workload.c_str());
    return 2;
  }
  if (command == "gen") {
    return perfbench::Generate(
               workload, static_cast<uint64_t>(flags.GetInt("seed", 1)),
               flags.GetBool("quick", false), dir)
               ? 0
               : 2;
  }
  if (command == "run") {
    perfbench::RunOptions opts;
    opts.workload = workload;
    opts.dir = dir;
    opts.seconds = flags.GetDouble("seconds", 10.0);
    opts.trace = flags.GetBool("trace", false);
    opts.decorators = flags.GetBool("decorators", true);
    return perfbench::Run(opts);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
