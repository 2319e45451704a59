#ifndef SOFIA_EVAL_STREAM_RUNNER_H_
#define SOFIA_EVAL_STREAM_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/corruption.hpp"
#include "eval/stream_guard.hpp"
#include "eval/streaming_method.hpp"
#include "tensor/dense_tensor.hpp"

/// \file stream_runner.hpp
/// \brief Drives StreamingMethods through a corrupted stream and collects
/// the Section VI-A metrics (NRE series, RAE, ART, AFE).
///
/// Methods return lazy StepResult handles, and all scoring reads estimates
/// only at observed and held-out entries through CooList gathers: per step,
/// one shared pattern build per distinct mask is the only full-index-space
/// work anywhere in the loop, and no method's estimate is ever densified
/// (counter-verified in tests/step_result_test.cc). With max_eval_entries
/// = 0 the held-out set is every missing entry, so a step's NRE is the
/// full-volume NRE of the paper, up to summation order.

namespace sofia {

/// Knobs of the eval protocols.
struct StreamEvalOptions {
  /// Per-step cap on the *held-out* (missing) entries scored: when a step
  /// has more missing entries than this, an evenly strided deterministic
  /// subset of that size is scored instead (the OLSTEC-style sampled
  /// evaluation). 0 scores every missing entry.
  size_t max_eval_entries = 1024;
  /// Worker count of a comparison run when `workers` is 0 (0 = one per
  /// core): the methods of each slice are stepped and scored side by side
  /// on min(workers, methods) lanes. Results are bitwise identical for
  /// every setting.
  size_t num_threads = 0;
  /// Method lanes (0 = fall back to num_threads): each slice's methods run
  /// side by side on min(workers, methods) threads, the caller included,
  /// each method's kernels serially inside its lane. One method runs inline
  /// on the caller. Scores are bitwise identical for every setting
  /// (tests/stream_pipeline_test.cc).
  size_t workers = 0;

  /// Constants, not settings: each slice is ingested inline, one at a time,
  /// right before its lane batch. They remain because the repository
  /// benchmark (perfbench/) prints them among the library defaults.
  static constexpr size_t pipeline_depth = 1;
  static constexpr size_t window = 1;
};

/// What the pipeline did, beyond the per-method metrics (identical for
/// every method of a run).
struct PipelineTelemetry {
  size_t workers = 1;         ///< Method lanes: min(workers, methods).
  size_t steps = 0;           ///< Slices driven through the pipeline.
};

/// Per-run measurements.
struct StreamRunResult {
  /// NRE at every time step (incl. init) over the *scored* entry set:
  /// observed ∪ sampled-missing entries (every entry when
  /// max_eval_entries is 0).
  std::vector<double> nre;
  /// NRE restricted to the observed entries Ω_t, and to the held-out
  /// (sampled missing) entries — the imputation targets.
  std::vector<double> observed_nre;
  std::vector<double> missing_nre;
  double rae = 0.0;                  ///< Mean NRE over the whole stream.
  double rae_post_init = 0.0;        ///< Mean NRE excluding the init window.
  double art_seconds = 0.0;          ///< Mean per-step time, init excluded.
  double init_seconds = 0.0;         ///< Wall time of the init phase.
  std::vector<double> step_seconds;  ///< Per-step wall times (post-init).
  /// Step-latency order statistics over step_seconds, in microseconds,
  /// read from an obs::Histogram (log-linear buckets, <= 12.5% relative
  /// error). 0 when the run had no post-init steps or obs is disabled.
  double step_latency_p50_us = 0.0;
  double step_latency_p99_us = 0.0;

  // Pattern-rebuild telemetry of the comparison runner's shared per-mask
  // cache (identical for every method of a run — the cache is shared).
  // Steady-state streams (fixed sensor outages) show builds == 1 and
  // reuses == steps - 1.
  size_t pattern_builds = 0;   ///< Shared pattern compactions performed.
  size_t pattern_reuses = 0;   ///< Steps served by the cached pattern.

  // Fault-tolerance telemetry, populated when the method is a StreamGuard
  // wrapper. `guarded` distinguishes an unguarded run from a guarded run
  // that simply saw zero trips.
  bool guarded = false;
  GuardTelemetry guard;

  // Runtime telemetry (identical for every method of a run — the runtime
  // is shared).
  PipelineTelemetry pipeline;
};

/// Forecasting protocol (Fig. 6): feed all but the last `horizon` slices
/// (the training prefix advances via Observe()), then score each
/// ForecastLazy(h), h = 1..horizon, against the held-out truth at a
/// deterministic sample of <= max_eval_entries entries per slice, gathered
/// through one CooList shared by every horizon. Returns the AFE: the mean
/// of the per-horizon NREs. With max_eval_entries = 0 every entry is
/// scored, so the AFE is the mean full-volume NRE of the forecasts.
/// Requires 1 <= horizon < truth.size().
double RunForecast(StreamingMethod* method, const CorruptedStream& stream,
                   const std::vector<DenseTensor>& truth, size_t horizon,
                   const StreamEvalOptions& options);

/// One method's measurements within a comparison run.
struct MethodRunResult {
  std::string name;    ///< StreamingMethod::name() at run time.
  StreamRunResult run; ///< Same metrics as StreamRunResult above.
};

/// Imputation protocol (Figs. 3-5): every method consumes the same
/// corrupted stream, slice by slice, through a StreamPipeline:
///  - per distinct consecutive mask, the runner builds the observed-entry
///    CooList once and a held-out eval pattern (≤ max_eval_entries sampled
///    missing entries) once, and shares both across all methods — the only
///    O(volume) work in the loop;
///  - each method due a step returns a lazy StepResult via StepLazy(y,
///    omega, pattern), and is scored by gathering the estimate at the
///    observed and held-out patterns: per-step NRE over observed, held-out,
///    and their union, with zero full-volume reconstructions;
///  - the methods of each slice are stepped and scored side by side on
///    min(workers, methods) lanes, each method serially inside its lane
///    through its own single-thread pool;
///  - methods with an init window are initialized on their own window
///    prefix first; their init slices are scored from Initialize()'s
///    completions at the same entry sets.
/// The shared builds happen outside the per-method timers, so `art_seconds`
/// measures each method's own step cost.
std::vector<MethodRunResult> RunImputationComparison(
    const std::vector<StreamingMethod*>& methods,
    const CorruptedStream& stream, const std::vector<DenseTensor>& truth,
    const StreamEvalOptions& options = {});

}  // namespace sofia

#endif  // SOFIA_EVAL_STREAM_RUNNER_H_
