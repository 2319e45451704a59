#ifndef SOFIA_EVAL_STREAM_RUNNER_H_
#define SOFIA_EVAL_STREAM_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/corruption.hpp"
#include "eval/stream_guard.hpp"
#include "eval/streaming_method.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/pattern_storage.hpp"

/// \file stream_runner.hpp
/// \brief Drives a StreamingMethod through a corrupted stream and collects
/// the Section VI-A metrics (NRE series, RAE, ART, AFE).
///
/// Two protocol generations coexist:
///  - RunImputation keeps the original dense protocol (materialize every
///    estimate, full-volume NRE) for the paper-figure benches.
///  - RunImputationComparison and the options-taking RunForecast are the
///    lazy pipeline: methods return StepResult handles, and all scoring
///    reads estimates only at observed and held-out entries through CooList
///    gathers — per step, one shared pattern build per distinct mask is the
///    only full-index-space work anywhere in the loop, and no method's
///    estimate is ever densified (counter-verified in
///    tests/step_result_test.cc).

namespace sofia {

/// Knobs of the lazy eval protocols.
struct StreamEvalOptions {
  /// Drive the materializing Step()/Forecast() wrappers and score from the
  /// dense estimates (gathered at the same entries). The scores are bitwise
  /// identical to the lazy path — this exists as the parity/benchmark
  /// reference, not as a better answer.
  bool force_dense = false;
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
  /// Storage backend broadcast to every method: kCsf compiles each shared
  /// per-step pattern into CSF fiber trees (once per distinct mask, outside
  /// the per-method timers) and attaches them to the shared CooList, so
  /// every adopting method's kernels walk the fiber-reuse backend. Scoring
  /// gathers stay on the COO records either way (they are bitwise-pinned
  /// to the dense materialization). Method outputs agree with the kCoo run
  /// to floating-point reassociation (≤1e-12, tests/csf_test.cc).
  PatternStorage pattern_storage = PatternStorage::kCoo;

  // Streaming-runtime knobs (eval/stream_pipeline.hpp). Scores are bitwise
  // identical for every (workers, pipeline_depth, window) combination —
  // these trade wall-clock shape only (tests/stream_pipeline_test.cc).
  /// Method lanes (0 = fall back to num_threads): each slice's methods run
  /// side by side on min(workers, methods) threads, the caller included,
  /// each method's kernels serially inside its lane. One method runs inline
  /// on the caller.
  size_t workers = 0;
  /// Ingest ring depth: 1 runs slice ingest (pattern compare/build,
  /// CSF delta, eval-pattern sampling, truth gathers) synchronously before
  /// each compute window; 2+ runs it on the executor's aux lane up to
  /// depth-1 windows ahead, overlapping window w+1's ingest with window w's
  /// solves.
  size_t pipeline_depth = 1;
  /// Slices ingested per batch (the windowed mode): one ingest job covers
  /// `window` consecutive slices, amortizing job dispatch and keeping the
  /// mask-reuse cache hot across the batch. Compute stays per-slice.
  size_t window = 1;
};

/// What the pipeline did, beyond the per-method metrics: knob echo,
/// ingest/compute overlap accounting, and the kernel-scratch allocation
/// watch (identical for every method of a run).
struct PipelineTelemetry {
  size_t workers = 1;         ///< Method lanes: min(workers, methods).
  size_t pipeline_depth = 1;  ///< Ingest ring depth (1 = synchronous).
  size_t window = 1;          ///< Slices per ingest batch.
  size_t steps = 0;           ///< Slices driven through the pipeline.
  size_t ingest_jobs = 0;     ///< Ingest batches executed.
  /// Summed wall time inside ingest batches (on the aux thread at depth
  /// >= 2). With overlap, most of it hides under compute:
  /// hidden fraction = 1 - ingest_stall_seconds / ingest_seconds.
  double ingest_seconds = 0.0;
  /// Main-thread time blocked waiting for a not-yet-ingested window.
  double ingest_stall_seconds = 0.0;
  /// ScratchArena growth events of the per-method pools, summed: over the
  /// whole run, and over the run excluding each method's first step. A
  /// steady-state stream (stable mask) holds arena_growth_steady == 0:
  /// every post-warm-up step runs allocation-free through the kernel
  /// scratch (test-pinned).
  uint64_t arena_growth_total = 0;
  uint64_t arena_growth_steady = 0;
};

/// Per-run measurements.
struct StreamRunResult {
  /// NRE at every time step (incl. init) over the *scored* entry set: for
  /// the dense protocol the full slice, for the lazy protocols observed ∪
  /// sampled-missing entries.
  std::vector<double> nre;
  /// Lazy protocols only: NRE restricted to the observed entries Ω_t, and
  /// to the held-out (sampled missing) entries — the imputation targets.
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
  // reuses == steps - 1; mask churn is no longer silent: every rebuild
  // after the first logs how far the mask actually moved.
  size_t pattern_builds = 0;   ///< Shared pattern compactions performed.
  size_t pattern_reuses = 0;   ///< Steps served by the cached pattern.
  /// |Ω_prev Δ Ω_new| of every rebuild after the first (one entry per
  /// rebuild) — the bitmap delta between the outgoing and incoming masks,
  /// computed by an O(|Ω_prev| + |Ω_new|) merge walk.
  std::vector<size_t> pattern_delta_sizes;

  // Fault-tolerance telemetry, populated when the method is a StreamGuard
  // wrapper. `guarded` distinguishes an unguarded run from a guarded run
  // that simply saw zero trips.
  bool guarded = false;
  GuardTelemetry guard;

  // Sharded-runtime telemetry, populated by the pipeline drivers
  // (identical for every method of a run — the runtime is shared).
  bool pipelined = false;
  PipelineTelemetry pipeline;
};

/// Imputation protocol (Figs. 3-5), dense generation: run `method` over the
/// corrupted stream, compare each materialized imputed slice against the
/// ground truth over the full volume. The init window (if any) is timed
/// separately and its slices are scored from Initialize()'s completions.
StreamRunResult RunImputation(StreamingMethod* method,
                              const CorruptedStream& stream,
                              const std::vector<DenseTensor>& truth);

/// Forecasting protocol (Fig. 6), dense generation: feed all but the last
/// `horizon` slices, then forecast h = 1..horizon and return the AFE
/// against the held-out ground truth over the full volume.
double RunForecast(StreamingMethod* method, const CorruptedStream& stream,
                   const std::vector<DenseTensor>& truth, size_t horizon);

/// Forecasting protocol, lazy generation: the training prefix advances via
/// Observe(), and each ForecastLazy(h) handle is scored against the held-out
/// truth only at a deterministic sample of ≤ max_eval_entries entries per
/// slice, gathered through one CooList shared by every horizon. With
/// force_dense the same entries are read from materialized forecasts — the
/// AFE is bitwise identical.
double RunForecast(StreamingMethod* method, const CorruptedStream& stream,
                   const std::vector<DenseTensor>& truth, size_t horizon,
                   const StreamEvalOptions& options);

/// One method's measurements within a comparison run.
struct MethodRunResult {
  std::string name;    ///< StreamingMethod::name() at run time.
  StreamRunResult run; ///< Same metrics as StreamRunResult above.
};

/// Multi-method imputation comparison — the lazy pipeline. Every method
/// consumes the same corrupted stream, slice by slice:
///  - per distinct consecutive mask, the runner builds the observed-entry
///    CooList once and a held-out eval pattern (≤ max_eval_entries sampled
///    missing entries) once, and shares both across all methods — the only
///    O(volume) work in the loop;
///  - each method due a step returns a lazy StepResult via StepLazy(y,
///    omega, pattern) (or a materialized estimate when force_dense), and is
///    scored by gathering the estimate at the observed and held-out
///    patterns: per-step NRE over observed, held-out, and their union, with
///    zero full-volume reconstructions on the lazy path;
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
