#include "eval/stream_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "baselines/observed_sweep.hpp"
#include "eval/run_helpers.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace sofia {

using eval_detail::AttachGuardTelemetry;
using eval_detail::BuildEvalPattern;
using eval_detail::FinalizeRunMetrics;
using eval_detail::RunInitWindow;
using eval_detail::ScoreScratch;
using eval_detail::ScoreStep;

namespace {

/// Registry handles for the pipeline stages, looked up once. The driver
/// stage counters partition the driver thread's wall clock: init + ingest +
/// compute must account for time.pipeline.wall_us, where compute is the
/// time in each slice's lane batch (tools/obs_report pins the sum). Score
/// runs inside the lanes, summed over them, so it is reported but not part
/// of that identity.
struct PipelineMetrics {
  obs::Counter* init_us;
  obs::Counter* ingest_us;
  obs::Counter* compute_us;
  obs::Counter* score_us;
  obs::Counter* wall_us;
  obs::Counter* steps;
  obs::Counter* pattern_builds;
  obs::Counter* pattern_reuses;
  obs::Histogram* step_latency_us;
};

PipelineMetrics& Metrics() {
  obs::Registry& r = obs::Registry::Global();
  static PipelineMetrics m{
      r.FindOrCreateCounter("time.pipeline.init_us"),
      r.FindOrCreateCounter("time.pipeline.ingest_us"),
      r.FindOrCreateCounter("time.pipeline.compute_us"),
      r.FindOrCreateCounter("time.pipeline.score_us"),
      r.FindOrCreateCounter("time.pipeline.wall_us"),
      r.FindOrCreateCounter("pipeline.steps"),
      r.FindOrCreateCounter("pipeline.pattern_builds"),
      r.FindOrCreateCounter("pipeline.pattern_reuses"),
      r.FindOrCreateHistogram("pipeline.step_latency_us"),
  };
  return m;
}

}  // namespace

StreamPipeline::StreamPipeline(const CorruptedStream& stream,
                               const std::vector<DenseTensor>& truth,
                               StreamEvalOptions options)
    : stream_(stream), truth_(truth), options_(std::move(options)) {
  SOFIA_CHECK_EQ(stream_.slices.size(), truth_.size());
  workers_ = ResolveNumThreads(
      options_.workers != 0 ? options_.workers : options_.num_threads);
}

void StreamPipeline::PrepareLanes(size_t num_methods) {
  // More lanes than methods would only wake workers with nothing to run;
  // one method runs inline on the caller.
  const size_t lanes = std::max<size_t>(1, std::min(workers_, num_methods));
  if (executor_ == nullptr || executor_->num_threads() != lanes) {
    executor_ = std::make_unique<ShardExecutor>(lanes);
  }
  while (method_pools_.size() < num_methods) {
    method_pools_.push_back(std::make_shared<ShardExecutor>(1));
  }
}

void StreamPipeline::Ingest(size_t t) {
  const Mask& omega = stream_.masks[t];
  if (cache_pattern_ == nullptr || !cache_pattern_->SameObservedSet(omega)) {
    cache_pattern_ = MakeSharedPattern(omega);
    cache_eval_ = BuildEvalPattern(*cache_pattern_, options_.max_eval_entries);
    ++pattern_builds_;
  } else {
    ++pattern_reuses_;
  }
  ingest_.pattern = cache_pattern_;
  ingest_.eval_pattern = cache_eval_;
  cache_pattern_->GatherInto(truth_[t], &ingest_.truth_observed);
  cache_eval_->GatherInto(truth_[t], &ingest_.truth_missing);
}

std::vector<MethodRunResult> StreamPipeline::Run(
    const std::vector<StreamingMethod*>& methods, size_t limit) {
  obs::ObsSpan run_span("pipeline.run", Metrics().wall_us);
  const size_t total =
      limit == 0 ? truth_.size() : std::min(limit, truth_.size());
  const size_t num_methods = methods.size();
  PrepareLanes(num_methods);

  // Fresh cache + telemetry per Run; the executor and the per-method pools
  // persist across calls.
  cache_pattern_.reset();
  cache_eval_.reset();
  pattern_builds_ = 0;
  pattern_reuses_ = 0;
  telemetry_ = PipelineTelemetry{};
  telemetry_.workers = executor_->num_threads();
  telemetry_.steps = total;

  std::vector<MethodRunResult> out(num_methods);
  std::vector<size_t> windows(num_methods, 0);
  std::vector<std::vector<DenseTensor>> completions(num_methods);
  std::vector<ScoreScratch> scratch(num_methods);
  std::vector<std::exception_ptr> errors(num_methods);
  {
    obs::ObsSpan init_span("pipeline.init", Metrics().init_us, num_methods,
                           "methods");
    for (size_t m = 0; m < num_methods; ++m) {
      StreamingMethod* method = methods[m];
      // Revoked (AdoptWorkerPool(nullptr)) before Run returns normally; a
      // method left holding its pool after a throw shares its ownership.
      method->AdoptWorkerPool(method_pools_[m]);
      out[m].name = method->name();
      const size_t window = method->init_window();
      SOFIA_CHECK_LE(window, total);
      windows[m] = window;
      out[m].run.nre.reserve(total);
      out[m].run.step_seconds.reserve(total - window);
      completions[m] = RunInitWindow(method, stream_, window, &out[m].run);
    }
  }

  // Lane task m of slice t: step method m, then score it into out[m]. It
  // touches only method m's state, result, scratch and pool, plus the
  // slice's read-only ingest, so the lanes share nothing writable.
  const SliceIngest& ingest = ingest_;
  const auto step_and_score = [&](size_t m, size_t t) {
    StreamRunResult* run = &out[m].run;
    if (t < windows[m]) {
      // Init-window slice: score the stored completion at the same entry
      // sets (Dense handles are not lazy materializations).
      StepResult completed = StepResult::Dense(std::move(completions[m][t]));
      obs::ObsSpan score_span("pipeline.score", Metrics().score_us, t,
                              "slice");
      ScoreStep(completed, *ingest.pattern, *ingest.eval_pattern,
                ingest.truth_observed, ingest.truth_missing, &scratch[m],
                run);
      return;
    }
    StepResult estimate;
    Stopwatch timer;
    {
      // The lane's step time is its busy time (executor.w<N>.busy_us);
      // this span only marks it on the lane's trace track.
      obs::ObsSpan step_span("pipeline.step.compute", nullptr, t, "slice");
      estimate = methods[m]->StepLazy(stream_.slices[t], stream_.masks[t],
                                      ingest.pattern);
    }
    const double step_seconds = timer.ElapsedSeconds();
    run->step_seconds.push_back(step_seconds);
    Metrics().steps->Add(1);
    Metrics().step_latency_us->Observe(step_seconds * 1e6);
    {
      obs::ObsSpan score_span("pipeline.score", Metrics().score_us, t,
                              "slice");
      ScoreStep(estimate, *ingest.pattern, *ingest.eval_pattern,
                ingest.truth_observed, ingest.truth_missing, &scratch[m],
                run);
    }
    obs::StatsTick();
  };

  for (size_t t = 0; t < total; ++t) {
    {
      obs::ObsSpan ingest_span("pipeline.ingest", Metrics().ingest_us, t,
                               "slice");
      Ingest(t);
    }
    {
      // One batch per slice, ending in a barrier: slice t is stepped and
      // scored by every method before any method sees slice t+1.
      obs::ObsSpan compute_span("pipeline.compute", Metrics().compute_us, t,
                                "slice");
      executor_->Run(num_methods, [&](size_t m) {
        // A throw must not escape a lane thread; park it for the caller.
        try {
          step_and_score(m, t);
        } catch (...) {
          errors[m] = std::current_exception();
        }
      });
    }
    for (std::exception_ptr& error : errors) {
      if (error != nullptr) std::rethrow_exception(error);
    }
  }

  // Mirror the per-run pattern telemetry onto the registry (the struct
  // fields stay as the per-run compatibility view).
  Metrics().pattern_builds->Add(pattern_builds_);
  Metrics().pattern_reuses->Add(pattern_reuses_);

  for (size_t m = 0; m < num_methods; ++m) {
    FinalizeRunMetrics(windows[m], &out[m].run);
    // The pattern cache and runtime are shared, so every method reports
    // the same rebuild + pipeline telemetry.
    out[m].run.pattern_builds = pattern_builds_;
    out[m].run.pattern_reuses = pattern_reuses_;
    out[m].run.pipeline = telemetry_;
    AttachGuardTelemetry(methods[m], &out[m].run);
    methods[m]->AdoptWorkerPool(nullptr);
  }
  return out;
}

}  // namespace sofia
