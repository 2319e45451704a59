#include "eval/stream_pipeline.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <utility>

#include "baselines/observed_sweep.hpp"
#include "eval/run_helpers.hpp"
#include "obs/obs.hpp"
#include "tensor/csf_tensor.hpp"
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
/// stall + compute must account for time.pipeline.wall_us, where compute is
/// the driver's time in each slice's lane batch (tools/obs_report pins the
/// sum). Two stages run off the driver and overlap it, so they are reported
/// but not part of that identity: ingest_async (the aux lane) and score
/// (summed over the lanes, which score their own methods).
struct PipelineMetrics {
  obs::Counter* init_us;
  obs::Counter* ingest_us;
  obs::Counter* ingest_async_us;
  obs::Counter* stall_us;
  obs::Counter* compute_us;
  obs::Counter* score_us;
  obs::Counter* wall_us;
  obs::Counter* steps;
  obs::Counter* windows;
  obs::Counter* pattern_builds;
  obs::Counter* pattern_reuses;
  obs::Histogram* step_latency_us;
  obs::Gauge* arena_growth;
};

PipelineMetrics& Metrics() {
  obs::Registry& r = obs::Registry::Global();
  static PipelineMetrics m{
      r.FindOrCreateCounter("time.pipeline.init_us"),
      r.FindOrCreateCounter("time.pipeline.ingest_us"),
      r.FindOrCreateCounter("time.pipeline.ingest_async_us"),
      r.FindOrCreateCounter("time.pipeline.stall_us"),
      r.FindOrCreateCounter("time.pipeline.compute_us"),
      r.FindOrCreateCounter("time.pipeline.score_us"),
      r.FindOrCreateCounter("time.pipeline.wall_us"),
      r.FindOrCreateCounter("pipeline.steps"),
      r.FindOrCreateCounter("pipeline.windows"),
      r.FindOrCreateCounter("pipeline.pattern_builds"),
      r.FindOrCreateCounter("pipeline.pattern_reuses"),
      r.FindOrCreateHistogram("pipeline.step_latency_us"),
      r.FindOrCreateGauge("pipeline.arena_growth_events"),
  };
  return m;
}

}  // namespace

StreamPipeline::StreamPipeline(const CorruptedStream& stream,
                               const std::vector<DenseTensor>& truth,
                               StreamEvalOptions options)
    : stream_(stream), truth_(truth), options_(std::move(options)) {
  SOFIA_CHECK_EQ(stream_.slices.size(), truth_.size());
  if (options_.pipeline_depth == 0) options_.pipeline_depth = 1;
  if (options_.window == 0) options_.window = 1;
  workers_ = ResolveNumThreads(
      options_.workers != 0 ? options_.workers : options_.num_threads);
  ring_.resize(options_.pipeline_depth);
  for (std::vector<SliceIngest>& slot : ring_) slot.resize(options_.window);
  tickets_.assign(options_.pipeline_depth, 0);
}

StreamPipeline::~StreamPipeline() {
  // executor_ is declared last, so it is destroyed first — its destructor
  // drains the aux lane while the ring and cache it references still exist.
}

size_t StreamPipeline::NumWindows(size_t limit) const {
  return (limit + options_.window - 1) / options_.window;
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

uint64_t StreamPipeline::LaneArenaGrowth() const {
  uint64_t growth = 0;
  for (const auto& pool : method_pools_) {
    growth += pool->arena()->growth_events();
  }
  return growth;
}

void StreamPipeline::IngestWindow(size_t w, size_t limit) {
  Stopwatch timer;
  std::vector<SliceIngest>& slot = ring_[w % ring_.size()];
  const size_t begin = w * options_.window;
  const size_t end = std::min(begin + options_.window, limit);
  for (size_t t = begin; t < end; ++t) {
    SliceIngest& ingest = slot[t - begin];
    const Mask& omega = stream_.masks[t];
    if (!cache_mask_.valid() || !cache_mask_.Matches(omega)) {
      std::shared_ptr<const CooList> previous = std::move(cache_pattern_);
      cache_pattern_ = MakeSharedPattern(omega);
      if (options_.pattern_storage == PatternStorage::kCsf) {
        // Attach once (every method adopts it), patching the previous
        // pattern's trees forward on low-churn mask changes instead of
        // recompiling from scratch.
        EnsureCsfDelta(*cache_pattern_, previous);
      }
      cache_eval_ = BuildEvalPattern(*cache_pattern_,
                                     options_.max_eval_entries);
      SparseMask next = SparseMask::FromCoo(*cache_pattern_);
      // Rebuild telemetry: how far did the mask actually move? (The first
      // build has no predecessor and logs no delta.)
      if (cache_mask_.valid()) {
        pattern_delta_sizes_.push_back(cache_mask_.DeltaSize(next));
      }
      cache_mask_ = std::move(next);
      ++pattern_builds_;
    } else {
      ++pattern_reuses_;
    }
    ingest.pattern = cache_pattern_;
    ingest.eval_pattern = cache_eval_;
    cache_pattern_->GatherInto(truth_[t], &ingest.truth_observed);
    cache_eval_->GatherInto(truth_[t], &ingest.truth_missing);
  }
  ++telemetry_.ingest_jobs;
  telemetry_.ingest_seconds += timer.ElapsedSeconds();
}

void StreamPipeline::SubmitIngest(size_t w, size_t limit) {
  tickets_[w % tickets_.size()] = executor_->Submit([this, w, limit] {
    obs::ObsSpan span("pipeline.ingest_async", Metrics().ingest_async_us, w,
                      "window");
    IngestWindow(w, limit);
  });
}

std::vector<MethodRunResult> StreamPipeline::Run(
    const std::vector<StreamingMethod*>& methods, size_t limit) {
  obs::ObsSpan run_span("pipeline.run", Metrics().wall_us);
  const size_t total =
      limit == 0 ? truth_.size() : std::min(limit, truth_.size());
  const size_t depth = options_.pipeline_depth;
  const size_t num_methods = methods.size();
  PrepareLanes(num_methods);

  // Fresh cache + telemetry per Run; the executor and the per-method pools
  // (and their warm arenas) persist across calls.
  cache_mask_ = SparseMask();
  cache_pattern_.reset();
  cache_eval_.reset();
  pattern_builds_ = 0;
  pattern_reuses_ = 0;
  pattern_delta_sizes_.clear();
  telemetry_ = PipelineTelemetry{};
  telemetry_.workers = executor_->num_threads();
  telemetry_.pipeline_depth = depth;
  telemetry_.window = options_.window;
  telemetry_.steps = total;
  const uint64_t arena_base = LaneArenaGrowth();
  // Pool m's arena growth once method m has taken its first step: the
  // warm-up the steady-state figure excludes.
  constexpr uint64_t kNotWarm = UINT64_MAX;
  std::vector<uint64_t> arena_warm(num_methods, kNotWarm);

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

  const size_t num_windows = NumWindows(total);
  if (depth > 1) {
    for (size_t w = 0; w < std::min(depth - 1, num_windows); ++w) {
      SubmitIngest(w, total);
    }
  }

  // Lane task m of slice t: step method m, then score it into out[m]. It
  // touches only method m's state, result, scratch and pool, plus the
  // slice's read-only ingest, so the lanes share nothing writable.
  const auto step_and_score = [&](size_t m, size_t t,
                                  const SliceIngest& ingest) {
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
      if (options_.force_dense) {
        estimate = StepResult::Dense(methods[m]->Step(
            stream_.slices[t], stream_.masks[t], ingest.pattern));
      } else {
        estimate = methods[m]->StepLazy(stream_.slices[t], stream_.masks[t],
                                        ingest.pattern);
      }
    }
    const double step_seconds = timer.ElapsedSeconds();
    run->step_seconds.push_back(step_seconds);
    Metrics().steps->Add(1);
    Metrics().step_latency_us->Observe(step_seconds * 1e6);
    if (arena_warm[m] == kNotWarm) {
      arena_warm[m] = method_pools_[m]->arena()->growth_events();
    }
    {
      obs::ObsSpan score_span("pipeline.score", Metrics().score_us, t,
                              "slice");
      ScoreStep(estimate, *ingest.pattern, *ingest.eval_pattern,
                ingest.truth_observed, ingest.truth_missing, &scratch[m],
                run);
    }
    obs::StatsTick();
  };

  for (size_t w = 0; w < num_windows; ++w) {
    Metrics().windows->Add(1);
    if (depth == 1) {
      obs::ObsSpan ingest_span("pipeline.ingest", Metrics().ingest_us, w,
                               "window");
      IngestWindow(w, total);
    } else {
      Stopwatch stall;
      {
        obs::ObsSpan stall_span("pipeline.stall", Metrics().stall_us, w,
                                "window");
        executor_->Wait(tickets_[w % depth]);
      }
      telemetry_.ingest_stall_seconds += stall.ElapsedSeconds();
      // Keep the ring full: window w's slot frees up after this compute
      // pass; w + depth - 1 is the furthest window the ring can hold.
      if (w + depth - 1 < num_windows) SubmitIngest(w + depth - 1, total);
    }
    const std::vector<SliceIngest>& slot = ring_[w % ring_.size()];
    const size_t begin = w * options_.window;
    const size_t end = std::min(begin + options_.window, total);
    for (size_t t = begin; t < end; ++t) {
      const SliceIngest& ingest = slot[t - begin];
      {
        // One batch per slice, ending in a barrier: slice t is stepped and
        // scored by every method before any method sees slice t+1.
        obs::ObsSpan compute_span("pipeline.compute", Metrics().compute_us,
                                  t, "slice");
        executor_->Run(num_methods, [&](size_t m) {
          // A throw must not escape a lane thread; park it for the driver.
          try {
            step_and_score(m, t, ingest);
          } catch (...) {
            errors[m] = std::current_exception();
          }
        });
      }
      for (std::exception_ptr& error : errors) {
        if (error == nullptr) continue;
        executor_->DrainAux();
        std::rethrow_exception(error);
      }
    }
  }

  // Land every in-flight aux job (tail ingest prefetches on an early
  // limit, async guard checkpoints on the method pools) before reading
  // shared telemetry.
  {
    // Draining counts as stall: the driver is blocked on aux lanes.
    obs::ObsSpan drain_span("pipeline.drain", Metrics().stall_us);
    executor_->DrainAux();
    for (const auto& pool : method_pools_) pool->DrainAux();
  }
  const uint64_t arena_now = LaneArenaGrowth();
  telemetry_.arena_growth_total = arena_now - arena_base;
  telemetry_.arena_growth_steady = 0;
  for (size_t m = 0; m < num_methods; ++m) {
    if (arena_warm[m] == kNotWarm) continue;  // Never stepped this Run.
    telemetry_.arena_growth_steady +=
        method_pools_[m]->arena()->growth_events() - arena_warm[m];
  }

  // Mirror the per-run pattern/arena telemetry onto the registry (the
  // struct fields stay as the per-run compatibility view).
  Metrics().pattern_builds->Add(pattern_builds_);
  Metrics().pattern_reuses->Add(pattern_reuses_);
  Metrics().arena_growth->Set(static_cast<double>(arena_now));

  for (size_t m = 0; m < num_methods; ++m) {
    FinalizeRunMetrics(windows[m], &out[m].run);
    // The pattern cache and runtime are shared, so every method reports
    // the same rebuild + pipeline telemetry.
    out[m].run.pattern_builds = pattern_builds_;
    out[m].run.pattern_reuses = pattern_reuses_;
    out[m].run.pattern_delta_sizes = pattern_delta_sizes_;
    out[m].run.pipelined = true;
    out[m].run.pipeline = telemetry_;
    AttachGuardTelemetry(methods[m], &out[m].run);
    methods[m]->AdoptWorkerPool(nullptr);
  }
  return out;
}

std::vector<MethodRunResult> RunStreamPipeline(
    const std::vector<StreamingMethod*>& methods,
    const CorruptedStream& stream, const std::vector<DenseTensor>& truth,
    const StreamEvalOptions& options) {
  StreamPipeline pipeline(stream, truth, options);
  return pipeline.Run(methods);
}

}  // namespace sofia
