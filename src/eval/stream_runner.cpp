#include "eval/stream_runner.hpp"

#include <memory>
#include <utility>

#include "eval/metrics.hpp"
#include "eval/run_helpers.hpp"
#include "eval/stream_pipeline.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace sofia {

namespace eval_detail {

std::vector<DenseTensor> RunInitWindow(StreamingMethod* method,
                                       const CorruptedStream& stream,
                                       size_t window,
                                       StreamRunResult* result) {
  if (window == 0) return {};
  std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                       stream.slices.begin() + window);
  std::vector<Mask> init_masks(stream.masks.begin(),
                               stream.masks.begin() + window);
  Stopwatch init_timer;
  std::vector<DenseTensor> completed =
      method->Initialize(init_slices, init_masks);
  result->init_seconds = init_timer.ElapsedSeconds();
  SOFIA_CHECK_EQ(completed.size(), window);
  return completed;
}

void FinalizeRunMetrics(size_t window, StreamRunResult* result) {
  result->rae = Mean(result->nre);
  result->rae_post_init = Mean(std::vector<double>(
      result->nre.begin() + static_cast<long>(window), result->nre.end()));
  result->art_seconds = Mean(result->step_seconds);
  // Per-run latency percentiles from a private histogram (the registry's
  // pipeline.step_latency_us accumulates across methods and runs, so it
  // cannot serve per-run order statistics).
  obs::Histogram latency;
  for (const double seconds : result->step_seconds) {
    latency.Observe(seconds * 1e6);
  }
  result->step_latency_p50_us = latency.Percentile(50.0);
  result->step_latency_p99_us = latency.Percentile(99.0);
}

void AttachGuardTelemetry(const StreamingMethod* method,
                          StreamRunResult* result) {
  if (const auto* guard = dynamic_cast<const StreamGuard*>(method)) {
    result->guarded = true;
    result->guard = guard->telemetry();
  }
}

/// Missing entries are enumerated as the *gaps* between the observed
/// pattern's sorted records (the old dense-mask build was the last
/// O(volume) term of a mask-reuse step). Picks are missing-enumeration
/// positions 0, stride, 2·stride, … with a ceil stride, identical to the
/// dense walk it replaces. Bucket-less — only the gather kernels touch it.
std::shared_ptr<const CooList> BuildEvalPattern(const CooList& observed,
                                                size_t max_entries) {
  const size_t volume = observed.shape().NumElements();
  const size_t missing = volume - observed.nnz();
  std::vector<size_t> picks;
  if (missing > 0) {
    // Ceil stride so the picks span the full missing set (a floor stride
    // would cluster them at the low linear indices whenever max_entries <
    // missing < 2 * max_entries), at the cost of sometimes taking slightly
    // fewer than max_entries.
    const size_t stride = (max_entries == 0 || missing <= max_entries)
                              ? 1
                              : (missing + max_entries - 1) / max_entries;
    const size_t cap = stride == 1 ? missing : max_entries;
    picks.reserve(cap);
    size_t next = 0;    // Missing-enumeration position of the next pick.
    size_t seen = 0;    // Missing entries enumerated so far.
    size_t cursor = 0;  // Next linear index not yet classified.
    auto scan_gap = [&](size_t begin, size_t end) {
      const size_t len = end - begin;
      while (picks.size() < cap && next < seen + len) {
        picks.push_back(begin + (next - seen));
        next += stride;
      }
      seen += len;
    };
    for (size_t k = 0; k < observed.nnz() && picks.size() < cap; ++k) {
      const size_t obs = observed.LinearIndex(k);
      scan_gap(cursor, obs);
      cursor = obs + 1;
    }
    if (picks.size() < cap) scan_gap(cursor, volume);
  }
  return std::make_shared<const CooList>(CooList::FromIndices(
      observed.shape(), std::move(picks), /*with_mode_buckets=*/false));
}

void ScoreStep(const StepResult& estimate, const CooList& observed,
               const CooList& held_out,
               const std::vector<double>& truth_observed,
               const std::vector<double>& truth_missing,
               ScoreScratch* scratch, StreamRunResult* result) {
  estimate.GatherAtInto(observed, &scratch->est_observed);
  estimate.GatherAtInto(held_out, &scratch->est_missing);
  const GatheredError obs_err = AccumulateGatheredError(
      scratch->est_observed, truth_observed);
  const GatheredError miss_err = AccumulateGatheredError(
      scratch->est_missing, truth_missing);
  GatheredError total = obs_err;
  total += miss_err;
  result->observed_nre.push_back(GatheredNre(obs_err));
  result->missing_nre.push_back(GatheredNre(miss_err));
  result->nre.push_back(GatheredNre(total));
}

}  // namespace eval_detail

using eval_detail::BuildEvalPattern;

std::vector<MethodRunResult> RunImputationComparison(
    const std::vector<StreamingMethod*>& methods,
    const CorruptedStream& stream, const std::vector<DenseTensor>& truth,
    const StreamEvalOptions& options) {
  StreamPipeline pipeline(stream, truth, options);
  return pipeline.Run(methods);
}

double RunForecast(StreamingMethod* method, const CorruptedStream& stream,
                   const std::vector<DenseTensor>& truth, size_t horizon,
                   const StreamEvalOptions& options) {
  SOFIA_CHECK_EQ(stream.slices.size(), truth.size());
  SOFIA_CHECK_GE(horizon, 1u) << "a forecast needs a horizon";
  SOFIA_CHECK_LT(horizon, truth.size());
  SOFIA_CHECK(method->SupportsForecast())
      << method->name() << " cannot forecast";
  const size_t train = truth.size() - horizon;
  const size_t window = method->init_window();
  SOFIA_CHECK_LE(window, train);

  if (window > 0) {
    std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                         stream.slices.begin() + window);
    std::vector<Mask> init_masks(stream.masks.begin(),
                                 stream.masks.begin() + window);
    method->Initialize(init_slices, init_masks);
  }
  for (size_t t = window; t < train; ++t) {
    method->Observe(stream.slices[t], stream.masks[t]);
  }

  // Held-out scoring pattern: a deterministic ≤ max_eval_entries sample of
  // the slice index space, shared by every horizon (an all-observed
  // pattern's "missing" set is empty, so sample the complement of an empty
  // one — i.e. every entry, strided).
  const CooList nothing_observed = CooList::FromIndices(
      truth[train].shape(), {}, /*with_mode_buckets=*/false);
  std::shared_ptr<const CooList> eval_pattern =
      BuildEvalPattern(nothing_observed, options.max_eval_entries);

  std::vector<double> est, ref;
  double sum = 0.0;
  for (size_t h = 1; h <= horizon; ++h) {
    const DenseTensor& future = truth[train + h - 1];
    eval_pattern->GatherInto(future, &ref);
    method->ForecastLazy(h).GatherAtInto(*eval_pattern, &est);
    sum += GatheredNre(AccumulateGatheredError(est, ref));
  }
  return sum / static_cast<double>(horizon);
}

}  // namespace sofia
