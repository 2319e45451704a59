#ifndef SOFIA_EVAL_RUN_HELPERS_H_
#define SOFIA_EVAL_RUN_HELPERS_H_

#include <memory>
#include <vector>

#include "data/corruption.hpp"
#include "eval/stream_runner.hpp"
#include "eval/streaming_method.hpp"
#include "tensor/coo_list.hpp"
#include "util/parallel.hpp"

/// \file run_helpers.hpp
/// \brief Internals of the eval protocols, defined in stream_runner.cpp and
/// used by it and by stream_pipeline.cpp: init-window handling, metric
/// finalization, eval pattern sampling, and per-step scoring. Include from
/// .cpp files only.

namespace sofia {
namespace eval_detail {

/// Init-window phase of the imputation protocol: feed the first
/// `window` slices to Initialize(), time it, and return the completions.
/// Empty when window == 0.
std::vector<DenseTensor> RunInitWindow(StreamingMethod* method,
                                       const CorruptedStream& stream,
                                       size_t window,
                                       StreamRunResult* result);

/// Aggregate metrics: RAE over everything, RAE excluding the init window,
/// mean per-step time.
void FinalizeRunMetrics(size_t window, StreamRunResult* result);

/// Copies a StreamGuard's trip/recovery counters into the run result (a
/// no-op for unguarded methods).
void AttachGuardTelemetry(const StreamingMethod* method,
                          StreamRunResult* result);

/// Held-out eval pattern derived from the observed pattern: the missing
/// entries, capped at `max_entries` by an evenly strided deterministic pick
/// (0 = no cap). O(|Ω| + picks) — never a dense index-space walk.
std::shared_ptr<const CooList> BuildEvalPattern(const CooList& observed,
                                                size_t max_entries);

/// Per-step estimate-gather scratch, reused across steps (one per method
/// when methods are scored on parallel lanes).
struct ScoreScratch {
  std::vector<double> est_observed, est_missing;
};

/// Score one estimate handle at the observed + held-out patterns against
/// the pre-gathered truth values; appends the three NRE series entries.
/// Serial: the pipeline already scores its methods on parallel lanes.
void ScoreStep(const StepResult& estimate, const CooList& observed,
               const CooList& held_out,
               const std::vector<double>& truth_observed,
               const std::vector<double>& truth_missing,
               ScoreScratch* scratch, StreamRunResult* result);

}  // namespace eval_detail
}  // namespace sofia

#endif  // SOFIA_EVAL_RUN_HELPERS_H_
