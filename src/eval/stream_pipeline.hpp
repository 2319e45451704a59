#ifndef SOFIA_EVAL_STREAM_PIPELINE_H_
#define SOFIA_EVAL_STREAM_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/corruption.hpp"
#include "eval/stream_runner.hpp"
#include "eval/streaming_method.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/sparse_mask.hpp"
#include "util/shard_executor.hpp"

/// \file stream_pipeline.hpp
/// \brief The method-parallel streaming runtime behind the comparison
/// protocol.
///
/// RunImputationComparison's loop interleaves three kinds of work per
/// slice: *ingest* (mask compare, shared CooList pattern build, held-out
/// eval-pattern sampling, truth gathers), *compute* (every method's
/// StepLazy), and *scoring* (estimate gathers + NRE). The StreamPipeline
/// runs them on a persistent ShardExecutor:
///
///  - Each slice is ingested on the calling thread, right before its
///    compute batch, into one reused SliceIngest. Ingest is a small share
///    of a slice, and the caller would only wait for it anyway.
///  - Each slice is one executor batch with one task per method: task m
///    steps method m and scores its estimate into that method's result.
///    The methods are independent within a step, so they run side by side
///    on min(workers, methods) lanes; which lane runs which method comes
///    from the executor's static partition of the task indices. The batch
///    ends in a barrier, so every method has been stepped and scored on
///    slice t before any method sees slice t+1.
///  - Inside a lane everything is serial: each method adopts its own
///    single-thread ShardExecutor for the run (an arena, no threads), so
///    its kernels and gathers never dispatch across lanes. At paper scale a
///    step is far too small to split one method's kernels across workers;
///    the parallelism is across the methods.
///  - Kernel reduction scratch comes from each method's pool arena; after
///    a method's first step a steady-state stream allocates nothing there
///    (PipelineTelemetry::arena_growth_steady pins zero).
///
/// Scores are bitwise identical for every worker count, and identical to a
/// sequential loop: a method's step and scoring run on one thread in the
/// same order whichever lane runs them, and the methods share only
/// read-only ingest data, so only wall-clock shape moves (pinned by
/// tests/stream_pipeline_test.cc).

namespace sofia {

/// Persistent runtime for one stream + truth pair. Owns the lane executor,
/// the per-method pools, and the shared pattern cache; Run() drives a set
/// of methods through the stream. Reusable: consecutive Run() calls share
/// the executor and the per-method pools (and their warm arenas), which is
/// how re-runs and mid-stream stops are tested.
class StreamPipeline {
 public:
  StreamPipeline(const CorruptedStream& stream,
                 const std::vector<DenseTensor>& truth,
                 StreamEvalOptions options = {});

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Drive `methods` through slices [0, limit) — limit 0 means the whole
  /// stream. Each call resets the pattern cache and telemetry (methods keep
  /// their own state; initialize/step semantics match
  /// RunImputationComparison exactly). An exception thrown by a method's
  /// step surfaces here, on the caller's thread, once the slice's batch has
  /// finished.
  std::vector<MethodRunResult> Run(
      const std::vector<StreamingMethod*>& methods, size_t limit = 0);

  /// The lane executor (one batch per slice), e.g. for batch counting in
  /// tests. Null until the first Run sizes it.
  ShardExecutor* executor() { return executor_.get(); }
  const PipelineTelemetry& telemetry() const { return telemetry_; }

 private:
  /// Everything compute needs about one ingested slice.
  struct SliceIngest {
    std::shared_ptr<const CooList> pattern;
    std::shared_ptr<const CooList> eval_pattern;
    std::vector<double> truth_observed;
    std::vector<double> truth_missing;
  };

  /// Ingest slice t into ingest_, advancing the pattern cache.
  void Ingest(size_t t);
  /// Sizes the lane executor to min(workers, num_methods) lanes and keeps
  /// one single-thread pool per method.
  void PrepareLanes(size_t num_methods);
  /// Growth events of every per-method pool arena, summed.
  uint64_t LaneArenaGrowth() const;

  const CorruptedStream& stream_;
  const std::vector<DenseTensor>& truth_;
  StreamEvalOptions options_;
  size_t workers_ = 1;  ///< Resolved worker count (upper bound on lanes).
  PipelineTelemetry telemetry_;

  // Pool m is adopted by method m for a Run: its kernels run inline on the
  // lane stepping it, with scratch from the pool's own arena. Persistent
  // across Runs so the arenas stay warm.
  std::vector<std::shared_ptr<ShardExecutor>> method_pools_;

  // The current slice's ingest, rewritten in place each slice (its vectors
  // keep their capacity, so a steady-state slice allocates nothing here).
  // Written by the calling thread between lane batches, read-only inside
  // them.
  SliceIngest ingest_;

  // Shared pattern cache, advanced only by ingest, on the calling thread.
  SparseMask cache_mask_;
  std::shared_ptr<const CooList> cache_pattern_;
  std::shared_ptr<const CooList> cache_eval_;
  size_t pattern_builds_ = 0;
  size_t pattern_reuses_ = 0;
  std::vector<size_t> pattern_delta_sizes_;

  // Lane executor: one task per method per slice.
  std::unique_ptr<ShardExecutor> executor_;
};

}  // namespace sofia

#endif  // SOFIA_EVAL_STREAM_PIPELINE_H_
