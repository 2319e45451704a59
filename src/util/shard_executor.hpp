#ifndef SOFIA_UTIL_SHARD_EXECUTOR_H_
#define SOFIA_UTIL_SHARD_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "util/parallel.hpp"

/// \file shard_executor.hpp
/// \brief The library's one worker pool: a persistent sharded runtime with
/// stable task ownership.
///
/// Every multi-thread kernel batch runs here (or inline, when a kernel is
/// handed no pool — util/parallel.hpp). The streaming step loop calls the
/// same kernels on the same CooList hundreds of times, so tasks are
/// assigned by a *static contiguous block partition* that depends only on
/// (num_tasks, num_threads): worker w always executes the same contiguous
/// task range. Because kernel tasks are keyed to mode slices and fixed-size
/// record blocks, each worker re-touches the same range of records across
/// an entire stream — its private-cache working set stays warm. Results
/// are bitwise identical to single-threaded execution at any worker count:
/// task outputs are disjoint and block partials are combined in block
/// order by the kernels themselves (tensor/sparse_kernels.cpp).
///
/// The streaming pipeline uses the same partition one level up: one task
/// per method per slice, so each lane steps a fixed contiguous range of
/// the methods (eval/stream_pipeline.hpp).
///
/// Hand-offs spin, then park: a worker that finished a batch, and a Run
/// caller waiting for its batch to finish, poll for up to 2 ms before
/// sleeping on a condition variable, so back-to-back batches do not pay a
/// thread wake-up each.

namespace sofia {

struct WorkerThread;

/// Persistent sharded executor. `ShardExecutor(n)` runs n-1 recycled worker
/// threads; the Run caller acts as worker 0 and owns the first task block.
///
/// Partition: with T tasks and W threads, worker w executes the contiguous
/// range [w*q + min(w, r), ...) of length q + (w < r), where q = T / W and
/// r = T % W — the same mapping on every Run with the same (T, W), which is
/// what makes slab ownership stable across stream steps.
class ShardExecutor : public WorkerPool {
 public:
  explicit ShardExecutor(size_t num_threads);
  ~ShardExecutor() override;

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  size_t num_threads() const override { return workers_.size() + 1; }

  /// Execute fn(0) .. fn(num_tasks - 1) under the static block partition;
  /// blocks until all tasks finish. Caller-driven, not reentrant. Worker w's
  /// wall time in a batch lands in `executor.w<w>.busy_us`; a Run issued
  /// from inside another batch's task (a method's own single-thread pool
  /// stepped on a pipeline lane) is already covered by that lane's busy
  /// time and does not count again.
  void Run(size_t num_tasks, const std::function<void(size_t)>& fn) override;

  /// The static partition, exposed for tests and for callers that shard
  /// data structures to match ownership: returns [begin, end) of worker w.
  static std::pair<size_t, size_t> OwnedRange(size_t num_tasks,
                                              size_t num_threads, size_t w);

  /// Total Run batches executed (tests pin ownership stability per batch).
  uint64_t runs() const { return runs_; }

 private:
  void WorkerLoop(size_t worker_index);
  void RunOwnedBlock(size_t w);

  std::vector<WorkerThread*> workers_;

  // Batch state (each worker's range is fixed by the partition, so there
  // is no claiming counter). All of it is written under mutex_; the three
  // atomics are also polled without the lock for a short while before a
  // thread parks, so back-to-back batches skip the condition-variable
  // wake-up.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> generation_{0};
  size_t num_tasks_ = 0;
  const std::function<void(size_t)>* fn_ = nullptr;
  std::atomic<size_t> busy_workers_{0};
  uint64_t runs_ = 0;
};

/// Batches that any executor in the process handed to worker threads from
/// inside a task of another batch: nested parallelism. Cumulative; the
/// streaming pipeline's method lanes run their methods' kernels inline, so
/// a run through it must not move this count (tests pin the delta).
uint64_t NestedHandOffs();

}  // namespace sofia

#endif  // SOFIA_UTIL_SHARD_EXECUTOR_H_
