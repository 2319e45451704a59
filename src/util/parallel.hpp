#ifndef SOFIA_UTIL_PARALLEL_H_
#define SOFIA_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

/// \file parallel.hpp
/// \brief The pool seam of the sparse kernel layer.
///
/// The sparse kernels (see tensor/sparse_kernels.hpp) split work into tasks
/// that write *disjoint* state keyed by task index (mode slices, fixed-size
/// record blocks). Under that contract the results are
/// bitwise identical for every thread count and every task-to-thread
/// assignment, because only the mapping of tasks to threads — not the
/// per-task accumulation order — varies. A kernel runs its tasks on the
/// pool it is handed (ShardExecutor, util/shard_executor.hpp, is the one
/// implementation) or inline on the calling thread when it is handed none.
/// A pool lends threads and nothing else: each kernel call keeps its
/// scratch (block partials, padded factor rows) in vectors of its own.

namespace sofia {

/// Resolve a `num_threads` knob: 0 means "use the hardware concurrency",
/// anything else is clamped below by 1.
size_t ResolveNumThreads(size_t requested);

/// Abstract executor of indexed task batches — the seam every kernel and
/// every StreamingMethod::AdoptWorkerPool site is written against.
///
/// `Run(num_tasks, fn)` invokes `fn(task)` for every task in [0, num_tasks)
/// and blocks until all tasks finish. `fn` must not throw and must only
/// write state owned by its task index. Run is not reentrant: one batch at
/// a time per pool instance, driven from one thread.
class WorkerPool {
 public:
  virtual ~WorkerPool() = default;

  /// Total number of executing threads (workers + the caller of Run).
  virtual size_t num_threads() const = 0;

  /// Run fn(0) .. fn(num_tasks - 1), blocking until every task returns.
  virtual void Run(size_t num_tasks,
                   const std::function<void(size_t)>& fn) = 0;
};

/// Run fn(0) .. fn(num_tasks - 1) on `pool`, or inline on the calling
/// thread when `pool` is null.
void RunTasks(WorkerPool* pool, size_t num_tasks,
              const std::function<void(size_t)>& fn);

}  // namespace sofia

#endif  // SOFIA_UTIL_PARALLEL_H_
