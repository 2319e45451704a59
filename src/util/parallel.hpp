#ifndef SOFIA_UTIL_PARALLEL_H_
#define SOFIA_UTIL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file parallel.hpp
/// \brief Worker-pool abstraction for the sparse kernel layer.
///
/// The sparse kernels (see tensor/sparse_kernels.hpp) split work into tasks
/// that write *disjoint* state keyed by task index (mode slices, fixed-size
/// record blocks, CSF root slabs). Under that contract the results are
/// bitwise identical for every thread count and every task-to-thread
/// assignment, because only the mapping of tasks to threads — not the
/// per-task accumulation order — varies. Two pool implementations exploit
/// that freedom differently:
///
///  - ThreadPool (here): tasks are claimed dynamically from a shared
///    counter — best load balance for irregular one-shot batches;
///  - ShardExecutor (util/shard_executor.hpp): tasks are assigned by a
///    static contiguous partition that is identical on every Run — each
///    worker re-touches the same task range (CSF root slabs) step after
///    step, keeping its private-cache working set warm across a stream.

namespace sofia {

class ScratchArena;

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

  /// Reusable caller-side scratch storage, or nullptr when this pool offers
  /// none (kernels then fall back to call-local vectors). Pools that return
  /// an arena (ShardExecutor) make the kernels' blocked-reduction scratch
  /// allocation-free in steady state: slot-keyed buffers grow monotonically
  /// and are reused across calls and steps.
  virtual ScratchArena* arena() { return nullptr; }
};

/// Fixed-size pool of worker threads executing indexed task batches with
/// dynamic task claiming: tasks are taken from a shared atomic counter, so
/// the task-to-thread assignment varies call to call (the results do not —
/// see the file comment). The calling thread participates; a pool
/// constructed with `num_threads = 1` spawns no workers and runs serially.
class ThreadPool : public WorkerPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const override { return workers_.size() + 1; }

  void Run(size_t num_tasks, const std::function<void(size_t)>& fn) override;

 private:
  void WorkerLoop();
  /// Claim and run tasks from the current batch until the counter runs out.
  void DrainTasks();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  bool stop_ = false;
  size_t generation_ = 0;        // Bumped once per Run() batch.
  size_t num_tasks_ = 0;
  const std::function<void(size_t)>* fn_ = nullptr;
  std::atomic<size_t> next_task_{0};
  size_t busy_workers_ = 0;
};

/// One-shot convenience: run fn(0) .. fn(num_tasks - 1) on a lazily
/// constructed, process-local cached pool of `ResolveNumThreads(num_threads)`
/// threads. Serial (no pool touched) when a single thread is requested or
/// there is at most one task.
///
/// The pool behind a given thread count is built on first use and cached
/// for the life of the process — the previous implementation spawned (and
/// joined) a fresh ephemeral pool of OS threads on *every call*, which
/// dominated small-batch kernels whenever no long-lived pool had been
/// adopted. Distinct thread counts cache distinct pools; a caller that
/// finds its cached pool busy (a concurrent ParallelFor of the same size on
/// another thread) runs the batch serially instead of blocking — bitwise
/// identical either way, per the task-ownership contract.
void ParallelFor(size_t num_threads, size_t num_tasks,
                 const std::function<void(size_t)>& fn);

/// Run a task batch on `pool` if one is supplied, otherwise fall back to
/// ParallelFor's cached process-local pool with `num_threads`. Lets kernels
/// accept an optional long-lived pool without duplicating the dispatch at
/// every call site.
void RunTasks(WorkerPool* pool, size_t num_threads, size_t num_tasks,
              const std::function<void(size_t)>& fn);

/// Batches that any pool in the process handed to worker threads from
/// inside a task of another batch: nested parallelism. Cumulative; the
/// streaming pipeline's method lanes run their methods' kernels inline, so
/// a run through it must not move this count (tests pin the delta).
uint64_t NestedHandOffs();

namespace pool_detail {

/// Marks the calling thread as running tasks of a batch for the scope's
/// lifetime. Every pool puts one around each thread's share of a batch.
class InBatchScope {
 public:
  InBatchScope();
  ~InBatchScope();
  InBatchScope(const InBatchScope&) = delete;
  InBatchScope& operator=(const InBatchScope&) = delete;

  /// False when the thread was already inside a batch (a nested Run).
  bool outermost() const { return outermost_; }

 private:
  bool outermost_;
};

/// Called by a pool's Run just before it hands a batch to worker threads;
/// counts toward NestedHandOffs() when the caller is inside a batch.
void NoteHandOff();

}  // namespace pool_detail

}  // namespace sofia

#endif  // SOFIA_UTIL_PARALLEL_H_
