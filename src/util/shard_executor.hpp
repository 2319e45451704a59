#ifndef SOFIA_UTIL_SHARD_EXECUTOR_H_
#define SOFIA_UTIL_SHARD_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
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
/// order by the kernels themselves (see tensor/sparse_kernels.cpp,
/// ReduceScratch).
///
/// The streaming pipeline uses the same partition one level up: one task
/// per method per slice, so each lane steps a fixed contiguous range of
/// the methods (eval/stream_pipeline.hpp).
///
/// On top of the sharded compute lane the executor adds:
///  - per-slot ScratchArena buffers, so kernels' blocked-reduction scratch
///    is allocation-free in steady state (growth is counter-pinned);
///  - an auxiliary lane: a dedicated background thread running FIFO jobs
///    (Submit/Wait tickets). The streaming pipeline uses it to overlap
///    slice t+1's ingest (pattern build) and StreamGuard's
///    checkpoint serialization with slice t's compute;
///  - spin-then-park hand-offs: a worker that finished a batch, and a Run
///    caller waiting for its batch to finish, poll for up to 2 ms before
///    sleeping on a condition variable, so back-to-back batches do not pay
///    a thread wake-up each.

namespace sofia {

/// Slot-keyed reusable scratch buffers. A slot identifies a *purpose*
/// (e.g. "MTTKRP slab partials"); the buffer behind each slot grows
/// monotonically and is reused across calls, so after warm-up a steady-state
/// stream step performs zero scratch allocations. `growth_events()` counts
/// every (re)allocation — tests pin it flat over steady-state windows.
///
/// Not thread-safe: each arena belongs to one thread (the executor keeps
/// one for the Run caller).
class ScratchArena {
 public:
  /// Buffer of at least `count` doubles behind `slot`, zero-filled on every
  /// call (kernels accumulate into scratch and expect zeros, exactly like
  /// the local vectors they replace).
  double* Doubles(size_t slot, size_t count);

  /// Same, but contents preserved (uninitialized where grown).
  double* RawDoubles(size_t slot, size_t count);

  uint64_t growth_events() const { return growth_events_; }

 private:
  std::vector<std::vector<double>> slots_;
  uint64_t growth_events_ = 0;
};

/// Well-known arena slots used by the kernel layer
/// (tensor/sparse_kernels.cpp). New users take slots beyond kFirstFreeSlot.
namespace arena_slots {
constexpr size_t kReducePartials = 0;  // Blocked-reduction partial sums.
constexpr size_t kReduceOnes = 1;      // All-ones weight vector.
constexpr size_t kFirstFreeSlot = 8;
}  // namespace arena_slots

/// Persistent sharded executor. `ShardExecutor(n)` spawns n-1 worker
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

  /// Caller-thread arena (worker 0 / the Run driver).
  ScratchArena* arena() override { return &caller_arena_; }

  /// The static partition, exposed for tests and for callers that shard
  /// data structures to match ownership: returns [begin, end) of worker w.
  static std::pair<size_t, size_t> OwnedRange(size_t num_tasks,
                                              size_t num_threads, size_t w);

  // --- Auxiliary lane -----------------------------------------------------

  /// Enqueue a background job on the aux thread (spawned lazily on first
  /// Submit). Jobs run FIFO, one at a time, concurrently with Run batches.
  /// Returns a ticket; Wait(ticket) blocks until that job has finished.
  uint64_t Submit(std::function<void()> job);

  /// Block until the job behind `ticket` (and all earlier jobs) completed.
  /// A ticket from before the last drain is already satisfied.
  void Wait(uint64_t ticket);

  /// Wait for every submitted job. Called by the destructor.
  void DrainAux();

  /// Total Run batches executed (tests pin ownership stability per batch).
  uint64_t runs() const { return runs_; }

 private:
  void WorkerLoop(size_t worker_index);
  void RunOwnedBlock(size_t w);
  void AuxLoop();

  std::vector<std::thread> workers_;
  ScratchArena caller_arena_;

  // Compute-lane batch state (each worker's range is fixed by the
  // partition, so there is no claiming counter). All of it is written
  // under mutex_; the three atomics are also polled
  // without the lock for a short while before a thread parks, so
  // back-to-back batches skip the condition-variable wake-up.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> generation_{0};
  size_t num_tasks_ = 0;
  const std::function<void(size_t)>* fn_ = nullptr;
  std::atomic<size_t> busy_workers_{0};
  uint64_t runs_ = 0;

  // Aux-lane state.
  std::mutex aux_mutex_;
  std::condition_variable aux_ready_;
  std::condition_variable aux_done_;
  std::thread aux_thread_;
  bool aux_started_ = false;
  bool aux_stop_ = false;
  std::deque<std::function<void()>> aux_queue_;
  uint64_t aux_submitted_ = 0;
  uint64_t aux_completed_ = 0;
};

/// Batches that any executor in the process handed to worker threads from
/// inside a task of another batch: nested parallelism. Cumulative; the
/// streaming pipeline's method lanes run their methods' kernels inline, so
/// a run through it must not move this count (tests pin the delta).
uint64_t NestedHandOffs();

}  // namespace sofia

#endif  // SOFIA_UTIL_SHARD_EXECUTOR_H_
