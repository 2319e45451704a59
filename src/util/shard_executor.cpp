#include "util/shard_executor.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/obs.hpp"

namespace sofia {

/// A worker thread that outlives its executor: ~ShardExecutor parks it, and
/// new executors take the last parked first, so worker w keeps the thread of
/// the last executor's worker w, and with it the malloc arena holding what
/// that thread freed. Pipeline after pipeline, a lane reuses its own memory.
struct WorkerThread {
  std::mutex mutex;
  std::condition_variable wake;
  std::function<void()> body;
  bool busy = false;  ///< body handed over and not yet returned.
};

namespace {

std::mutex g_parked_mutex;
std::vector<WorkerThread*>& Parked() {
  static auto* parked = new std::vector<WorkerThread*>;  // Never freed.
  return *parked;
}

void Serve(WorkerThread* self) {
  std::unique_lock<std::mutex> lock(self->mutex);
  for (;;) {
    self->wake.wait(lock, [&] { return self->busy; });
    lock.unlock();
    self->body();
    lock.lock();
    self->busy = false;
    self->wake.notify_all();
  }
}

/// Runs `body` on the last parked thread, or on a new one.
WorkerThread* StartWorker(std::function<void()> body) {
  std::unique_lock<std::mutex> parked(g_parked_mutex);
  WorkerThread* worker = Parked().empty() ? nullptr : Parked().back();
  if (worker != nullptr) Parked().pop_back();
  parked.unlock();
  if (worker == nullptr) std::thread(Serve, worker = new WorkerThread).detach();
  std::lock_guard<std::mutex> lock(worker->mutex);
  worker->body = std::move(body);
  worker->busy = true;
  worker->wake.notify_all();
  return worker;
}

/// Waits for the worker's body to return, then parks the worker.
void ParkWorker(WorkerThread* worker) {
  std::unique_lock<std::mutex> lock(worker->mutex);
  worker->wake.wait(lock, [&] { return !worker->busy; });
  std::lock_guard<std::mutex> parked(g_parked_mutex);
  Parked().push_back(worker);
}

/// How long a thread polls for the next hand-off (a worker for the next
/// batch, the caller for the end of its batch) before parking on a
/// condition variable. The streaming pipeline issues one batch per slice,
/// about a millisecond apart, and on a virtualized host a parked thread's
/// wake-up took 70 us at the median and 1-2 ms at p90 — most of a slice.
constexpr std::chrono::microseconds kSpinBudget(2000);
/// Polling uses the CPU's spin-wait hint, which leaves the core to the
/// threads still computing; polling with sched_yield instead slowed the
/// lanes' own method steps by up to 60%. A yield every kYieldEvery still
/// lets an oversubscribed machine run whatever else is runnable.
constexpr std::chrono::microseconds kYieldEvery(100);

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  for (int i = 0; i < 16; ++i) __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Polls `done` until it holds or kSpinBudget elapses.
template <typename Pred>
void SpinUntil(Pred done) {
  const auto start = std::chrono::steady_clock::now();
  auto next_yield = start + kYieldEvery;
  while (!done()) {
    const auto now = std::chrono::steady_clock::now();
    if (now - start >= kSpinBudget) return;
    if (now >= next_yield) {
      std::this_thread::yield();
      next_yield = now + kYieldEvery;
    } else {
      CpuRelax();
    }
  }
}

/// True while the calling thread runs tasks of some batch.
thread_local bool t_in_batch = false;
std::atomic<uint64_t> g_nested_handoffs{0};

/// Marks the calling thread as running tasks of a batch for the scope's
/// lifetime; outermost() is false inside a nested Run.
class InBatchScope {
 public:
  InBatchScope() : outermost_(!t_in_batch) { t_in_batch = true; }
  ~InBatchScope() {
    if (outermost_) t_in_batch = false;
  }
  InBatchScope(const InBatchScope&) = delete;
  InBatchScope& operator=(const InBatchScope&) = delete;

  bool outermost() const { return outermost_; }

 private:
  bool outermost_;
};

obs::Counter* WorkerBusyCounter(size_t worker_index) {
  return obs::Registry::Global().FindOrCreateCounter(
      "executor.w" + std::to_string(worker_index) + ".busy_us");
}

/// One thread's share of one batch: marks the thread as inside a batch and,
/// for the outermost batch only, adds its wall time to `busy_us` (and an
/// executor.batch span when `trace_span` and worker spans are on). A Run
/// issued from inside a task — a method's own single-thread pool, stepped
/// on a pipeline lane — is already inside the enclosing batch's busy time,
/// so it does not count again.
class BatchScope {
 public:
  BatchScope(obs::Counter* busy_us, size_t tasks, bool trace_span)
      : busy_us_(busy_us), tasks_(tasks), trace_span_(trace_span) {
    measured_ = in_batch_.outermost() && (obs::Enabled() || obs::TraceActive());
    if (measured_) start_ = obs::NowNs();
  }
  ~BatchScope() {
    if (!measured_) return;
    const uint64_t dur = obs::NowNs() - start_;
    busy_us_->Add(dur / 1000);
    if (trace_span_ && obs::TraceWorkerSpans()) {
      obs::TraceRecord("executor.batch", start_, dur, tasks_, "tasks");
    }
  }

  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

 private:
  InBatchScope in_batch_;
  obs::Counter* busy_us_;
  size_t tasks_;
  bool trace_span_;
  bool measured_ = false;
  uint64_t start_ = 0;
};

}  // namespace

uint64_t NestedHandOffs() {
  return g_nested_handoffs.load(std::memory_order_relaxed);
}

ShardExecutor::ShardExecutor(size_t num_threads) {
  const size_t n = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(n - 1);
  for (size_t i = 0; i + 1 < n; ++i) {
    workers_.push_back(StartWorker([this, i] { WorkerLoop(i + 1); }));
  }
}

ShardExecutor::~ShardExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  // Last parked, first taken: worker 1's thread goes back on top.
  for (size_t w = workers_.size(); w-- > 0;) ParkWorker(workers_[w]);
}

std::pair<size_t, size_t> ShardExecutor::OwnedRange(size_t num_tasks,
                                                    size_t num_threads,
                                                    size_t w) {
  const size_t q = num_tasks / num_threads;
  const size_t r = num_tasks % num_threads;
  const size_t begin = w * q + std::min(w, r);
  const size_t len = q + (w < r ? 1 : 0);
  return {begin, begin + len};
}

void ShardExecutor::RunOwnedBlock(size_t w) {
  const auto range = OwnedRange(num_tasks_, num_threads(), w);
  const std::function<void(size_t)>& fn = *fn_;
  for (size_t task = range.first; task < range.second; ++task) fn(task);
}

void ShardExecutor::WorkerLoop(size_t worker_index) {
  obs::SetThreadName("shard-worker-" + std::to_string(worker_index));
  obs::Counter* busy_us = WorkerBusyCounter(worker_index);
  size_t seen_generation = 0;
  bool ran_batch = false;
  for (;;) {
    size_t tasks = 0;
    // A worker that just finished a batch polls for the next one before
    // parking; batch state is still read under the lock below.
    if (ran_batch) {
      SpinUntil([&] {
        return stop_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_acquire) != seen_generation;
      });
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_.load();
      tasks = num_tasks_;
    }
    {
      // Busy time per batch; the trace span per batch is the
      // highest-volume event in the system, so it honors
      // TraceOptions::worker_spans.
      BatchScope scope(busy_us, tasks, /*trace_span=*/true);
      RunOwnedBlock(worker_index);
    }
    ran_batch = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Release: the caller may observe zero by polling, without the lock.
      if (busy_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        batch_done_.notify_one();
      }
    }
  }
}

void ShardExecutor::Run(size_t num_tasks,
                        const std::function<void(size_t)>& fn) {
  if (num_tasks == 0) return;
  ++runs_;
  static obs::Counter* batches =
      obs::Registry::Global().FindOrCreateCounter("executor.batches");
  static obs::Counter* w0_busy_us = WorkerBusyCounter(0);
  batches->Add(1);
  if (workers_.empty() || num_tasks == 1) {
    BatchScope scope(w0_busy_us, num_tasks, /*trace_span=*/false);
    for (size_t task = 0; task < num_tasks; ++task) fn(task);
    return;
  }
  if (t_in_batch) g_nested_handoffs.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    num_tasks_ = num_tasks;
    fn_ = &fn;
    busy_workers_.store(workers_.size(), std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  work_ready_.notify_all();
  {
    BatchScope scope(w0_busy_us, num_tasks, /*trace_span=*/true);
    RunOwnedBlock(0);
  }
  SpinUntil([&] {
    return busy_workers_.load(std::memory_order_acquire) == 0;
  });
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock, [&] { return busy_workers_.load() == 0; });
  fn_ = nullptr;
}

}  // namespace sofia
