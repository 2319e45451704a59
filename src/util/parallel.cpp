#include "util/parallel.hpp"

#include <map>
#include <memory>

namespace sofia {

namespace {

/// True while the calling thread runs tasks of some batch.
thread_local bool t_in_batch = false;
std::atomic<uint64_t> g_nested_handoffs{0};

}  // namespace

uint64_t NestedHandOffs() {
  return g_nested_handoffs.load(std::memory_order_relaxed);
}

namespace pool_detail {

InBatchScope::InBatchScope() : outermost_(!t_in_batch) { t_in_batch = true; }

InBatchScope::~InBatchScope() {
  if (outermost_) t_in_batch = false;
}

void NoteHandOff() {
  if (t_in_batch) g_nested_handoffs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pool_detail

size_t ResolveNumThreads(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(n - 1);
  for (size_t i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::DrainTasks() {
  const size_t num_tasks = num_tasks_;
  const std::function<void(size_t)>& fn = *fn_;
  for (;;) {
    const size_t task = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (task >= num_tasks) break;
    fn(task);
  }
}

void ThreadPool::WorkerLoop() {
  size_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    {
      pool_detail::InBatchScope in_batch;
      DrainTasks();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--busy_workers_ == 0) batch_done_.notify_one();
    }
  }
}

void ThreadPool::Run(size_t num_tasks, const std::function<void(size_t)>& fn) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1) {
    pool_detail::InBatchScope in_batch;
    for (size_t task = 0; task < num_tasks; ++task) fn(task);
    return;
  }
  pool_detail::NoteHandOff();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    num_tasks_ = num_tasks;
    fn_ = &fn;
    next_task_.store(0, std::memory_order_relaxed);
    busy_workers_ = workers_.size();
    ++generation_;
  }
  work_ready_.notify_all();
  {
    pool_detail::InBatchScope in_batch;
    DrainTasks();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock, [&] { return busy_workers_ == 0; });
  fn_ = nullptr;
}

namespace {

// Process-local cache of fallback pools, one per requested thread count.
// A pool's Run is single-driver, so each cached pool carries a mutex: the
// first ParallelFor caller of a given size drives the pool, a concurrent
// caller of the same size falls back to a serial loop (identical results —
// the task-ownership contract makes the outcome independent of the thread
// count). Pools live until process exit; their worker threads are idle
// (condition-variable parked) between calls.
struct CachedPool {
  std::mutex in_use;
  ThreadPool pool;
  explicit CachedPool(size_t n) : pool(n) {}
};

CachedPool* GetCachedPool(size_t num_threads) {
  static std::mutex registry_mutex;
  // Raw-pointer map: intentionally leaked so worker threads never race
  // static destruction order at process exit.
  static std::map<size_t, CachedPool*>* registry =
      new std::map<size_t, CachedPool*>();
  std::lock_guard<std::mutex> lock(registry_mutex);
  auto it = registry->find(num_threads);
  if (it == registry->end()) {
    it = registry->emplace(num_threads, new CachedPool(num_threads)).first;
  }
  return it->second;
}

}  // namespace

void ParallelFor(size_t num_threads, size_t num_tasks,
                 const std::function<void(size_t)>& fn) {
  const size_t n = ResolveNumThreads(num_threads);
  if (n <= 1 || num_tasks <= 1) {
    for (size_t task = 0; task < num_tasks; ++task) fn(task);
    return;
  }
  CachedPool* cached = GetCachedPool(n);
  std::unique_lock<std::mutex> lock(cached->in_use, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Pool of this size already driven by another thread (or a nested
    // ParallelFor from inside a task): run serially rather than block.
    for (size_t task = 0; task < num_tasks; ++task) fn(task);
    return;
  }
  cached->pool.Run(num_tasks, fn);
}

void RunTasks(WorkerPool* pool, size_t num_threads, size_t num_tasks,
              const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->Run(num_tasks, fn);
  } else {
    ParallelFor(num_threads, num_tasks, fn);
  }
}

}  // namespace sofia
