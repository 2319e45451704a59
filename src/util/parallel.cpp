#include "util/parallel.hpp"

#include <thread>

namespace sofia {

size_t ResolveNumThreads(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void RunTasks(WorkerPool* pool, size_t num_tasks,
              const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->Run(num_tasks, fn);
  } else {
    for (size_t task = 0; task < num_tasks; ++task) fn(task);
  }
}

}  // namespace sofia
