// ShardExecutor contract tests: the static block partition (contiguous,
// disjoint, balanced, and *identical* across Runs — the property slab
// ownership is built on), every-task-once execution, the caller acting as
// worker 0, worker threads recycled from one executor to the next, and
// nested hand-off counting.

#include "util/shard_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace sofia {
namespace {

TEST(OwnedRangeTest, TilesTheTaskSpaceContiguouslyAndBalanced) {
  for (size_t tasks : {size_t{0}, size_t{1}, size_t{5}, size_t{7},
                       size_t{16}, size_t{97}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{8}}) {
      size_t cursor = 0;
      size_t min_len = tasks, max_len = 0;
      for (size_t w = 0; w < threads; ++w) {
        const auto [begin, end] = ShardExecutor::OwnedRange(tasks, threads, w);
        // Contiguous and disjoint: each worker picks up where the previous
        // one stopped.
        EXPECT_EQ(begin, cursor) << "tasks=" << tasks << " threads="
                                 << threads << " w=" << w;
        EXPECT_LE(begin, end);
        cursor = end;
        min_len = std::min(min_len, end - begin);
        max_len = std::max(max_len, end - begin);
      }
      EXPECT_EQ(cursor, tasks);  // Full coverage.
      if (tasks >= threads) EXPECT_LE(max_len - min_len, 1u);
    }
  }
}

TEST(OwnedRangeTest, IsAPureFunctionOfTasksAndThreads) {
  // The whole point: the mapping must not depend on run order, load, or
  // history — only on (T, W).
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(ShardExecutor::OwnedRange(10, 4, 0),
              (std::pair<size_t, size_t>{0, 3}));
    EXPECT_EQ(ShardExecutor::OwnedRange(10, 4, 1),
              (std::pair<size_t, size_t>{3, 6}));
    EXPECT_EQ(ShardExecutor::OwnedRange(10, 4, 2),
              (std::pair<size_t, size_t>{6, 8}));
    EXPECT_EQ(ShardExecutor::OwnedRange(10, 4, 3),
              (std::pair<size_t, size_t>{8, 10}));
  }
}

TEST(ShardExecutorTest, EveryTaskRunsExactlyOnce) {
  ShardExecutor executor(4);
  for (size_t tasks : {size_t{1}, size_t{3}, size_t{4}, size_t{37}}) {
    std::vector<std::atomic<int>> hits(tasks);
    for (auto& h : hits) h = 0;
    executor.Run(tasks, [&](size_t t) { ++hits[t]; });
    for (size_t t = 0; t < tasks; ++t) {
      EXPECT_EQ(hits[t].load(), 1) << "task " << t;
    }
  }
}

TEST(ShardExecutorTest, TaskOwnershipIsStableAcrossRuns) {
  // Record which thread executed each task on every Run. The mapping must
  // be identical run after run (warm-cache slab ownership), and must match
  // the advertised OwnedRange partition.
  ShardExecutor executor(4);
  const size_t tasks = 23;
  const uint64_t runs_before = executor.runs();

  std::vector<std::vector<std::thread::id>> owner(3);
  for (auto& run : owner) {
    run.resize(tasks);
    executor.Run(tasks, [&](size_t t) { run[t] = std::this_thread::get_id(); });
  }
  EXPECT_EQ(executor.runs(), runs_before + 3);

  for (size_t r = 1; r < owner.size(); ++r) {
    for (size_t t = 0; t < tasks; ++t) {
      EXPECT_EQ(owner[r][t], owner[0][t])
          << "task " << t << " migrated between run 0 and run " << r;
    }
  }
  // Tasks within one OwnedRange block ran on one thread; the caller (this
  // thread) owns worker 0's block.
  for (size_t w = 0; w < executor.num_threads(); ++w) {
    const auto [begin, end] =
        ShardExecutor::OwnedRange(tasks, executor.num_threads(), w);
    for (size_t t = begin; t < end; ++t) {
      EXPECT_EQ(owner[0][t], owner[0][begin]);
    }
    if (w == 0 && begin < end) {
      EXPECT_EQ(owner[0][begin], std::this_thread::get_id());
    }
  }
}

TEST(ShardExecutorTest, SingleThreadRunsInline) {
  ShardExecutor executor(1);
  EXPECT_EQ(executor.num_threads(), 1u);
  std::vector<std::thread::id> owner(5);
  executor.Run(5, [&](size_t t) { owner[t] = std::this_thread::get_id(); });
  for (const auto& id : owner) EXPECT_EQ(id, std::this_thread::get_id());
}

/// A number no other thread of the process ever gets (std::thread::id
/// values can repeat once a thread has ended).
uint64_t ThreadSerial() {
  static std::atomic<uint64_t> next{0};
  thread_local const uint64_t serial = next++;
  return serial;
}

TEST(ShardExecutorTest, NextExecutorRunsEachWorkerOnTheSameThread) {
  // ~ShardExecutor parks its threads and the next executor takes them back
  // in worker order, so worker w keeps its thread (and the thread's malloc
  // arena) from one executor to the next.
  const auto workers = [] {
    ShardExecutor executor(4);
    std::vector<uint64_t> owner(4);
    executor.Run(4, [&](size_t t) { owner[t] = ThreadSerial(); });
    return owner;
  };
  const std::vector<uint64_t> first = workers();
  EXPECT_EQ(workers(), first);
  for (size_t w = 1; w < first.size(); ++w) {
    EXPECT_NE(first[w], ThreadSerial()) << "worker " << w;
  }
}

TEST(ShardExecutorTest, NestedHandOffsCountOnlyDispatchFromInsideATask) {
  // A top-level multi-thread batch and an inline nested one are not nested
  // parallelism; a multi-thread Run from inside a task is, whatever the
  // sizes of the outer and inner executors.
  ShardExecutor outer(2);
  ShardExecutor inline_pool(1);
  ShardExecutor three(3);
  const auto noop = [](size_t) {};
  const uint64_t before = NestedHandOffs();
  outer.Run(2, noop);
  three.Run(4, noop);
  ShardExecutor(1).Run(1, [&](size_t) { inline_pool.Run(4, noop); });
  EXPECT_EQ(NestedHandOffs(), before);
  ShardExecutor(1).Run(1, [&](size_t) { three.Run(4, noop); });
  EXPECT_EQ(NestedHandOffs(), before + 1);
  ShardExecutor two(2);
  three.Run(1, [&](size_t) { two.Run(4, noop); });
  EXPECT_EQ(NestedHandOffs(), before + 2);
}

}  // namespace
}  // namespace sofia
