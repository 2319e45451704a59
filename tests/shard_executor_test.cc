// ShardExecutor contract tests: the static block partition (contiguous,
// disjoint, balanced, and *identical* across Runs — the property slab
// ownership is built on), every-task-once execution, the caller acting as
// worker 0, nested hand-off counting, arena growth accounting, aux-lane
// FIFO/ticket semantics, and clean shutdown with jobs still pending.

#include "util/shard_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/slice_format.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"

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
  // The aux thread is recycled the same way.
  const auto aux = [] {
    ShardExecutor executor(1);
    uint64_t serial = 0;
    executor.Wait(executor.Submit([&] { serial = ThreadSerial(); }));
    return serial;
  };
  const uint64_t aux_serial = aux();
  EXPECT_EQ(aux(), aux_serial);
  EXPECT_NE(aux_serial, ThreadSerial());
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

TEST(ScratchArenaTest, GrowthEventsCountOnlyActualGrowth) {
  ScratchArena arena;
  EXPECT_EQ(arena.growth_events(), 0u);
  arena.Doubles(0, 100);
  EXPECT_EQ(arena.growth_events(), 1u);
  // Smaller and equal requests reuse the buffer.
  arena.Doubles(0, 50);
  arena.Doubles(0, 100);
  EXPECT_EQ(arena.growth_events(), 1u);
  // Doubling policy: 150 fits the 2x-grown capacity after one more event.
  arena.Doubles(0, 150);
  EXPECT_EQ(arena.growth_events(), 2u);
  arena.Doubles(0, 200);
  EXPECT_EQ(arena.growth_events(), 2u);
  // A different slot grows independently.
  arena.Doubles(3, 10);
  EXPECT_EQ(arena.growth_events(), 3u);
}

TEST(ScratchArenaTest, DoublesZeroFillsAndRawPreserves) {
  ScratchArena arena;
  double* a = arena.Doubles(0, 8);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a[i], 0.0);
    a[i] = static_cast<double>(i + 1);
  }
  // Raw re-request of the same slot: contents survive.
  double* b = arena.RawDoubles(0, 8);
  EXPECT_EQ(b, a);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(b[i], static_cast<double>(i + 1));
  // Zeroing re-request wipes them again.
  double* c = arena.Doubles(0, 8);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(c[i], 0.0);
}

TEST(ShardExecutorTest, AuxJobsRunInSubmissionOrder) {
  ShardExecutor executor(2);
  std::mutex mutex;
  std::vector<int> order;
  uint64_t last = 0;
  for (int i = 0; i < 8; ++i) {
    last = executor.Submit([&, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
    });
  }
  executor.Wait(last);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ShardExecutorTest, WaitCoversEarlierTicketsAndStaleOnes) {
  ShardExecutor executor(2);
  std::atomic<int> done{0};
  uint64_t first = executor.Submit([&] { ++done; });
  uint64_t second = executor.Submit([&] { ++done; });
  executor.Wait(second);  // FIFO: waiting on the later job covers both.
  EXPECT_EQ(done.load(), 2);
  executor.Wait(first);   // Already satisfied — returns immediately.
  executor.DrainAux();
  executor.Wait(second);  // Stale after drain — still a no-op.
}

TEST(ShardExecutorTest, AuxLaneOverlapsComputeRuns) {
  ShardExecutor executor(2);
  std::atomic<bool> aux_ran{false};
  executor.Submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    aux_ran = true;
  });
  // Compute batches proceed while the aux job is still in flight.
  std::atomic<int> sum{0};
  executor.Run(16, [&](size_t t) { sum += static_cast<int>(t); });
  EXPECT_EQ(sum.load(), 120);
  executor.DrainAux();
  EXPECT_TRUE(aux_ran.load());
}

TEST(ShardExecutorTest, DestructionDrainsPendingAuxJobs) {
  std::atomic<int> completed{0};
  {
    ShardExecutor executor(3);
    for (int i = 0; i < 5; ++i) {
      executor.Submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++completed;
      });
    }
    // No Wait: the destructor must drain the queue, not abandon it.
  }
  EXPECT_EQ(completed.load(), 5);
}

TEST(ShardExecutorTest, DestructionDrainsPendingJournalAppendsToDisk) {
  // The durability layer's shutdown-ordering contract: journal appends
  // submitted to the aux lane and never Wait()ed on must still reach the
  // file before the executor dies — a clean process exit loses nothing.
  char tmpl[] = "/tmp/sofia_shardwal_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/wal-0.slices";

  const Shape shape({2, 3});
  constexpr size_t kRecords = 12;
  {
    slicefmt::SliceFileWriter writer;
    ASSERT_TRUE(writer.Create(path, shape, 0));
    ShardExecutor executor(3);
    for (size_t step = 0; step < kRecords; ++step) {
      executor.Submit([&writer, &shape, step] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        DenseTensor slice(shape);
        for (size_t k = 0; k < slice.NumElements(); ++k) {
          slice[k] = static_cast<double>(step * 100 + k);
        }
        writer.Append(step, slice, Mask(shape, /*observed=*/true));
      });
    }
    // Executor destroyed first (drains the lane), THEN the writer closes:
    // the ordering DurableGuard's member layout relies on.
  }
  slicefmt::SliceFileReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_FALSE(reader.truncated());
  ASSERT_EQ(reader.num_records(), kRecords);
  for (size_t step = 0; step < kRecords; ++step) {
    EXPECT_EQ(reader.record(step).step, step);  // FIFO lane: in order.
    DenseTensor slice;
    Mask mask;
    reader.Decode(step, &slice, &mask);
    EXPECT_EQ(slice[1], static_cast<double>(step * 100 + 1));
  }
}

}  // namespace
}  // namespace sofia
