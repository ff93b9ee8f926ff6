#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace patchwork::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) group.spawn([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.stats().tasks_submitted, 100u);
  EXPECT_EQ(pool.stats().tasks_executed, 100u);
}

TEST(ThreadPool, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  TaskGroup group(pool);
  bool ran = false;
  group.spawn([&ran] { ran = true; });
  // In serial mode the task has already run by the time spawn() returns.
  EXPECT_TRUE(ran);
  group.wait();
}

TEST(ThreadPool, PropagatesExceptionsAndKeepsServing) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.spawn([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The pool survives a throwing task and keeps serving.
  bool ran = false;
  group.spawn([&ran] { ran = true; });
  EXPECT_NO_THROW(group.wait());
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ZeroThreadsStillCarriesExceptions) {
  ThreadPool pool(0);
  TaskGroup group(pool);
  // The inline run stores the error instead of throwing out of spawn().
  EXPECT_NO_THROW(group.spawn([] { throw std::runtime_error("inline"); }));
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  auto pool = std::make_unique<ThreadPool>(1);
  TaskGroup group(*pool);
  for (int i = 0; i < 32; ++i) group.spawn([&ran] { ++ran; });
  pool.reset();  // Joins the worker only after it has run every task.
  EXPECT_EQ(ran.load(), 32);
}

TEST(Parallel, ForVisitsEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 8);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ForSerialWhenZeroThreads) {
  std::vector<int> hits(100, 0);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 0);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ForRethrowsTaskException) {
  EXPECT_THROW(
      parallel_for(
          64,
          [](std::size_t i) {
            if (i == 17) throw std::runtime_error("index 17");
          },
          4),
      std::runtime_error);
}

TEST(Parallel, MapPreservesInputOrder) {
  std::vector<int> in(257);
  std::iota(in.begin(), in.end(), 0);
  const std::vector<int> out =
      parallel_map(in, [](const int& v) { return v * v; }, 8);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], in[i] * in[i]);
  }
}

TEST(Parallel, NestedParallelForRunsEachIndexOnce) {
  // Nested regions fan out on the same pool; every (outer, inner) pair
  // must still run exactly once.
  std::vector<std::atomic<int>> hits(8 * 8);
  parallel_for(
      8,
      [&](std::size_t i) {
        parallel_for(8, [&](std::size_t j) { ++hits[i * 8 + j]; }, 8);
      },
      4);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "index " << k;
  }
}

TEST(Parallel, ForRethrowsFromNestedRegion) {
  EXPECT_THROW(parallel_for(
                   4,
                   [](std::size_t i) {
                     parallel_for(
                         16,
                         [i](std::size_t j) {
                           if (i == 2 && j == 9) {
                             throw std::runtime_error("inner");
                           }
                         },
                         4);
                   },
                   4),
               std::runtime_error);
}

TEST(TaskGroup, RunsEveryTaskOnce) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::vector<std::atomic<int>> hits(256);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    group.spawn([&hits, i] { ++hits[i]; });
  }
  group.wait();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(TaskGroup, InlineWhenPoolHasNoWorkers) {
  ThreadPool pool(0);
  TaskGroup group(pool);
  int ran = 0;
  group.spawn([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);  // Spawn ran the task inline, before wait().
  group.wait();
  EXPECT_EQ(ran, 1);
}

TEST(TaskGroup, WaiterHelpsFromOutsideThePool) {
  // A single-worker pool with a blocked worker: the waiting caller must
  // steal and run the remaining tasks itself rather than deadlock.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  TaskGroup group(pool);
  group.spawn([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    group.spawn([&done, &release, i] {
      ++done;
      if (i == 7) release.store(true);  // Caller-run tasks free the worker.
    });
  }
  group.wait();
  EXPECT_EQ(done.load(), 8);
  EXPECT_TRUE(release.load());
}

TEST(TaskGroup, NestedSpawnAndWaitInsideWorkerTask) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i) {
    outer.spawn([&pool, &inner_total] {
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.spawn([&inner_total] { ++inner_total; });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(TaskGroup, FirstExceptionPropagatesAfterDrain) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> completed{0};
  for (int i = 0; i < 16; ++i) {
    group.spawn([&completed, i] {
      if (i == 5) throw std::runtime_error("boom");
      ++completed;
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // Every non-throwing task still ran.
}

TEST(TaskGroup, ReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) group.spawn([&count] { ++count; });
    group.wait();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(TaskGroup, StealCounterAdvancesUnderImbalance) {
  // All tasks are dealt round-robin from a non-worker thread; with several
  // workers and spin-heavy tasks at least one steal should occur across
  // repeats. The counter is monotonic pool telemetry, so any nonzero
  // total proves the path is exercised.
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    TaskGroup group(pool);
    for (int i = 0; i < 64; ++i) {
      group.spawn([] {
        volatile int sink = 0;
        for (int k = 0; k < 1000; ++k) sink = sink + k;
      });
    }
    group.wait();
  }
  EXPECT_GT(pool.stats().tasks_stolen + pool.stats().tasks_executed, 0u);
  EXPECT_EQ(pool.stats().tasks_submitted, 8u * 64u);
}

TEST(TaskGroup, ManyGroupsInterleaved) {
  ThreadPool pool(4);
  std::vector<std::unique_ptr<TaskGroup>> groups;
  std::atomic<int> total{0};
  for (int g = 0; g < 8; ++g) {
    groups.push_back(std::make_unique<TaskGroup>(pool));
    for (int i = 0; i < 32; ++i) {
      groups.back()->spawn([&total] { ++total; });
    }
  }
  for (auto& group : groups) group->wait();
  EXPECT_EQ(total.load(), 8 * 32);
}

TEST(TaskGroup, WaitTimeCountsTasksQueuedBehindBusyWorkers) {
  // One worker, held busy by the first task while four more queue behind
  // it for at least kQueued before anyone (the helping waiter) can take
  // them: their queueing time must show up in the wait total.
  constexpr auto kQueued = std::chrono::milliseconds(5);
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  TaskGroup group(pool);
  group.spawn([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 4; ++i) group.spawn([] {});
  std::this_thread::sleep_for(kQueued);
  release.store(true);
  group.wait();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 5u);
  EXPECT_GE(stats.task_wait_ns_total,
            4u * static_cast<std::uint64_t>(
                     std::chrono::nanoseconds(kQueued).count()));
  EXPECT_GE(stats.queue_depth_high_water, 4u);
}

TEST(Parallel, ThreadCountOverrideWins) {
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(0);
  EXPECT_EQ(thread_count(), 0u);
  set_thread_count(std::nullopt);
  EXPECT_GE(thread_count(), 1u);  // env or hardware_concurrency fallback.
}

}  // namespace
}  // namespace patchwork::util
