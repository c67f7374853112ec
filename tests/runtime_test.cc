// Tests for the concurrency runtime (src/runtime/): ThreadPool execution
// and barrier semantics, per-strand FIFO + mutual exclusion, and the
// ParallelFor fan-out barrier. The ordering tests are written to fail under
// TSan if the runtime's synchronization is wrong (the CI tsan job runs this
// binary), not just when a reordering happens to be observed.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace streamhull {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, WaitIdleCoversTasksSubmittedByTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      // A task fanning out more work: the barrier must wait for the
      // children too, or Flush() would race engine reads in the callers.
      for (int j = 0; j < 4; ++j) {
        pool.Submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 16 * 5);
}

TEST(ThreadPoolTest, WaitIdleOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();
  pool.WaitIdle();
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, DestructorDrainsTasksThatSubmitMoreTasks) {
  // Regression: destruction must drain BEFORE raising the shutdown flag —
  // a queued task fanning out children during the destructor's drain is
  // the documented Submit-from-task pattern, not a use-after-shutdown.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&pool, &count] {
        count.fetch_add(1, std::memory_order_relaxed);
        pool.Submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    // No WaitIdle(): the destructor is the barrier.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadPoolStillMakesProgress) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WorkIsStolenAcrossQueues) {
  // Round-robin submission spreads 64 tasks over 4 queues; a worker stuck
  // on a slow task must not strand its queue — siblings steal it. The test
  // pins that all tasks complete promptly even with one artificial
  // straggler per queue.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&count, i] {
      if (i < 4) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolStrandTest, StrandTasksRunInPostOrder) {
  ThreadPool pool(4);
  const auto strand = pool.AddStrand();
  // No lock around `order`: the strand contract says its tasks never run
  // concurrently and are ordered; TSan verifies the claim.
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    pool.Post(strand, [&order, i] { order.push_back(i); });
  }
  pool.WaitIdle();
  std::vector<int> expected(500);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolStrandTest, StrandsNeverOverlapButDoInterleave) {
  ThreadPool pool(4);
  constexpr int kStrands = 8;
  constexpr int kTasks = 200;
  std::vector<ThreadPool::StrandId> strands;
  for (int s = 0; s < kStrands; ++s) strands.push_back(pool.AddStrand());
  // Per-strand reentrancy flag: if two tasks of one strand ever run
  // concurrently, the flag check fires (and TSan flags the counter race).
  std::vector<std::atomic<int>> in_flight(kStrands);
  std::vector<int> done(kStrands, 0);  // Strand-local, unsynchronized.
  std::atomic<bool> overlap{false};
  for (int t = 0; t < kTasks; ++t) {
    for (int s = 0; s < kStrands; ++s) {
      pool.Post(strands[s], [&, s] {
        if (in_flight[s].fetch_add(1, std::memory_order_acq_rel) != 0) {
          overlap.store(true);
        }
        ++done[s];
        in_flight[s].fetch_sub(1, std::memory_order_acq_rel);
      });
    }
  }
  pool.WaitIdle();
  EXPECT_FALSE(overlap.load());
  for (int s = 0; s < kStrands; ++s) EXPECT_EQ(done[s], kTasks);
}

TEST(ThreadPoolStrandTest, PostFromInsideStrandTask) {
  ThreadPool pool(2);
  const auto a = pool.AddStrand();
  const auto b = pool.AddStrand();
  std::vector<int> order_b;
  pool.Post(a, [&] {
    pool.Post(b, [&order_b] { order_b.push_back(1); });
    pool.Post(b, [&order_b] { order_b.push_back(2); });
  });
  pool.WaitIdle();
  EXPECT_EQ(order_b, (std::vector<int>{1, 2}));
}

TEST(ThreadPoolStrandTest, StrandsAreFifoAndWaitIdleIsABarrier) {
  ThreadPool pool(4);
  constexpr int kStrands = 16;
  std::vector<ThreadPool::StrandId> strands;
  std::vector<std::vector<int>> logs(kStrands);
  for (int s = 0; s < kStrands; ++s) strands.push_back(pool.AddStrand());
  for (int round = 0; round < 100; ++round) {
    for (int s = 0; s < kStrands; ++s) {
      pool.Post(strands[s], [&logs, s, round] {
        logs[s].push_back(round);  // Unsynchronized: the strand serializes.
      });
    }
  }
  pool.WaitIdle();
  // After the barrier the main thread reads everything without locks.
  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  for (int s = 0; s < kStrands; ++s) EXPECT_EQ(logs[s], expected);
}

TEST(ThreadPoolStrandTest, DestructionWithPendingWorkDrainsSafely) {
  // Regression: the pool owns the Strand state its queued drain tasks
  // run against, so ~ThreadPool must drain before anything is freed —
  // otherwise queued strand drains run against freed Strand state during
  // teardown.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    const auto a = pool.AddStrand();
    const auto b = pool.AddStrand();
    for (int i = 0; i < 200; ++i) {
      pool.Post(a, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      pool.Post(b, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // No WaitIdle(): destruction itself must be the barrier.
  }
  EXPECT_EQ(ran.load(), 400);
}

TEST(ThreadPoolStrandTest, WaitIdleThenPostThenWaitIdleAgain) {
  ThreadPool pool(2);
  const auto strand = pool.AddStrand();
  int value = 0;  // Unsynchronized on purpose: WaitIdle orders the accesses.
  pool.Post(strand, [&value] { value = 1; });
  pool.WaitIdle();
  EXPECT_EQ(value, 1);
  pool.Post(strand, [&value] { value = 2; });
  pool.WaitIdle();
  EXPECT_EQ(value, 2);
}

// ---------------------------------------------------------------------------
// ParallelFor: the only fan-out barrier.

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t kMinChunk = 8;
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    for (size_t n : {size_t{0}, size_t{1}, 2 * kMinChunk - 1, size_t{1000}}) {
      SCOPED_TRACE(::testing::Message()
                   << "workers=" << (pool ? pool->num_threads() : 0)
                   << " n=" << n);
      std::vector<std::atomic<int>> hits(n);
      std::vector<std::thread::id> ran_on(n);  // Index-addressed slots.
      ParallelFor(pool, n, kMinChunk, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        ran_on[i] = std::this_thread::get_id();
      });
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
      // No pool, a single worker, or a range too short for two chunks:
      // the sequential fallback runs every body on the calling thread.
      if (pool != &four || n < 2 * kMinChunk) {
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << i;
        }
      }
    }
  }
}

TEST(ParallelForTest, BlockedStrandTaskDoesNotDelayReturn) {
  // ParallelFor waits on a local latch, not on pool WaitIdle, so unrelated
  // pool work — here a strand task blocking one worker until the test
  // releases it *after* the call — cannot extend the barrier. Chunks that
  // round-robin onto the blocked worker's queue must be stolen by its
  // siblings. Were the barrier WaitIdle, the call would wait for the
  // blocked task, which only gives up at its timeout.
  ThreadPool pool(4);
  const auto strand = pool.AddStrand();
  std::atomic<bool> started{false};
  std::atomic<bool> released{false};
  std::atomic<bool> timed_out{false};
  pool.Post(strand, [&] {
    started.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!released.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!started.load()) std::this_thread::yield();

  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, /*min_chunk=*/1, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  released.store(true);
  pool.WaitIdle();
  EXPECT_FALSE(timed_out.load());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace streamhull
