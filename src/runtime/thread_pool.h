// streamhull: the fixed worker pool behind all parallel work.
//
// The paper's summaries are single-writer by construction: every engine is
// thread-compatible (no internal synchronization), its summary depends on
// insertion order, and the multi-stream layers never need two threads
// inside one engine — streams are the natural parallelism axis. What the
// runtime provides is therefore deliberately small: one ThreadPool with
// per-worker FIFO queues and work stealing, plus per-key FIFO *strands*
// on it that run each engine's work single-threaded and in post order,
// and ParallelFor (runtime/parallel_for.h) as the one fan-out barrier.
// See DESIGN.md, "Concurrency model".
//
// The pool intentionally has no notion of priorities, cancellation, or
// futures. Ingestion work is coarse (a whole batch of points per task) and
// the only cross-task coordination the callers need is the WaitIdle()
// barrier behind StreamGroup::Flush() and StreamHullServer::Flush().

#ifndef STREAMHULL_RUNTIME_THREAD_POOL_H_
#define STREAMHULL_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace streamhull {

/// \brief Fixed-size worker pool with per-worker FIFO queues, work
/// stealing, and per-key FIFO strands.
///
/// Submit() distributes tasks round-robin across the per-worker queues. A
/// worker drains its own queue front-to-back and steals from the back of
/// its siblings' queues when its own runs dry, so an uneven shard
/// distribution — one hot stream among many idle ones — cannot strand
/// work behind a busy worker.
///
/// Post(strand, task) is the single-writer lane: tasks posted to one
/// strand run sequentially in post order (on whichever worker picks the
/// strand up), while distinct strands run concurrently. A strand may
/// therefore own a thread-compatible object — a HullEngine, a tenant's
/// StreamGroup — without any locking.
///
/// Thread-safe: Submit(), AddStrand(), Post() and WaitIdle() may be called
/// from any thread, including from inside tasks (WaitIdle() from inside a
/// task would deadlock and is the one forbidden combination).
class ThreadPool {
 public:
  /// \param num_threads worker count; 0 selects the hardware concurrency
  ///        (at least 1).
  explicit ThreadPool(size_t num_threads);
  /// Drains every queued task and strand, then joins the workers; owners
  /// need no barrier of their own before tearing down what tasks touch.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// \brief Enqueues \p task for execution on some worker. Tasks run in
  /// submission order only if they land on the same queue; Post() to a
  /// strand when FIFO matters.
  void Submit(std::function<void()> task);

  /// Opaque strand handle.
  using StrandId = size_t;

  /// Creates a new, idle strand. Strands are never removed; the expected
  /// usage is one strand per stream or tenant for the pool's lifetime.
  StrandId AddStrand();

  /// \brief Enqueues \p task on \p strand and never blocks: if the strand
  /// is idle it submits a drain task; if a drain is already running the
  /// task simply queues behind it. The id must come from AddStrand().
  void Post(StrandId strand, std::function<void()> task);

  /// \brief Blocks until every submitted task and posted strand task —
  /// including work submitted *by* running tasks — has finished, with all
  /// their writes ordered before the return. The caller must not be a pool
  /// worker. This is the barrier behind every Flush().
  void WaitIdle();

  /// True iff the calling thread is one of this pool's workers. Barrier
  /// constructions (WaitIdle, ParallelFor) CHECK this is false: a worker
  /// waiting for pool progress it is itself blocking is a silent deadlock.
  bool InWorkerThread() const;

 private:
  struct Queue {
    std::deque<std::function<void()>> tasks;
  };

  struct Strand {
    std::mutex mu;
    std::deque<std::function<void()>> pending;
    bool draining = false;  // A drain task is submitted or running.
  };

  void WorkerLoop(size_t self);
  // Pops the next task for worker `self` (own front, then steal from the
  // back of the busiest sibling). Returns false when every queue is empty.
  bool PopTask(size_t self, std::function<void()>* out);
  // Runs `strand` dry, one task at a time, in post order.
  void Drain(Strand* strand);

  // One mutex guards all queues and counters. Ingestion tasks are coarse
  // (a whole batch per task), so queue operations are a vanishing fraction
  // of the work; per-queue locks would buy nothing but TSan surface. The
  // per-worker queues themselves still earn their keep: measured against
  // one shared FIFO on the perfbench fleet-tick workload (4 workers), they
  // read a better tick p95, because round-robin submission keeps each
  // stream's batch on the same worker tick after tick and its engine warm
  // in that core's cache.
  std::mutex mu_;
  std::condition_variable work_cv_;   // Workers wait here for tasks.
  std::condition_variable idle_cv_;   // WaitIdle() waits here.
  std::vector<Queue> queues_;
  size_t next_queue_ = 0;      // Round-robin submission cursor.
  size_t inflight_ = 0;        // Queued + currently running tasks.
  bool shutdown_ = false;

  std::mutex strands_mu_;  // Guards the vector, not the strands.
  std::vector<std::unique_ptr<Strand>> strands_;

  std::vector<std::thread> workers_;
};

}  // namespace streamhull

#endif  // STREAMHULL_RUNTIME_THREAD_POOL_H_
