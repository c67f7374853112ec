// streamhull: blocking parallel-for over the runtime ThreadPool.
//
// The multi-stream layers have several fan-out phases — ingest every
// region's bucket, encode every region view, refresh every changed
// stream's sandwich, evaluate every candidate pair — whose shape is always
// the same: split an index range into chunks, run the chunks on the pool,
// wait for all of them. ParallelFor is that shape, once, and the library's
// only fan-out barrier: the latch details, the sequential fallback and the
// worker-thread deadlock CHECK live here instead of at each call site.
//
// Determinism note: the body receives bare indices and must write only to
// index-addressed slots (each index touched by exactly one chunk), so the
// result of a ParallelFor is bit-identical regardless of thread count or
// scheduling — the property StreamGroup's parallel Poll is built on.

#ifndef STREAMHULL_RUNTIME_PARALLEL_FOR_H_
#define STREAMHULL_RUNTIME_PARALLEL_FOR_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "common/check.h"
#include "runtime/thread_pool.h"

namespace streamhull {

/// \brief Runs body(i) for every i in [0, n), fanned out over \p pool in
/// contiguous chunks, and returns once all of them finished (with every
/// body write ordered before the return). A null pool — or a tiny range
/// that does not cover two chunks — degrades to a sequential loop, so call
/// sites need no parallel/sequential branching of their own.
///
/// \p body must be safe to invoke concurrently for distinct indices and
/// must not touch the pool (no Submit, no WaitIdle: the caller may not be
/// able to tell which worker it runs on). Must not be called from a pool
/// worker thread (CHECK-enforced, like every pool barrier).
///
/// \param pool worker pool, or nullptr for the sequential fallback.
/// \param n iteration count.
/// \param min_chunk smallest chunk worth a task hand-off; chunks are never
///        smaller (the last one excepted), so tiny ranges stay sequential.
/// \param body callable invoked as body(size_t index).
template <typename Body>
void ParallelFor(ThreadPool* pool, size_t n, size_t min_chunk,
                 const Body& body) {
  if (n == 0) return;
  if (min_chunk == 0) min_chunk = 1;
  if (pool == nullptr || pool->num_threads() <= 1 || n < 2 * min_chunk) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  SH_CHECK(!pool->InWorkerThread() &&
           "ParallelFor barrier from inside a pool task would deadlock");
  // Aim for a few chunks per worker so stealing can level uneven bodies,
  // but never below min_chunk.
  const size_t target_chunks = pool->num_threads() * 4;
  const size_t chunk =
      std::max(min_chunk, (n + target_chunks - 1) / target_chunks);
  const size_t num_chunks = (n + chunk - 1) / chunk;

  // A local latch (not pool WaitIdle) so concurrent unrelated pool work —
  // async ingestion batches still draining — cannot extend this barrier.
  std::mutex mu;
  std::condition_variable done_cv;
  size_t remaining = num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(n, begin + chunk);
    pool->Submit([&, begin, end] {
      for (size_t i = begin; i < end; ++i) body(i);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace streamhull

#endif  // STREAMHULL_RUNTIME_PARALLEL_FOR_H_
