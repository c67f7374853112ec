// Pins the de-allocated ingestion hot path: once an AdaptiveHull is warmed
// up (scratch buffers sized, arena at steady state), offering further
// points — interior rejections *and* ordinary sample displacements — must
// perform zero heap allocations per point. This is what keeps the parallel
// runtime's speedup from disappearing into allocator contention: with 8
// workers ingesting concurrently, a single malloc per point serializes on
// the allocator's locks.
//
// The counter instruments this binary's global operator new/delete. Only
// the delta across the measured region matters, so gtest's own allocations
// do not interfere; the override is per-binary, so no other suite is
// affected.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adaptive_hull.h"
#include "core/hull_engine.h"
#include "stream/generators.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace streamhull {
namespace {

AdaptiveHullOptions Opts(uint32_t r) {
  AdaptiveHullOptions o;
  o.r = r;
  return o;
}

// Allocations performed by `fn`.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAllocTest, InteriorPointsViaInsertBatchAllocateNothing) {
  AdaptiveHull hull(Opts(64));
  // Warm up: ring points build the summary, a first interior batch sizes
  // every scratch buffer and the prefilter cache.
  CircleGenerator ring(1, 256);
  const auto ring_pts = ring.Take(2000);
  hull.InsertBatch(ring_pts);
  DiskGenerator interior(2, 0.4);
  hull.InsertBatch(interior.Take(1000));

  // Steady state: deep-interior points are pure prefilter rejections.
  const auto probe = interior.Take(50000);
  const uint64_t before_rejects = hull.stats().batch_prefilter_rejections;
  const uint64_t allocs = CountAllocations([&] {
    hull.InsertBatch(std::span<const Point2>(probe));
  });
  EXPECT_GT(hull.stats().batch_prefilter_rejections, before_rejects);
  EXPECT_EQ(allocs, 0u)
      << "interior-heavy batched ingestion must not touch the allocator";
  EXPECT_TRUE(hull.CheckConsistency().ok());
}

TEST(HotPathAllocTest, SteadyStateMixedIngestionAllocatesNothing) {
  // Harsher: 10% of points land on the ring, displacing samples and
  // churning the refinement trees — the accept path, not just the
  // prefilter. After warm-up on the same distribution, accepted points
  // must run entirely out of the reused scratch buffers, the node arena's
  // free list, and the engine's reserved vertex-run arrays... or this
  // fails.
  AdaptiveHullOptions o = Opts(32);
  auto mixed = [](uint64_t seed, size_t n) {
    Rng rng(seed);
    std::vector<Point2> pts;
    pts.reserve(n);
    const double kTwoPi = 6.283185307179586476925286766559;
    for (size_t i = 0; i < n; ++i) {
      const double a = rng.Uniform(0, kTwoPi);
      const double rad =
          rng.NextDouble() < 0.1 ? 0.98 + 0.02 * rng.NextDouble()
                                 : 0.5 * rng.NextDouble();
      pts.push_back({rad * std::cos(a), rad * std::sin(a)});
    }
    return pts;
  };
  AdaptiveHull hull(o);
  hull.InsertBatch(mixed(1, 30000));  // Warm-up reaches steady state.

  const auto probe = mixed(2, 30000);
  const uint64_t discarded_before = hull.stats().points_discarded;
  const uint64_t allocs =
      CountAllocations([&] { hull.InsertBatch(probe); });
  // Rejected points allocate nothing; the rare accepted point may still
  // allocate O(1) times (the threshold queue's buckets) when it displaces
  // structure. The bound is
  // therefore per *accepted* point plus a small constant — if any per-
  // offered-point allocation (the old ComputeWinningSet/ApplyWin vectors)
  // sneaks back in, the left side jumps by ~30000 and this fails loudly.
  const uint64_t accepted =
      probe.size() - (hull.stats().points_discarded - discarded_before);
  EXPECT_LE(allocs, 8 * accepted + 64)
      << "per-offered-point allocations are back (accepted=" << accepted
      << ")";
  EXPECT_LT(allocs, probe.size() / 10)
      << "allocation volume no longer amortizes over the batch";
  EXPECT_TRUE(hull.CheckConsistency().ok());
}

// The accept path itself. Every spiral point is a hull vertex, and a drift
// walk keeps extending its hull, so most offered points win directions and
// splice the vertex-run arrays, which Reserve() sized from r; kAdaptive also
// refines and unrefines out of the node arena's free list. A warmed-up
// kUniform engine (which never refines) must not allocate at all.
// kAdaptive's one node container left is the threshold queue's bucket map,
// whose churn stays far below one allocation per accepted point.
TEST(HotPathAllocTest, AcceptedPointsViaInsertBatchAllocateNothing) {
  constexpr size_t kWarmup = 20000;
  constexpr size_t kProbe = 20000;
  struct Stream {
    const char* name;
    std::vector<Point2> points;
  };
  DriftWalkGenerator drift(5);
  SpiralGenerator spiral(5);
  const Stream streams[] = {{"drift-walk", drift.Take(kWarmup + kProbe)},
                            {"spiral", spiral.Take(kWarmup + kProbe)}};
  for (const EngineKind kind : {EngineKind::kUniform, EngineKind::kAdaptive}) {
    for (const uint32_t r : {16u, 64u}) {
      for (const Stream& stream : streams) {
        SCOPED_TRACE(std::string(EngineKindName(kind)) + " r=" +
                     std::to_string(r) + " " + stream.name);
        EngineOptions o;
        o.hull.r = r;
        auto engine = MakeEngine(kind, o);
        const std::span<const Point2> all(stream.points);
        engine->InsertBatch(all.first(kWarmup));

        const uint64_t discarded_before = engine->stats().points_discarded;
        const uint64_t allocs = CountAllocations(
            [&] { engine->InsertBatch(all.subspan(kWarmup)); });
        const uint64_t accepted =
            kProbe - (engine->stats().points_discarded - discarded_before);
        ASSERT_GT(accepted, kProbe / 100) << "the probe must exercise accepts";
        if (kind == EngineKind::kUniform) {
          EXPECT_EQ(allocs, 0u) << "accepted=" << accepted;
        } else {
          EXPECT_LE(allocs, accepted / 20) << "accepted=" << accepted;
        }
        EXPECT_TRUE(engine->CheckConsistency().ok());
      }
    }
  }
}

TEST(HotPathAllocTest, ReserveIsIdempotentAndPreSizes) {
  AdaptiveHull hull(Opts(64));
  hull.Reserve(100000);
  const uint64_t again = CountAllocations([&] { hull.Reserve(100000); });
  EXPECT_EQ(again, 0u) << "Reserve must be idempotent once capacities exist";
}

}  // namespace
}  // namespace streamhull
