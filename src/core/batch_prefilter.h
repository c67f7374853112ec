// streamhull: the batched-ingestion prefilter shared by the sampled-hull
// engines (UniformHull and AdaptiveHull).
//
// A point strictly inside an engine's sampled polygon cannot win any sample
// direction, so InsertBatch can discard it without running the winning-set
// machinery. BatchPrefilter certifies that interiority conservatively, in
// two tiers: a SIMD lane kernel over a coarse <= 8-vertex sub-polygon
// (kernels::CertifyInteriorBatch), then an O(log m) wedge test against the
// full polygon with a margin that dominates every floating-point predicate
// error. Both tiers discard only points provably unable to win a direction,
// so the summary is bit-identical to point-at-a-time insertion whichever
// tier fires. See DESIGN.md, "Batched ingestion" and "SIMD kernels".

#ifndef STREAMHULL_CORE_BATCH_PREFILTER_H_
#define STREAMHULL_CORE_BATCH_PREFILTER_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "geom/kernels.h"
#include "geom/point.h"
#include "geom/soa.h"

namespace streamhull {

/// \brief The InsertBatch loop of a sampled-hull engine: the prefilter
/// cache (coordinate scale and SoA coarse polygon), its two rejection
/// tiers, and the refresh cooldown. Holds no summary state.
class BatchPrefilter {
 public:
  /// Pre-sizes the SoA mirror; rebuilds allocate nothing afterwards.
  void Reserve() { soa_.Reserve(kSoaMaxEdges); }

  /// \brief Offers every point of \p points to a non-empty engine.
  ///
  /// \p polygon is the engine's distinct sample vertices in CCW order (the
  /// vertex-run array itself; it is re-read after every accepted point).
  /// \p insert runs the engine's full insertion path for one point and
  /// returns true when the point won a direction. It must read neither
  /// \p *num_points nor the ingestion counters, which the SIMD tier
  /// updates once per block. Counts one batch, plus each point as
  /// processed and each rejection as discarded, in \p *stats.
  template <class InsertFn>
  void Run(std::span<const Point2> points, const std::vector<Point2>& polygon,
           uint64_t* num_points, AdaptiveHullStats* stats, InsertFn&& insert);

 private:
  // Points per SIMD prefilter block (a multiple of every lane width).
  static constexpr size_t kBlock = 8;
  // After an accepted point invalidates the cache, the next refresh waits
  // for (vertex count / kCooldownDivisor) offered points, which take the
  // plain insert path meanwhile (DESIGN.md, "Cooldown").
  static constexpr size_t kCooldownDivisor = 8;
  // The coarse sub-polygon of the lane kernel: every stride-th vertex, so
  // at most kSoaMaxEdges edges are tested per point regardless of r.
  // 8 keeps the kernel at two 4-lane edge groups per point: a coarser
  // sub-polygon certifies slightly fewer near-boundary interiors (they
  // fall to the wedge tier, unchanged summary), but halves the edge-loop
  // cost paid by every block the inscribed circle cannot dispose of.
  static constexpr size_t kSoaMaxEdges = 8;

  // Rebuilds the cache from the polygon: the coordinate scale for the
  // error margins and the SoA coarse sub-polygon.
  void Refresh(std::span<const Point2> polygon, AdaptiveHullStats* stats);
  // True only when p is strictly inside the polygon by a margin that
  // dominates every floating-point predicate error, so the point provably
  // cannot win any sample direction. False answers are allowed (the point
  // just takes the full insert path).
  bool Rejects(std::span<const Point2> polygon, Point2 p) const;
  // p strictly left of the line a -> b by a certified margin.
  static bool StrictlyLeftByMargin(Point2 a, Point2 b, Point2 p,
                                   double scale);

  double scale_ = 0;
  PolygonEdgeSoA soa_;
  std::array<uint8_t, kBlock> mask_{};
};

// Strict left-of-segment test with a certified margin: returns true only
// when Orient(a, b, p) is positive in exact arithmetic AND p is at least
// ~1e-12 * scale away from the supporting line. The first summand covers
// the rounding error of the determinant itself (Shewchuk's A-estimate has
// constant ~3.3e-16; 1e-12 gives >1000x slack), the second converts the
// required Euclidean clearance into determinant units via |b - a|_1.
inline bool BatchPrefilter::StrictlyLeftByMargin(Point2 a, Point2 b,
                                                 Point2 p, double scale) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double t1 = dx * (p.y - a.y);
  const double t2 = dy * (p.x - a.x);
  const double margin =
      1e-12 * (std::abs(t1) + std::abs(t2) +
               scale * (std::abs(dx) + std::abs(dy)));
  return t1 - t2 > margin;
}

inline bool BatchPrefilter::Rejects(std::span<const Point2> v,
                                    Point2 p) const {
  const size_t m = v.size();
  if (m < 3) {
    // Degenerate caches (a repeated-point or collinear-start stream) still
    // prefilter, but only where a certificate exists. An exact duplicate of
    // a stored vertex evaluates every dot-product comparison to the
    // identical float, so the strict > can never fire: provably a no-op.
    // (NaN coordinates fail == and fall through to the full path.)
    if (m == 1) return p == v[0];
    if (m == 2) {
      if (p == v[0] || p == v[1]) return true;
      // Axis-aligned collinear and strictly between the endpoints: with
      // the off-axis coordinate exactly shared, every dot-product
      // comparison reduces to fl(c*t + k) vs fl(c*t' + k) with t strictly
      // between t' of the endpoints — rounding a monotone function keeps
      // it weakly monotone, and a cache this small means incumbents came
      // from the brute winning-set path (FP running maxima), so the
      // duplicate-free strict > cannot fire. General-slope collinearity
      // has no such certificate and takes the full path.
      const Point2 a = v[0];
      const Point2 b = v[1];
      if (a.y == b.y && p.y == a.y) {
        return p.x > std::min(a.x, b.x) && p.x < std::max(a.x, b.x);
      }
      if (a.x == b.x && p.x == a.x) {
        return p.y > std::min(a.y, b.y) && p.y < std::max(a.y, b.y);
      }
      return false;
    }
    return false;
  }
  const double scale = std::max({scale_, std::abs(p.x), std::abs(p.y)});
  // Wedge binary search from v[0] (plain predicates; a wrong wedge near a
  // degeneracy only makes the final margin tests fail, never misreject).
  const Point2 v0 = v[0];
  if (Orient(v0, v[1], p) < 0 || Orient(v0, v[m - 1], p) > 0) return false;
  size_t lo = 1, hi = m - 1;
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Orient(v0, v[mid], p) >= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // p must be strictly inside triangle (v0, v[lo], v[hi]) by the certified
  // margin. The triangle is contained in the sampled polygon, so clearance
  // from its sides lower-bounds clearance from the polygon boundary, which
  // in turn dominates the dot-product noise of every sample-direction
  // comparison: the point provably wins no sample direction (see
  // DESIGN.md).
  return StrictlyLeftByMargin(v0, v[lo], p, scale) &&
         StrictlyLeftByMargin(v[lo], v[hi], p, scale) &&
         StrictlyLeftByMargin(v[hi], v0, p, scale);
}

template <class InsertFn>
void BatchPrefilter::Run(std::span<const Point2> points,
                         const std::vector<Point2>& polygon,
                         uint64_t* num_points, AdaptiveHullStats* stats,
                         InsertFn&& insert) {
  ++stats->batches;
  bool cache_valid = false;
  // Each accepted point invalidates the cache; rebuilding it costs O(r).
  // The cooldown makes the next rebuild wait for ~vertices/divisor offered
  // points (which meanwhile take the plain insert path), so accept-heavy
  // streams pay O(1) amortized refresh work per point instead of O(r),
  // while interior-heavy streams — where accepts are rare — still spend
  // almost the whole batch in the prefilter. The wait is sized from the
  // polygon the cache was built from, before the accept changed it.
  size_t cooldown = 0;
  size_t cooldown_after_accept = 0;
  // The SIMD tier only pays off when a lane kernel actually backs it;
  // under scalar dispatch the wedge test alone is the faster filter.
  const bool use_lanes = ActiveSimdIsa() != SimdIsa::kScalar;
  size_t i = 0;
  while (i < points.size()) {
    if (!cache_valid) {
      const Point2 p = points[i];
      ++stats->points_processed;
      ++*num_points;
      ++i;
      if (cooldown > 0) {
        --cooldown;
        insert(p);
        continue;
      }
      Refresh(polygon, stats);
      cache_valid = true;
      cooldown_after_accept = polygon.size() / kCooldownDivisor;
      // Fall through: p must still be offered against the fresh cache.
      if (Rejects(polygon, p)) {
        ++stats->points_discarded;
        ++stats->batch_prefilter_rejections;
        ++stats->batch_scalar_rejections;
        continue;
      }
      if (insert(p)) {
        cache_valid = false;
        cooldown = cooldown_after_accept;
      }
      continue;
    }
    if (use_lanes && soa_.CanCertify()) {
      // SIMD tier: certify a block of points against the coarse
      // sub-polygon in one branch-free sweep, then walk the mask. An
      // accepted point invalidates the cache mid-block; the remaining
      // mask entries are discarded (they were certified against the
      // now-stale polygon).
      const size_t block = std::min(kBlock, points.size() - i);
      CertifyInteriorBatch(soa_, points.data() + i, block, mask_.data());
      // Counters accumulate in locals and flush once per block: the
      // counter RMWs alias the (char-typed) mask array in the compiler's
      // eyes, so per-point increments would re-load the mask every
      // iteration. The insert path never reads *num_points or the
      // ingestion counters, so deferring the flush is unobservable.
      size_t j = 0;
      uint64_t lane_rejects = 0;
      uint64_t wedge_rejects = 0;
      for (; j < block; ++j) {
        if (mask_[j]) {
          ++lane_rejects;
          continue;
        }
        const Point2 p = points[i + j];
        if (Rejects(polygon, p)) {
          ++wedge_rejects;
          continue;
        }
        if (insert(p)) {
          cache_valid = false;
          cooldown = cooldown_after_accept;
          ++j;
          break;
        }
      }
      i += j;
      stats->points_processed += j;
      *num_points += j;
      stats->points_discarded += lane_rejects + wedge_rejects;
      stats->batch_prefilter_rejections += lane_rejects + wedge_rejects;
      stats->batch_simd_rejections += lane_rejects;
      stats->batch_scalar_rejections += wedge_rejects;
      continue;
    }
    // Scalar tier: the O(log m) wedge test, one point at a time.
    const Point2 p = points[i];
    ++stats->points_processed;
    ++*num_points;
    ++i;
    if (Rejects(polygon, p)) {
      ++stats->points_discarded;
      ++stats->batch_prefilter_rejections;
      ++stats->batch_scalar_rejections;
      continue;
    }
    // Full per-point pipeline; identical to Insert().
    if (insert(p)) {
      cache_valid = false;
      cooldown = cooldown_after_accept;
    }
  }
}

}  // namespace streamhull

#endif  // STREAMHULL_CORE_BATCH_PREFILTER_H_
