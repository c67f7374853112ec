// streamhull: visibility queries on convex vertex sequences.
//
// FindVisibleChain locates, for an exterior query point q, the contiguous
// run of polygon edges that q can see (equivalently, the chain between the
// two tangent points from q). The adaptive hull's per-point update (§5.2,
// Step 1) and the uniform hull's insertion (§3.1, Fig. 5) both reduce to
// this query: the sample directions a new point wins form exactly the arc of
// outward normals of the visible chain.
//
// The functions are templates over a View concept --
//
//     size_t View::size() const;          // vertex count m
//     Point2 View::operator[](size_t i);  // i-th vertex, CCW order
//
// -- so the same code serves any random-access CCW vertex sequence, such as
// a std::vector (the adaptive hull's vertex-run array is one). The fast
// path runs in O(log m) view accesses: a fan binary search from vertex 0
// finds one visible edge, then exponential (galloping) searches locate the
// two ends of the visible run. A linear-scan reference implementation is
// used for small polygons and as the differential-testing oracle.
//
// Degeneracy policy: an edge is visible iff q is *strictly* outside its
// supporting line. Points exactly on the boundary (or collinear with an
// edge) see nothing and are reported as "not outside", matching the strict
// comparison the sampling algorithm uses to decide whether a new point
// displaces a stored extremum.

#ifndef STREAMHULL_GEOM_CONVEX_VIEW_H_
#define STREAMHULL_GEOM_CONVEX_VIEW_H_

#include <cmath>
#include <cstddef>
#include <optional>

#include "common/check.h"
#include "geom/point.h"

namespace streamhull {

/// \brief The contiguous run of edges visible from an exterior point.
///
/// Edge i is the segment (v_i, v_{i+1 mod m}). The run goes CCW from
/// first_edge to last_edge (inclusive; it may wrap past index 0). The right
/// tangent point from q is v_{first_edge}; the left tangent point is
/// v_{last_edge + 1 mod m}.
struct VisibleChain {
  size_t first_edge = 0;
  size_t last_edge = 0;
};

namespace internal {

/// True iff edge (a, b) of a CCW polygon is strictly visible from q.
inline bool EdgeVisible(Point2 a, Point2 b, Point2 q) {
  return Orient(a, b, q) < 0;
}

}  // namespace internal

/// \brief Reference implementation: O(m) scan over all edges.
///
/// \returns std::nullopt when q sees no edge (inside or on the boundary).
/// Zero-length edges (duplicate consecutive vertices) are never visible.
template <class View>
std::optional<VisibleChain> FindVisibleChainBrute(const View& view, Point2 q) {
  const size_t m = view.size();
  if (m == 0) return std::nullopt;
  if (m == 1) return std::nullopt;
  // Collect visibility flags; the visible set of a convex polygon is a
  // single circular run.
  bool any_visible = false;
  bool any_invisible = false;
  // Find an invisible edge to anchor the run search.
  size_t anchor = m;  // Index of some invisible edge.
  for (size_t i = 0; i < m; ++i) {
    Point2 a = view[i];
    Point2 b = view[(i + 1) % m];
    if (a == b) {
      any_invisible = true;
      anchor = i;
      continue;
    }
    if (internal::EdgeVisible(a, b, q)) {
      any_visible = true;
    } else {
      any_invisible = true;
      anchor = i;
    }
  }
  if (!any_visible) return std::nullopt;
  if (!any_invisible) {
    // q sees every edge: possible only for degenerate (flat) polygons where
    // all vertices are collinear. Treat the whole boundary as visible,
    // starting at edge 0.
    return VisibleChain{0, m - 1};
  }
  // Walk CCW from the anchor; the run of visible edges is contiguous.
  size_t first = m, last = m;
  for (size_t s = 1; s <= m; ++s) {
    size_t i = (anchor + s) % m;
    Point2 a = view[i];
    Point2 b = view[(i + 1) % m];
    bool vis = (a != b) && internal::EdgeVisible(a, b, q);
    if (vis && first == m) first = i;
    if (vis) last = i;
    if (!vis && first != m) break;  // Run ended.
  }
  SH_DCHECK(first != m);
  return VisibleChain{first, last};
}

// (Boundary location between the visible and invisible runs uses anchored
// binary searches; see FindVisibleChain. Doubling/galloping search is
// unsound here: on a circular sequence it can leap across the invisible run
// and land back inside the visible one.)

/// \brief O(log m) visible-chain search (O(log^2 m) when view access is
/// itself logarithmic).
///
/// Phases: (1) a fan binary search from vertex 0 locates one visible edge or
/// proves q is inside; (2) a binary search over the (circularly monotone)
/// edge-normal angles locates a *provably invisible* barrier edge — any edge
/// whose outward normal n satisfies dot(n, v0 - q) >= 0 has q inside its
/// supporting half-plane; (3) two anchored binary searches between the
/// visible edge and the barrier find the ends of the visible run.
///
/// Falls back to the linear reference for m <= 16 and for the rare
/// degenerate configurations the searches cannot classify (query point
/// collinear with fan boundary rays, zero-length edges at the barrier).
template <class View>
std::optional<VisibleChain> FindVisibleChain(const View& view, Point2 q) {
  const size_t m = view.size();
  if (m <= 16) return FindVisibleChainBrute(view, q);

  const Point2 v0 = view[0];
  const Point2 v1 = view[1];
  const Point2 vm = view[m - 1];

  // Phase 1: locate one visible edge (or conclude containment).
  size_t s_v = m;
  const double o_first = Orient(v0, v1, q);
  const double o_last = Orient(v0, vm, q);
  if (o_first >= 0 && o_last <= 0) {
    // q lies inside the fan cone at v0 spanned by rays v0->v1 and v0->v_{m-1}.
    if (o_first == 0 || o_last == 0) {
      // On a fan boundary ray: ambiguous wedge; use the reference scan.
      return FindVisibleChainBrute(view, q);
    }
    // Binary search: largest i in [1, m-1] with q left of (or on) ray v0->vi.
    size_t lo = 1, hi = m - 1;  // Invariant: Orient(v0, v_lo, q) >= 0 > at hi.
    while (hi - lo > 1) {
      size_t mid = lo + (hi - lo) / 2;
      if (Orient(v0, view[mid], q) >= 0) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    // q is in wedge (v_lo, v_hi); it is outside iff beyond edge (v_lo, v_hi).
    if (!internal::EdgeVisible(view[lo], view[hi], q)) {
      return std::nullopt;  // Inside or on the boundary.
    }
    s_v = lo;
  } else {
    // q is outside the cone at v0, so one of the two edges incident to v0 is
    // strictly visible (the cone is the intersection of the two supporting
    // half-planes at v0).
    if (internal::EdgeVisible(v0, v1, q)) {
      s_v = 0;
    } else if (internal::EdgeVisible(vm, v0, q)) {
      s_v = m - 1;
    } else {
      // Numerically on a supporting line: defer to the reference scan.
      return FindVisibleChainBrute(view, q);
    }
  }

  // Phase 2: find an invisible barrier edge. For u = v0 - q (pointing from q
  // at the polygon), every edge whose outward normal n has dot(n, u) >= 0 is
  // invisible: dot(q, n) = dot(v0, n) - dot(u, n) <= dot(v0, n) <= h(n).
  // Outward normals rotate monotonically CCW with the edge index, so the
  // edge whose normal is nearest u is found by binary search on the normal
  // angle relative to edge 0's normal; consecutive normals differ by less
  // than pi (convexity), so one of the two bracketing edges qualifies.
  const Point2 u = v0 - q;
  if (u == Point2{0, 0}) return FindVisibleChainBrute(view, q);
  // Angular comparisons use exact cross/dot sign predicates instead of
  // atan2: classify a vector into the half-turn [0, pi) or [pi, 2*pi) of
  // CCW angle from edge 0's normal, then order within a half-turn by a
  // single cross product. atan2 here was a measured hot spot (a handful of
  // libm calls per outside query), and the searched-for barrier need not
  // be a specific edge — any provably invisible edge works, and both
  // candidates are verified with EdgeVisible below.
  auto normal = [&](size_t e) {
    return (view[(e + 1) % m] - view[e]).PerpCw();
  };
  const Point2 nbase = normal(0);
  auto half = [&](Point2 w) {
    const double cr = nbase.x * w.y - nbase.y * w.x;
    if (cr > 0) return 0;
    if (cr < 0) return 1;
    const double dt = nbase.x * w.x + nbase.y * w.y;
    return dt >= 0 ? 0 : 1;
  };
  const int u_half = half(u);
  // True iff the CCW angle from nbase to w does not exceed the angle to u.
  // Within one half-turn the angular gap is < pi, so the sign of
  // cross(w, u) decides the order.
  auto angle_le_u = [&](Point2 w) {
    const int wh = half(w);
    if (wh != u_half) return wh < u_half;
    return w.x * u.y - w.y * u.x >= 0;
  };
  size_t blo = 0, bhi = m;  // Largest edge index with rel angle <= u's.
  while (bhi - blo > 1) {
    const size_t mid = blo + (bhi - blo) / 2;
    if (angle_le_u(normal(mid))) {
      blo = mid;
    } else {
      bhi = mid;
    }
  }
  size_t s_i = m;
  for (const size_t cand : {blo, (blo + 1) % m}) {
    const Point2 a = view[cand];
    const Point2 b = view[(cand + 1) % m];
    if (!(a == b) && !internal::EdgeVisible(a, b, q)) {
      s_i = cand;
      break;
    }
  }
  if (s_i == m || s_i == s_v) return FindVisibleChainBrute(view, q);

  // Phase 3: the circular visibility sequence has exactly one transition in
  // each of the arcs (s_i -> s_v) and (s_v -> s_i); binary search both.
  auto vis = [&](size_t e) {
    const Point2 a = view[e];
    const Point2 b = view[(e + 1) % m];
    return !(a == b) && internal::EdgeVisible(a, b, q);
  };
  const size_t off_v = (s_v + m - s_i) % m;
  size_t lo2 = 0, hi2 = off_v;  // vis false at offset 0, true at off_v.
  while (hi2 - lo2 > 1) {
    const size_t mid = lo2 + (hi2 - lo2) / 2;
    if (vis((s_i + mid) % m)) {
      hi2 = mid;
    } else {
      lo2 = mid;
    }
  }
  const size_t first = (s_i + hi2) % m;
  const size_t off_i = (s_i + m - s_v) % m;
  size_t lo3 = 0, hi3 = off_i;  // vis true at offset 0, false at off_i.
  while (hi3 - lo3 > 1) {
    const size_t mid = lo3 + (hi3 - lo3) / 2;
    if (vis((s_v + mid) % m)) {
      lo3 = mid;
    } else {
      hi3 = mid;
    }
  }
  const size_t last = (s_v + lo3) % m;
  return VisibleChain{first, last};
}

}  // namespace streamhull

#endif  // STREAMHULL_GEOM_CONVEX_VIEW_H_
