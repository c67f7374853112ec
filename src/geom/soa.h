// streamhull: structure-of-arrays layouts for the vectorized geometry
// kernels (geom/kernels.h).
//
// The batched-ingestion prefilter and the half-plane clipping loop both
// reduce to the same shape of work: one small fixed geometric object (a
// cached convex polygon, a clip line) tested against many points. The
// scalar representations (vector<Point2>, pointer-chased polygons) make
// that loop AoS and branchy; the types here store the *per-edge constants*
// of those tests as parallel double arrays, padded to the widest SIMD lane
// count, so a kernel can broadcast one edge and test 4-8 points per
// instruction with nothing but contiguous loads.

#ifndef STREAMHULL_GEOM_SOA_H_
#define STREAMHULL_GEOM_SOA_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "geom/point.h"

namespace streamhull {

/// \brief Number of doubles per SIMD lane group the SoA layouts pad to
/// (AVX2: 4 doubles per 256-bit register; NEON pairs two 128-bit halves).
inline constexpr size_t kSoaLaneWidth = 4;

/// \brief A convex polygon stored as per-edge test constants in parallel
/// arrays, the input layout of kernels::CertifyInteriorBatch.
///
/// For each directed CCW edge a -> b the arrays hold the anchor a, the
/// edge vector d = b - a, and the precomputed margin factor |dx| + |dy|
/// (the \f$L_1\f$ norm converting Euclidean clearance into determinant
/// units; see StrictlyLeftByMargin in core/batch_prefilter.h). The arrays
/// are padded to a multiple of kSoaLaneWidth by repeating edge 0 — a
/// *real* edge, so padded lanes run a genuine test whose conjunction with
/// the unpadded edges changes nothing.
struct PolygonEdgeSoA {
  std::vector<double> ax, ay;  ///< Edge anchor (vertex i).
  std::vector<double> dx, dy;  ///< Edge vector (vertex i+1 - vertex i).
  std::vector<double> sabs;    ///< |dx| + |dy| per edge (margin factor).
  size_t num_edges = 0;        ///< Unpadded edge count (== vertex count).
  double scale = 0;            ///< max |coordinate| over the vertices.

  /// \brief Certified inscribed circle, the kernels' O(1) fast accept:
  /// any point with (x-cx)^2 + (y-cy)^2 < rin2 is strictly interior with
  /// Euclidean clearance comfortably above the edge tests' margin band.
  /// Built by shrinking the exact centroid-to-edge minimum distance by a
  /// relative 1e-9 (covers the distance computation's own rounding) plus
  /// an absolute 1e-10 * scale (dominates the clearance any downstream
  /// no-op certificate needs, which is ~1e-12 * scale). 0 disables the
  /// tier — thin or degenerate polygons certify through the edge loop
  /// alone, never wrongly.
  double cx = 0, cy = 0;  ///< Circle center (vertex centroid).
  double rin2 = 0;        ///< Squared certified inscribed radius.

  /// Padded length of every array (multiple of kSoaLaneWidth).
  size_t padded_edges() const { return ax.size(); }

  /// True when the polygon can certify strict interiority at all: fewer
  /// than 3 edges bound no area (degenerate caches take the scalar path).
  bool CanCertify() const { return num_edges >= 3; }

  /// \brief Rebuilds the arrays from a CCW vertex ring, taking every
  /// `stride`-th vertex (stride 1 = all edges; larger strides build the
  /// *coarse sub-polygon* of the prefilter: any subset of a convex
  /// polygon's vertices spans a convex polygon contained in it, so strict
  /// interiority w.r.t. the subset implies it w.r.t. the full polygon).
  /// Reuses capacity: after one reservation, rebuilds allocate nothing.
  void Build(std::span<const Point2> ccw_verts, size_t stride,
             double coord_scale) {
    Clear();
    scale = coord_scale;
    if (stride == 0) stride = 1;
    const size_t n = ccw_verts.size();
    for (size_t i = 0; i < n; i += stride) {
      const size_t j = (i + stride < n) ? i + stride : 0;
      if (j == i) break;
      const Point2 a = ccw_verts[i];
      const Point2 b = ccw_verts[j];
      ax.push_back(a.x);
      ay.push_back(a.y);
      dx.push_back(b.x - a.x);
      dy.push_back(b.y - a.y);
      sabs.push_back(std::abs(b.x - a.x) + std::abs(b.y - a.y));
    }
    num_edges = ax.size();
    // Pad with copies of edge 0 so kernels need no tail handling.
    while (ax.size() % kSoaLaneWidth != 0) {
      ax.push_back(ax[0]);
      ay.push_back(ay[0]);
      dx.push_back(dx[0]);
      dy.push_back(dy[0]);
      sabs.push_back(sabs[0]);
    }
    BuildInscribedCircle();
  }

  /// Empties the arrays without releasing capacity.
  void Clear() {
    ax.clear();
    ay.clear();
    dx.clear();
    dy.clear();
    sabs.clear();
    num_edges = 0;
    scale = 0;
    cx = cy = rin2 = 0;
  }

  /// \brief Computes the certified inscribed circle of the stored edges
  /// (cold path: once per cache refresh, O(edges) with one sqrt per edge).
  void BuildInscribedCircle() {
    cx = cy = rin2 = 0;
    if (num_edges < 3) return;
    double sx = 0, sy = 0;
    for (size_t e = 0; e < num_edges; ++e) {
      sx += ax[e];
      sy += ay[e];
    }
    cx = sx / static_cast<double>(num_edges);
    cy = sy / static_cast<double>(num_edges);
    double min_dist = std::numeric_limits<double>::infinity();
    for (size_t e = 0; e < num_edges; ++e) {
      const double len = std::sqrt(dx[e] * dx[e] + dy[e] * dy[e]);
      if (!(len > 0)) return;  // Degenerate edge: tier disabled.
      // CCW edges keep the interior to the left: cross > 0 inside.
      const double cross = dx[e] * (cy - ay[e]) - dy[e] * (cx - ax[e]);
      const double dist = cross / len;
      // A non-finite distance (overflowing coordinates) could hide the
      // true minimum; the only safe answer is no circle at all.
      if (!std::isfinite(dist)) return;
      min_dist = std::min(min_dist, dist);
    }
    const double rin = min_dist * (1.0 - 1e-9) - 1e-10 * scale;
    if (!(rin > 0)) return;
    const double r2 = rin * rin;
    if (std::isfinite(r2)) rin2 = r2;
  }

  /// Pre-sizes every array for \p edges edges plus padding.
  void Reserve(size_t edges) {
    const size_t cap = edges + kSoaLaneWidth;
    ax.reserve(cap);
    ay.reserve(cap);
    dx.reserve(cap);
    dy.reserve(cap);
    sabs.reserve(cap);
  }
};

}  // namespace streamhull

#endif  // STREAMHULL_GEOM_SOA_H_
