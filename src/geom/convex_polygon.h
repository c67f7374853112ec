// streamhull: immutable convex polygon value type.
//
// ConvexPolygon is the exchange format between the streaming summaries
// (which materialize their current approximate hull into one) and the query
// layer in src/queries (diameter, width, separation, overlap, ...). It
// stores vertices in CCW order and provides the basic O(log n) geometric
// searches (point containment, extreme vertex, tangents) plus O(n)
// aggregates (area, perimeter).

#ifndef STREAMHULL_GEOM_CONVEX_POLYGON_H_
#define STREAMHULL_GEOM_CONVEX_POLYGON_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "geom/convex_view.h"
#include "geom/point.h"

namespace streamhull {

/// \brief A convex polygon: vertices in counterclockwise order.
///
/// Degenerate instances (0, 1 or 2 vertices; collinear vertex runs) are
/// permitted — streaming hulls pass through such states — and every query
/// handles them.
class ConvexPolygon {
 public:
  ConvexPolygon() = default;

  /// Wraps \p vertices, which must already be convex and CCW (as produced by
  /// ConvexHullOf or by the streaming summaries).
  explicit ConvexPolygon(std::vector<Point2> vertices)
      : vertices_(std::move(vertices)) {}

  /// Builds the convex hull of an arbitrary point set.
  static ConvexPolygon HullOf(std::vector<Point2> points);

  /// Number of vertices.
  size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }
  /// Vertex access, CCW order. \p i must be < size().
  Point2 operator[](size_t i) const { return vertices_[i]; }
  /// Vertex access with circular index (any non-negative i).
  Point2 At(size_t i) const { return vertices_[i % vertices_.size()]; }
  const std::vector<Point2>& vertices() const { return vertices_; }

  /// Sum of edge lengths. Degenerate polygons: 0 for <=1 vertex, twice the
  /// segment length for 2 vertices (the boundary traverses it both ways).
  double Perimeter() const;

  /// Enclosed area (shoelace). Zero for degenerate polygons.
  double Area() const;

  /// Centroid of the vertex set (not the area centroid); (0,0) when empty.
  Point2 VertexCentroid() const;

  /// \brief True iff \p q is inside or on the boundary. O(log n) via the
  /// visible-chain search (a point is outside iff it sees an edge).
  bool Contains(Point2 q) const;

  /// O(n) reference version of Contains for differential testing.
  bool ContainsBrute(Point2 q) const;

  /// \brief Index of a vertex with maximum dot product against \p dir
  /// (the extreme vertex in that direction). O(n). Requires size() >= 1.
  size_t ExtremeVertexBrute(Point2 dir) const;

  /// \brief O(log n) extreme-vertex search. Requires size() >= 1 and the
  /// polygon to be non-degenerate enough for ternary search (no long
  /// collinear runs); falls back to the scan for n <= 32.
  size_t ExtremeVertex(Point2 dir) const;

  /// Support function: max over vertices of dot(v, dir). Requires size()>=1.
  double Support(Point2 dir) const { return Dot(vertices_[ExtremeVertex(dir)], dir); }

  /// Extent of the polygon in direction \p dir: Support(dir)+Support(-dir).
  double Extent(Point2 dir) const { return Support(dir) + Support(dir * -1.0); }

  /// \brief Tangent vertices from exterior point \p q:
  /// (right tangent index, left tangent index), i.e. the endpoints of the
  /// chain visible from q. std::nullopt when q is inside or on the polygon.
  std::optional<std::pair<size_t, size_t>> TangentsFrom(Point2 q) const;

  /// Visible chain from \p q (see geom/convex_view.h).
  std::optional<VisibleChain> VisibleChainFrom(Point2 q) const {
    return FindVisibleChain(*this, q);
  }

  /// \brief Distance from \p q to the polygon (0 if inside or on the
  /// boundary). Cost is O(log n + visible-chain length): the nearest
  /// boundary feature of an exterior point lies on its visible chain.
  double DistanceOutside(Point2 q) const;

 private:
  std::vector<Point2> vertices_;
};

/// \brief The run compression every summary applies to turn a CCW
/// sample/vertex sequence into distinct polygon vertices: collapses
/// consecutive duplicate points, then drops trailing points equal to the
/// first (the wrap-around duplicate). Sharing one definition is what makes
/// a decoded snapshot's inner polygon (core/snapshot.h) structurally equal
/// to the producer's Polygon(), not coincidentally so.
inline std::vector<Point2> CompressClosedRuns(std::vector<Point2> verts) {
  std::vector<Point2> out;
  out.reserve(verts.size());
  for (const Point2& p : verts) {
    if (out.empty() || !(out.back() == p)) out.push_back(p);
  }
  while (out.size() > 1 && out.back() == out.front()) out.pop_back();
  return out;
}

/// \brief One Sutherland-Hodgman step: clips the polygon \p subject (CCW
/// vertex ring, modified in place) by the half-plane
///
///     { x : dot(x - anchor, normal) <= 0 }
///
/// boundary inclusive. Crossing points are interpolated parametrically on
/// the clipped edges. The clipping step behind convex intersection
/// (queries/), and the box-clip reference the tests hold
/// SupportIntersection (core/hull_engine.h) against.
void ClipByHalfPlane(std::vector<Point2>* subject, Point2 anchor,
                     Point2 normal);

}  // namespace streamhull

#endif  // STREAMHULL_GEOM_CONVEX_POLYGON_H_
