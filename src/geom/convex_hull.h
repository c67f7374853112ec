// streamhull: static convex hulls (Andrew's monotone chain).
//
// The streaming summaries in src/core approximate the hull; this module
// computes the full hull in O(n log n) for ground truth in tests, error
// measurement in the evaluation harness, and the offline half of the
// comparison experiments. Orientation tests are double-precision, not
// exact predicates, so nearly collinear inputs may be classified either
// way.

#ifndef STREAMHULL_GEOM_CONVEX_HULL_H_
#define STREAMHULL_GEOM_CONVEX_HULL_H_

#include <vector>

#include "geom/point.h"

namespace streamhull {

/// \brief Convex hull of \p points (double-precision orientation tests),
/// counterclockwise, starting from the lexicographically smallest vertex.
///
/// Collinear boundary points are excluded (only true corners are returned);
/// duplicates are handled. Degenerate inputs yield degenerate hulls: a
/// single point for n==1 or all-coincident inputs, two points for collinear
/// inputs.
std::vector<Point2> ConvexHullOf(std::vector<Point2> points);

/// \brief O(n^2) reference hull used by the differential tests: a point is
/// on the hull iff it is not strictly inside the hull of the others.
/// Returns vertices in CCW order.
std::vector<Point2> ConvexHullBrute(const std::vector<Point2>& points);

}  // namespace streamhull

#endif  // STREAMHULL_GEOM_CONVEX_HULL_H_
