// streamhull: reference implementation of the uniformly sampled hull.
//
// This is the "straightforward implementation of the uniform sampling
// strategy" of §3.1: keep one extremum per direction and compare every
// arriving point against all r directions, O(r) time per point. It exists
// as (a) the differential-testing oracle for UniformHull's O(log r) flat
// engine (core/uniform_hull.h), and (b) the baseline whose per-point cost
// the time benchmarks contrast with the paper's searchable-list approach.

#ifndef STREAMHULL_CORE_NAIVE_UNIFORM_HULL_H_
#define STREAMHULL_CORE_NAIVE_UNIFORM_HULL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "geom/convex_polygon.h"
#include "geom/point.h"

namespace streamhull {

/// \brief O(r)-per-point uniformly sampled hull: the extremum in each of r
/// evenly spaced directions.
class NaiveUniformHull {
 public:
  /// \param r number of sample directions (>= 3).
  explicit NaiveUniformHull(uint32_t r) : r_(r) {
    SH_CHECK(r >= 3);
    dirs_.reserve(r);
    const double kTwoPi = 6.283185307179586476925286766559;
    for (uint32_t j = 0; j < r; ++j) {
      dirs_.push_back(UnitVector(kTwoPi * j / r));
    }
  }

  /// \brief Capacity hint mirroring HullEngine::Reserve (this oracle is not
  /// a HullEngine, but the differential suites drive both sides the same
  /// way): pre-sizes the extrema table so the first Insert() does not
  /// allocate it lazily.
  void Reserve(size_t expected_points) {
    (void)expected_points;  // State is O(r) regardless of stream length.
    extrema_.reserve(r_);
  }

  /// Offers a stream point; keeps it iff it is a strict extremum in some
  /// sample direction.
  void Insert(Point2 p) {
    ++points_;
    if (points_ == 1) {
      extrema_.assign(r_, p);
      return;
    }
    for (uint32_t j = 0; j < r_; ++j) {
      if (Dot(p, dirs_[j]) > Dot(extrema_[j], dirs_[j])) extrema_[j] = p;
    }
  }

  /// Number of points offered so far.
  uint64_t num_points() const { return points_; }
  /// Number of sample directions.
  uint32_t r() const { return r_; }
  /// The extremum stored for direction j * 2*pi/r. Requires a nonempty
  /// stream.
  Point2 Extremum(uint32_t j) const {
    SH_CHECK(points_ > 0 && j < r_);
    return extrema_[j];
  }

  /// \brief The approximate hull: distinct extrema in direction order
  /// (CCW). Empty before the first point.
  ConvexPolygon Polygon() const {
    if (points_ == 0) return ConvexPolygon();
    return ConvexPolygon(CompressClosedRuns(extrema_));
  }

 private:
  uint32_t r_;
  uint64_t points_ = 0;
  std::vector<Point2> dirs_;
  std::vector<Point2> extrema_;
};

}  // namespace streamhull

#endif  // STREAMHULL_CORE_NAIVE_UNIFORM_HULL_H_
