#include "core/batch_prefilter.h"

#include <cmath>

namespace streamhull {

void BatchPrefilter::Refresh(std::span<const Point2> polygon,
                             AdaptiveHullStats* stats) {
  // The engine's vertex-run array already is the distinct CCW polygon the
  // prefilter tests against; only its coordinate scale and SoA mirror are
  // derived here.
  double scale = 0;
  for (const Point2& v : polygon) {
    scale = std::max({scale, std::abs(v.x), std::abs(v.y)});
  }
  scale_ = scale;
  ++stats->batch_cache_refreshes;
  // SoA mirror for the SIMD tier: a coarse sub-polygon of every stride-th
  // vertex, capped at kSoaMaxEdges edges. Any vertex subset of a convex
  // polygon spans a convex polygon contained in it, so certifying strict
  // interiority against the subset certifies it against the full polygon —
  // and the lane kernel's cost stays O(1) per point no matter how large r
  // makes the polygon.
  const size_t m = polygon.size();
  const size_t stride = (m + kSoaMaxEdges - 1) / kSoaMaxEdges;
  if (m >= 3) {
    soa_.Build(polygon, stride, scale_);
  } else {
    soa_.Clear();
  }
}

}  // namespace streamhull
