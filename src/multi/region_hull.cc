#include "multi/region_hull.h"

#include <utility>

#include "common/check.h"
#include "geom/convex_hull.h"
#include "runtime/parallel_for.h"

namespace streamhull {

std::unique_ptr<RegionPartitionedHull> RegionPartitionedHull::Create(
    std::vector<ConvexPolygon> regions, const AdaptiveHullOptions& options,
    Status* status) {
  *status = options.Validate();
  if (!status->ok()) return nullptr;
  if (regions.empty()) {
    *status = Status::InvalidArgument("at least one region is required");
    return nullptr;
  }
  for (const ConvexPolygon& region : regions) {
    if (region.size() < 3) {
      *status = Status::InvalidArgument(
          "regions must be non-degenerate convex polygons (>= 3 vertices)");
      return nullptr;
    }
  }
  *status = Status::OK();
  return std::unique_ptr<RegionPartitionedHull>(
      new RegionPartitionedHull(std::move(regions), options));
}

RegionPartitionedHull::RegionPartitionedHull(
    std::vector<ConvexPolygon> regions, const AdaptiveHullOptions& options)
    : regions_(std::move(regions)) {
  hulls_.reserve(regions_.size());
  for (size_t i = 0; i < regions_.size(); ++i) {
    hulls_.push_back(std::make_unique<AdaptiveHull>(options));
  }
  outliers_ = std::make_unique<AdaptiveHull>(options);
}

void RegionPartitionedHull::Insert(Point2 p) {
  ++total_;
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].Contains(p)) {
      hulls_[i]->Insert(p);
      return;
    }
  }
  outliers_->Insert(p);
}

void RegionPartitionedHull::InsertBatch(std::span<const Point2> points,
                                        ThreadPool* pool) {
  if (points.empty()) return;
  total_ += points.size();
  // Route on the calling thread (first-match, same as Insert), preserving
  // stream order within each bucket.
  route_buckets_.resize(regions_.size() + 1);
  for (auto& bucket : route_buckets_) bucket.clear();
  for (const Point2& p : points) {
    size_t target = regions_.size();  // Catch-all.
    for (size_t i = 0; i < regions_.size(); ++i) {
      if (regions_[i].Contains(p)) {
        target = i;
        break;
      }
    }
    route_buckets_[target].push_back(p);
  }
  // Fan out per bucket, so every summary has exactly one writer. The
  // ParallelFor barrier keeps the call synchronous (and the buckets safe to
  // reuse) despite the parallel interior.
  ParallelFor(pool, route_buckets_.size(), /*min_chunk=*/1, [&](size_t i) {
    if (!route_buckets_[i].empty()) HullAt(i).InsertBatch(route_buckets_[i]);
  });
}

std::vector<ConvexPolygon> RegionPartitionedHull::Shape() const {
  std::vector<ConvexPolygon> shape;
  for (const auto& hull : hulls_) {
    if (!hull->empty()) shape.push_back(hull->Polygon());
  }
  if (!outliers_->empty()) shape.push_back(outliers_->Polygon());
  return shape;
}

std::string RegionPartitionedHull::EncodeRegionView(size_t i) const {
  SH_CHECK(i <= regions_.size());
  const AdaptiveHull& hull = HullAt(i);
  if (hull.empty()) return std::string();
  return EncodeSummaryView(hull);
}

std::vector<std::string> RegionPartitionedHull::EncodeAllRegionViews(
    ThreadPool* pool) const {
  const size_t n = regions_.size() + 1;
  std::vector<std::string> views(n);
  // Each index reads one summary and writes one slot: disjoint const reads
  // (AdaptiveHull's const accessors are thread-compatible) and disjoint
  // writes, so the ParallelFor barrier is the only synchronization needed.
  ParallelFor(pool, n, /*min_chunk=*/1,
              [&](size_t i) { views[i] = EncodeRegionView(i); });
  return views;
}

Status RegionPartitionedHull::EncodeRegionDelta(size_t i,
                                                uint64_t base_generation,
                                                std::string* out) {
  if (i > regions_.size()) {
    return Status::OutOfRange("region index out of range");
  }
  AdaptiveHull& hull = HullAt(i);
  if (hull.empty()) {
    return Status::FailedPrecondition(
        "region summary is empty; nothing to delta-encode");
  }
  return hull.EncodeSummaryDelta(base_generation, out);
}

std::string RegionPartitionedHull::EncodeRegionResync(size_t i) {
  SH_CHECK(i <= regions_.size());
  AdaptiveHull& hull = HullAt(i);
  if (hull.empty()) return std::string();
  return hull.EncodeView();
}

Status RegionPartitionedHull::MergeDecodedDelta(size_t i,
                                                std::string_view delta_bytes,
                                                DecodedSummaryView* peer_view) {
  if (i > regions_.size()) {
    return Status::OutOfRange("region index out of range");
  }
  std::vector<HullSample> upserted;
  STREAMHULL_RETURN_IF_ERROR(
      ApplySummaryDelta(delta_bytes, peer_view, &upserted));
  if (upserted.empty()) return Status::OK();
  std::vector<Point2> points;
  points.reserve(upserted.size());
  for (const HullSample& s : upserted) points.push_back(s.point);
  total_ += HullAt(i).InsertDeduped(points);
  return Status::OK();
}

Status RegionPartitionedHull::MergeDecodedView(size_t i,
                                               const DecodedSummaryView& view) {
  if (i > regions_.size()) {
    return Status::OutOfRange("region index out of range");
  }
  if (view.samples.empty()) {
    return Status::InvalidArgument("cannot merge an empty summary view");
  }
  AdaptiveHull& hull = HullAt(i);
  std::vector<Point2> points;
  points.reserve(view.samples.size());
  for (const HullSample& s : view.samples) points.push_back(s.point);
  total_ += hull.InsertDeduped(points);
  return Status::OK();
}

ConvexPolygon RegionPartitionedHull::UnionHull() const {
  std::vector<Point2> vertices;
  for (const ConvexPolygon& poly : Shape()) {
    vertices.insert(vertices.end(), poly.vertices().begin(),
                    poly.vertices().end());
  }
  return ConvexPolygon::HullOf(std::move(vertices));
}

}  // namespace streamhull
