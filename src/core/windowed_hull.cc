#include "core/windowed_hull.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "geom/direction.h"

namespace streamhull {

namespace {

// Whether a bucket's expiry passes through a straddling phase at all: a
// bucket whose positional (or temporal) extent is a single point crosses the
// window boundary in one step, full -> dropped. Used to charge the straddle
// epoch even when a large batch (or time jump) skipped over observing it.
bool HasStraddlePhase(bool time_mode, uint64_t count, double min_ts,
                      double max_ts) {
  return time_mode ? min_ts < max_ts : count > 1;
}

}  // namespace

WindowedHullEngine::WindowedHullEngine(const EngineOptions& options)
    : bucket_options_(options),
      bucket_kind_(options.window_inner_kind),
      window_points_(options.EffectiveWindowPoints()),
      window_seconds_(options.window_seconds) {
  SH_CHECK(options.Validate(EngineKind::kWindowed).ok());
  const uint32_t buckets = options.EffectiveWindowBuckets();
  bucket_capacity_ =
      std::max<uint64_t>(1, (window_points_ + buckets - 1) / buckets);
  bucket_span_ = window_seconds_ > 0 ? window_seconds_ / buckets : 0;
  // Bucket sub-engines must validate under their own kind; the window
  // fields are ignored by insert-only kinds, so only a copy is needed.
  SH_CHECK(bucket_options_.Validate(bucket_kind_).ok());
}

WindowedHullEngine::~WindowedHullEngine() = default;

WindowedHullEngine::BucketState WindowedHullEngine::Classify(
    const Bucket& b) const {
  if (time_mode()) {
    if (!now_valid_) return BucketState::kFull;
    // In-window iff ts > now - D (strict): a point exactly D old is out.
    const double cutoff = now_ - window_seconds_;
    if (b.max_ts <= cutoff) return BucketState::kDropped;
    if (b.min_ts > cutoff) return BucketState::kFull;
    return BucketState::kStraddling;
  }
  // Count mode: the window is stream indices >= inserts_total_ - W.
  const uint64_t cutoff =
      inserts_total_ > window_points_ ? inserts_total_ - window_points_ : 0;
  if (b.first_index + b.count <= cutoff) return BucketState::kDropped;
  if (b.first_index >= cutoff) return BucketState::kFull;
  return BucketState::kStraddling;
}

void WindowedHullEngine::ExpireFront() {
  // Classification is monotone along the deque (index ranges and timestamp
  // ranges are both ordered), so the dropped buckets form a prefix and at
  // most one straddler follows them.
  while (!buckets_.empty()) {
    Bucket& front = buckets_.front();
    const BucketState state = Classify(front);
    if (state == BucketState::kDropped) {
      // One epoch for the drop, plus the straddle epoch if this call
      // jumped over the straddling phase without observing it. This keeps
      // Generation() path-independent: batched ingestion charges exactly
      // what per-point ingestion would have.
      uint64_t epochs = 1;
      if (!front.straddle_counted &&
          HasStraddlePhase(time_mode(), front.count, front.min_ts,
                           front.max_ts)) {
        epochs = 2;
      }
      expiry_epochs_ += epochs;
      retired_stats_ += front.engine->stats();
      buckets_.pop_front();
      ++buckets_dropped_;
      continue;
    }
    if (state == BucketState::kStraddling && !front.straddle_counted) {
      front.straddle_counted = true;
      ++expiry_epochs_;
    }
    break;
  }
}

WindowedHullEngine::Bucket& WindowedHullEngine::OpenBucket(double ts) {
  Bucket b;
  b.engine = MakeEngine(bucket_kind_, bucket_options_);
  b.first_index = inserts_total_;
  b.min_ts = ts;
  b.max_ts = ts;
  buckets_.push_back(std::move(b));
  return buckets_.back();
}

void WindowedHullEngine::Insert(Point2 p) {
  if (time_mode()) {
    InsertTimed(p, now());
    return;
  }
  if (buckets_.empty() || buckets_.back().count >= bucket_capacity_) {
    OpenBucket(0);
  }
  Bucket& b = buckets_.back();
  b.engine->Insert(p);
  ++b.count;
  ++inserts_total_;
  ExpireFront();
}

void WindowedHullEngine::InsertBatch(std::span<const Point2> points) {
  if (points.empty()) return;
  if (time_mode()) {
    // A plain batch is a run of same-timestamp inserts at the watermark:
    // at most one bucket rotation, then one sub-engine batch.
    const double ts = now();
    now_ = ts;
    now_valid_ = true;
    if (buckets_.empty() || ts >= buckets_.back().min_ts + bucket_span_) {
      OpenBucket(ts);
    }
    Bucket& b = buckets_.back();
    b.engine->InsertBatch(points);
    b.count += points.size();
    b.max_ts = ts;
    inserts_total_ += points.size();
    ExpireFront();
    return;
  }
  // Count mode: split the batch on bucket boundaries. Routing is purely
  // positional, so the bucket contents — and with the analytic epoch
  // charging in ExpireFront, the generation — match per-point insertion
  // bit for bit.
  size_t offset = 0;
  while (offset < points.size()) {
    if (buckets_.empty() || buckets_.back().count >= bucket_capacity_) {
      OpenBucket(0);
    }
    Bucket& b = buckets_.back();
    const size_t room = static_cast<size_t>(bucket_capacity_ - b.count);
    const size_t take = std::min(room, points.size() - offset);
    b.engine->InsertBatch(points.subspan(offset, take));
    b.count += take;
    inserts_total_ += take;
    offset += take;
  }
  ExpireFront();
}

void WindowedHullEngine::InsertTimed(Point2 p, double t) {
  if (!time_mode()) {
    Insert(p);
    return;
  }
  const double ts = now_valid_ ? std::max(t, now_) : t;
  now_ = ts;
  now_valid_ = true;
  if (buckets_.empty() || ts >= buckets_.back().min_ts + bucket_span_) {
    OpenBucket(ts);
  }
  Bucket& b = buckets_.back();
  b.engine->Insert(p);
  ++b.count;
  b.max_ts = ts;  // ts is clamped monotone, so this is the max.
  ++inserts_total_;
  ExpireFront();
}

void WindowedHullEngine::AdvanceTime(double t) {
  if (!time_mode()) return;
  if (now_valid_ && t <= now_) return;
  now_ = t;
  now_valid_ = true;
  ExpireFront();
}

void WindowedHullEngine::Seal() {
  for (Bucket& b : buckets_) b.engine->Seal();
  RebuildMergedIfNeeded();
}

void WindowedHullEngine::Reserve(size_t expected_points) {
  // Best-effort hint: forward to the open bucket (capped at its capacity
  // in count mode — later buckets reserve when they open).
  if (buckets_.empty()) return;
  Bucket& b = buckets_.back();
  size_t hint = expected_points;
  if (!time_mode()) {
    const uint64_t room = bucket_capacity_ - std::min(bucket_capacity_, b.count);
    hint = std::min<size_t>(hint, static_cast<size_t>(room));
  }
  if (hint > 0) b.engine->Reserve(hint);
}

uint64_t WindowedHullEngine::num_points() const {
  if (!time_mode()) return std::min(inserts_total_, window_points_);
  uint64_t alive = 0;
  for (const Bucket& b : buckets_) alive += b.count;
  return alive;
}

uint64_t WindowedHullEngine::Generation() const {
  return inserts_total_ + expiry_epochs_;
}

uint32_t WindowedHullEngine::r() const { return bucket_options_.hull.r; }

void WindowedHullEngine::RebuildMergedIfNeeded() const {
  const uint64_t generation = Generation();
  if (merged_valid_ && merged_generation_ == generation) return;
  Merged m;
  const uint32_t base_r = r();

  // Gather the merge inputs in one pass: every alive bucket's outer
  // polygon bounds its whole sub-stream (needed for the slacks); only the
  // fully-in-window buckets contribute sample points (needed for the
  // inner polygon to stay a true subset of the window's hull).
  std::vector<Point2> candidates;
  std::vector<ConvexPolygon> outers;
  outers.reserve(buckets_.size());
  for (const Bucket& b : buckets_) {
    ConvexPolygon outer = b.engine->OuterPolygon();
    if (!outer.empty()) outers.push_back(std::move(outer));
    m.effective_perimeter =
        std::max(m.effective_perimeter, b.engine->EffectivePerimeter());
    if (Classify(b) == BucketState::kFull) {
      for (const HullSample& s : b.engine->Samples()) {
        candidates.push_back(s.point);
      }
    }
  }

  std::vector<Point2> dirs(base_r);
  for (uint32_t j = 0; j < base_r; ++j) {
    dirs[j] = Direction::Uniform(j, base_r).ToVector();
  }

  if (!candidates.empty()) {
    m.samples.reserve(base_r);
    m.slacks.reserve(base_r);
    for (uint32_t j = 0; j < base_r; ++j) {
      // Strict-max, first wins: the uniform-hull extremum rule, so ties
      // resolve the same way as in a single engine over the same points.
      Point2 winner = candidates[0];
      double winner_dot = Dot(winner, dirs[j]);
      for (size_t i = 1; i < candidates.size(); ++i) {
        const double d = Dot(candidates[i], dirs[j]);
        if (d > winner_dot) {
          winner_dot = d;
          winner = candidates[i];
        }
      }
      // Slack: how far past the winner any in-window point could lie.
      // Every in-window point is in some alive bucket, and each alive
      // bucket's outer covers its sub-stream, so the max alive support is
      // a sound per-direction bound (conservative across the straddler).
      double support = winner_dot;
      for (const ConvexPolygon& outer : outers) {
        support = std::max(support, outer.Support(dirs[j]));
      }
      m.samples.push_back(HullSample{Direction::Uniform(j, base_r), winner});
      m.slacks.push_back(std::max(0.0, support - winner_dot));
    }

    std::vector<Point2> vertices;
    vertices.reserve(base_r);
    for (const HullSample& s : m.samples) vertices.push_back(s.point);
    m.inner = ConvexPolygon(CompressClosedRuns(std::move(vertices)));
    m.outer = SupportIntersection(m.samples, m.slacks);

    // Uncertainty triangles from the relaxed supporting lines (the same
    // construction AdaptiveHull uses for its refined directions): each
    // sample's line is pushed out by its slack before intersecting.
    m.triangles.reserve(base_r);
    for (uint32_t j = 0; j < base_r; ++j) {
      const uint32_t k = (j + 1) % base_r;
      const Point2 pa = m.samples[j].point;
      const Point2 pb = m.samples[k].point;
      const Point2 ua = dirs[j];
      const Point2 ub = dirs[k];
      const Point2 la = pa + ua * m.slacks[j];
      const Point2 lb = pb + ub * m.slacks[k];
      UncertaintyTriangle t;
      t.a = pa;
      t.b = pb;
      t.dir_a = m.samples[j].direction;
      t.dir_b = m.samples[k].direction;
      if (!LineIntersection(la, la + ua.PerpCcw(), lb, lb + ub.PerpCcw(),
                            &t.apex)) {
        t.apex = (la + lb) * 0.5;
      }
      if (pa == pb) {
        // Coincident endpoints: DistanceToLine is undefined, but positive
        // slack still leaves real uncertainty — bound it by the apex
        // distance (0 when the slacks are 0 too; nothing to record then).
        t.height = (t.apex - pa).Norm();
        if (t.height <= 0) continue;
      } else {
        t.height = DistanceToLine(t.apex, pa, pb);
      }
      m.triangles.push_back(t);
    }
    m.error_bound = MaxTriangleHeight(m.triangles);
  } else if (!outers.empty()) {
    // Degenerate: alive buckets but none fully in the window (a straddler
    // is all that remains). There are no certified in-window sample
    // points, so the inner polygon is empty, and the outer is built from
    // the support bounds alone via pseudo-samples anchored on the
    // supporting lines (u * h lies on {x : dot(x, u) = h}).
    std::vector<HullSample> pseudo;
    pseudo.reserve(base_r);
    for (uint32_t j = 0; j < base_r; ++j) {
      double support = outers[0].Support(dirs[j]);
      for (size_t i = 1; i < outers.size(); ++i) {
        support = std::max(support, outers[i].Support(dirs[j]));
      }
      pseudo.push_back(
          HullSample{Direction::Uniform(j, base_r), dirs[j] * support});
    }
    m.outer = SupportIntersection(pseudo, {});
    // No inner certificate at all: the only sound a-posteriori bound is
    // the extent of the outer region itself.
    double bound = 0;
    if (!m.outer.empty()) {
      for (uint32_t j = 0; j < base_r; ++j) {
        bound = std::max(bound, m.outer.Extent(dirs[j]));
      }
    }
    m.error_bound = bound;
  }

  merged_ = std::move(m);
  merged_generation_ = generation;
  merged_valid_ = true;
}

ConvexPolygon WindowedHullEngine::Polygon() const {
  RebuildMergedIfNeeded();
  return merged_.inner;
}

ConvexPolygon WindowedHullEngine::OuterPolygon() const {
  RebuildMergedIfNeeded();
  return merged_.outer;
}

std::vector<HullSample> WindowedHullEngine::Samples() const {
  RebuildMergedIfNeeded();
  return merged_.samples;
}

std::vector<double> WindowedHullEngine::SampleSlacks() const {
  RebuildMergedIfNeeded();
  return merged_.slacks;
}

double WindowedHullEngine::EffectivePerimeter() const {
  RebuildMergedIfNeeded();
  return merged_.effective_perimeter;
}

std::vector<UncertaintyTriangle> WindowedHullEngine::Triangles() const {
  RebuildMergedIfNeeded();
  return merged_.triangles;
}

double WindowedHullEngine::ErrorBound() const {
  RebuildMergedIfNeeded();
  return merged_.error_bound;
}

const AdaptiveHullStats& WindowedHullEngine::stats() const {
  stats_cache_ = retired_stats_;
  for (const Bucket& b : buckets_) {
    stats_cache_ += b.engine->stats();
  }
  return stats_cache_;
}

Status WindowedHullEngine::CheckConsistency() const {
  uint64_t expected_first = buckets_.empty() ? 0 : buckets_.front().first_index;
  size_t straddlers = 0;
  double prev_max_ts = 0;
  bool have_prev_ts = false;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[i];
    if (b.count == 0) {
      return Status::Internal("windowed: empty bucket in the deque");
    }
    if (b.first_index != expected_first) {
      return Status::Internal("windowed: bucket index ranges not contiguous");
    }
    expected_first = b.first_index + b.count;
    if (b.engine->num_points() != b.count) {
      return Status::Internal("windowed: bucket count disagrees with engine");
    }
    if (time_mode()) {
      if (b.min_ts > b.max_ts) {
        return Status::Internal("windowed: bucket timestamp range inverted");
      }
      if (have_prev_ts && b.min_ts < prev_max_ts) {
        return Status::Internal("windowed: bucket timestamps out of order");
      }
      prev_max_ts = b.max_ts;
      have_prev_ts = true;
    }
    const BucketState state = Classify(b);
    if (state == BucketState::kDropped) {
      return Status::Internal("windowed: expired bucket still alive");
    }
    if (state == BucketState::kStraddling) {
      ++straddlers;
      if (i != 0) {
        return Status::Internal("windowed: straddling bucket not at front");
      }
      if (!b.straddle_counted) {
        return Status::Internal("windowed: straddle epoch not charged");
      }
    }
    STREAMHULL_RETURN_IF_ERROR(b.engine->CheckConsistency());
  }
  if (straddlers > 1) {
    return Status::Internal("windowed: more than one straddling bucket");
  }
  if (!buckets_.empty() && expected_first != inserts_total_) {
    return Status::Internal("windowed: bucket counts disagree with total");
  }
  if (Generation() < num_points()) {
    return Status::Internal("windowed: generation below the point count");
  }

  RebuildMergedIfNeeded();
  if (!merged_.samples.empty() && merged_.samples.size() != size_t{r()}) {
    return Status::Internal("windowed: merged sample count is not r");
  }
  if (merged_.slacks.size() != merged_.samples.size()) {
    return Status::Internal("windowed: merged slacks misaligned");
  }
  for (double slack : merged_.slacks) {
    if (!(slack >= 0) || !std::isfinite(slack)) {
      return Status::Internal("windowed: negative or non-finite slack");
    }
  }
  // Certification: every alive bucket's sample points (all of them genuine
  // stream points that may still be in the window) must satisfy the merged
  // relaxed support constraints.
  if (!merged_.samples.empty()) {
    for (const Bucket& b : buckets_) {
      for (const HullSample& s : b.engine->Samples()) {
        for (size_t j = 0; j < merged_.samples.size(); ++j) {
          const Point2 u = merged_.samples[j].direction.ToVector();
          const double bound =
              Dot(merged_.samples[j].point, u) + merged_.slacks[j];
          const double tolerance =
              1e-9 * std::max(1.0, std::fabs(bound));
          if (Dot(s.point, u) > bound + tolerance) {
            return Status::Internal(
                "windowed: bucket sample escapes the merged outer support");
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace streamhull
