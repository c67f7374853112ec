// streamhull: sliding-window hull summaries by bucketed composition.
//
// Every other engine is insert-only, but the production question is usually
// "the extent of the last N seconds / last W points", not "the extent since
// boot". WindowedHullEngine answers it by composition instead of by a
// dynamic-deletion hull: the stream is routed into K consecutive buckets,
// each an ordinary insert-only sub-engine (MakeEngine of a configurable
// kind), and expiry drops whole buckets from the front. The certified
// sandwich is preserved conservatively:
//
//   * Inner: per base direction, the extreme sample point over the buckets
//     that lie *fully* inside the window. Bucket samples are genuine
//     in-window stream points, so the merged polygon is a true subset of
//     the window's hull.
//   * Outer: each merged sample's supporting line is relaxed to the
//     maximum support of *all* alive buckets' outer polygons — including
//     the partial oldest bucket that straddles the window boundary. Every
//     in-window point lies in some alive bucket, and each bucket's outer
//     covers its whole sub-stream, so the relaxed intersection covers
//     exactly-the-window (and transiently a little more of the straddling
//     bucket: conservative, never unsound).
//
// The window approximation tightens as K grows (the straddler covers a
// 1/K-fraction of the window) and costs a K-way merge on query, cached per
// generation. See DESIGN.md, "Window semantics & generation epochs".

#ifndef STREAMHULL_CORE_WINDOWED_HULL_H_
#define STREAMHULL_CORE_WINDOWED_HULL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/hull_engine.h"
#include "geom/convex_polygon.h"
#include "geom/point.h"

namespace streamhull {

/// \brief Sliding-window hull summary: a composition of K bucketed
/// insert-only sub-engines with count-based or timestamp-based expiry.
///
/// Two expiry modes, selected by EngineOptions:
///
///   * Count mode (window_seconds == 0): the summary covers the last
///     W = EffectiveWindowPoints() inserted points. Buckets hold
///     ceil(W / K) consecutive points each and drop once their newest
///     point leaves the window.
///   * Time mode (window_seconds > 0): the summary covers points with
///     timestamp strictly greater than now - window_seconds, where "now"
///     is the engine's monotone time watermark. InsertTimed()/AdvanceTime()
///     drive the watermark; plain Insert() stamps the current watermark
///     (never advancing it), so untimed callers see insert-only behavior.
///
/// Generation semantics: Generation() counts every observable mutation —
/// one per insert plus one per bucket expiry/classification event — and is
/// path-independent (InsertBatch over any partition matches per-point
/// insertion bit for bit, generation included). num_points() is the
/// in-window count (count mode: exact; time mode: the alive-bucket sum, an
/// upper bound that counts the straddling bucket whole) and can stall or
/// shrink; the wire layer chains on Generation() instead.
///
/// Thread compatibility: the one HullEngine whose const accessors rebuild
/// a lazily cached K-way merge, so they are not safe to call concurrently
/// with each other; Seal() forces the rebuild ahead of a read-only query
/// burst.
class WindowedHullEngine final : public HullEngine {
 public:
  /// \param options validated for EngineKind::kWindowed (CHECK-fails
  /// otherwise, matching MakeEngine's contract). Buckets run
  /// options.window_inner_kind engines over options.hull.
  explicit WindowedHullEngine(const EngineOptions& options);
  ~WindowedHullEngine() override;

  EngineKind kind() const override { return EngineKind::kWindowed; }

  /// Count mode: appends one point and expires by count. Time mode:
  /// inserts at the current watermark (equivalent to InsertTimed(p, now())
  /// — never advances time, so nothing can expire).
  void Insert(Point2 p) override;
  void InsertBatch(std::span<const Point2> points) override;

  /// \brief Time mode: inserts \p p at timestamp \p t and advances the
  /// watermark to max(now, t) — regressing timestamps are clamped to the
  /// watermark, keeping it monotone. Duplicate timestamps are fine. In
  /// count mode \p t is ignored and this is Insert().
  void InsertTimed(Point2 p, double t);

  /// \brief Time mode: advances the watermark to max(now, t) without
  /// inserting, expiring buckets that fall behind the window. No-op in
  /// count mode (and whenever t <= now()).
  void AdvanceTime(double t);

  /// The time watermark (time mode; 0 before the first timed event).
  double now() const { return now_valid_ ? now_ : 0.0; }
  /// True when expiry is timestamp-based (window_seconds > 0).
  bool time_mode() const { return window_seconds_ > 0; }
  /// Total points ever inserted (the insert-only stream length).
  uint64_t inserts_total() const { return inserts_total_; }
  /// Alive (not yet dropped) buckets, including a straddler (test support).
  size_t alive_buckets() const { return buckets_.size(); }
  /// Buckets dropped by expiry so far (test support).
  uint64_t buckets_dropped() const { return buckets_dropped_; }

  void Seal() override;
  void Reserve(size_t expected_points) override;

  /// In-window point count: exact min(inserts, W) in count mode; the
  /// alive-bucket sum (an upper bound counting the straddler whole) in
  /// time mode.
  uint64_t num_points() const override;

  /// Mutation epoch: inserts_total() plus one per expiry event. Strictly
  /// monotone, path-independent, and >= num_points(); equals num_points()
  /// exactly while nothing has expired, which keeps modest streams on the
  /// compact (insert-only-compatible) wire frames.
  uint64_t Generation() const override;

  uint32_t r() const override;

  ConvexPolygon Polygon() const override;
  ConvexPolygon OuterPolygon() const override;
  std::vector<HullSample> Samples() const override;
  std::vector<double> SampleSlacks() const override;
  double EffectivePerimeter() const override;
  std::vector<UncertaintyTriangle> Triangles() const override;
  double ErrorBound() const override;
  const AdaptiveHullStats& stats() const override;
  Status CheckConsistency() const override;

 private:
  // One bucket: an insert-only sub-engine over a consecutive run of the
  // stream, plus the positional/temporal extent that drives its expiry
  // classification (a pure function of inserts_total_ / now_, so batched
  // and per-point ingestion agree on every transition).
  struct Bucket {
    std::unique_ptr<HullEngine> engine;
    uint64_t first_index = 0;  ///< Stream index of the first point.
    uint64_t count = 0;        ///< Points routed into this bucket.
    double min_ts = 0;         ///< Time mode: first (smallest) timestamp.
    double max_ts = 0;         ///< Time mode: last (largest) timestamp.
    bool straddle_counted = false;  ///< Straddle epoch already spent.
  };

  // Classification of one bucket against the current window.
  enum class BucketState { kFull, kStraddling, kDropped };
  BucketState Classify(const Bucket& b) const;

  // Drops expired front buckets and charges expiry epochs; called after
  // every mutation. Path-independent: a bucket that passed both its
  // straddle and drop thresholds since the last call is charged both.
  void ExpireFront();

  // Opens a fresh bucket positioned at the current stream index/timestamp.
  Bucket& OpenBucket(double ts);

  // Rebuilds the cached K-way merge if the generation moved.
  void RebuildMergedIfNeeded() const;

  EngineOptions bucket_options_;  ///< Options for bucket sub-engines.
  EngineKind bucket_kind_;
  uint64_t window_points_;      ///< Count mode W (resolved default).
  double window_seconds_;       ///< Time mode D; 0 selects count mode.
  uint64_t bucket_capacity_;    ///< Count mode: ceil(W / K).
  double bucket_span_;          ///< Time mode: D / K.

  std::deque<Bucket> buckets_;  ///< Oldest first; back is the open bucket.
  uint64_t inserts_total_ = 0;
  uint64_t expiry_epochs_ = 0;  ///< Epochs charged for expiry events.
  uint64_t buckets_dropped_ = 0;
  double now_ = 0;
  bool now_valid_ = false;      ///< now_ is meaningful (a timed event ran).

  // Lazily rebuilt K-way merge, keyed by Generation() (the documented
  // thread-compatibility exception).
  struct Merged {
    std::vector<HullSample> samples;   ///< r entries, or empty (degenerate).
    std::vector<double> slacks;        ///< Aligned with samples.
    ConvexPolygon inner;
    ConvexPolygon outer;
    std::vector<UncertaintyTriangle> triangles;
    double error_bound = 0;
    double effective_perimeter = 0;
  };
  mutable Merged merged_;
  mutable uint64_t merged_generation_ = 0;
  mutable bool merged_valid_ = false;

  /// Aggregated counters of dropped buckets, folded into stats().
  AdaptiveHullStats retired_stats_;
  mutable AdaptiveHullStats stats_cache_;
};

}  // namespace streamhull

#endif  // STREAMHULL_CORE_WINDOWED_HULL_H_
