// streamhull: the adaptively sampled streaming convex hull
// (Hershberger & Suri, §4-§5) — the paper's primary contribution.
//
// The summary maintains, for a stream of 2-D points and a parameter r:
//
//   * extrema in r fixed uniform directions j * 2*pi/r (the uniformly
//     sampled hull of §3), plus
//   * up to r+1 adaptively chosen extra directions, organized as a binary
//     *refinement tree* per uniform hull edge (§5.1). A tree node covers an
//     angular interval; refining a node bisects its interval and stores the
//     extremum in the bisecting direction.
//
// An edge e (tree leaf) has sample weight
//
//     w(e) = r * ltilde(e) / P  -  log2(theta0 / theta(e)),
//
// where ltilde(e) is the length of the two free sides of e's uncertainty
// triangle, P the perimeter of the uniformly sampled hull, and theta(e) the
// edge's angular span (theta0 / 2^depth). The structure keeps w(e) <= 1 for
// every edge, which yields Hausdorff error O(D / r^2) between the true hull
// of the whole stream and the sampled hull (Theorem 5.4), using at most
// 2r + 1 sample points. Growth of P makes old refinements unnecessary; each
// internal node carries the threshold value of P at which it must be
// unrefined, managed by a monotone bucket priority queue (§5.3).
//
// Data structures (flat arrays, sized from r by Reserve()):
//   run_dir_,  the *distinct* hull vertices in CCW order (run-length
//   run_pt_    compressed: each run's first owned direction and its point).
//              run_pt_ is the "searchable list" FindVisibleChain reads with
//              O(1) access, and the batch prefilter's polygon. A splice is
//              a memmove of at most 2r+1 entries (DESIGN.md).
//   nodes_     arena of refinement-tree nodes, one tree per uniform edge.
//              A sample lives with its direction: a uniform direction's
//              extremum in the uniform layer (uniform_, shared with
//              UniformHull), a refined one's in the internal node that
//              bisects there (with its certified slack).
//   queue_     monotone priority queue of unrefinement thresholds.
//
// All structural decisions use exact integer direction arithmetic
// (geom/direction.h); doubles appear only in dot-product comparisons.

#ifndef STREAMHULL_CORE_ADAPTIVE_HULL_H_
#define STREAMHULL_CORE_ADAPTIVE_HULL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "container/bucket_queue.h"
#include "core/batch_prefilter.h"
#include "core/hull_engine.h"
#include "core/options.h"
#include "core/uniform_hull.h"
#include "geom/convex_polygon.h"
#include "geom/direction.h"
#include "geom/point.h"

namespace streamhull {

/// \brief Streaming convex-hull summary with adaptive directional sampling.
///
/// Thread-compatible (no internal synchronization). Single pass: points not
/// retained as samples are forgotten.
class AdaptiveHull : public HullEngine {
 public:
  /// Constructs the summary. CHECK-fails on invalid options; use
  /// options.Validate() first when the options are untrusted.
  explicit AdaptiveHull(const AdaptiveHullOptions& options);

  AdaptiveHull(const AdaptiveHull&) = delete;
  AdaptiveHull& operator=(const AdaptiveHull&) = delete;

  /// This class is the engine behind EngineKind::kAdaptive (the wrapper
  /// types report their own kinds).
  EngineKind kind() const override { return EngineKind::kAdaptive; }

  /// Processes one stream point: an O(log r) search, plus an O(r)
  /// array splice when the point is accepted (DESIGN.md).
  void Insert(Point2 p) override;

  /// \brief Batched ingestion fast path. Produces exactly the summary a
  /// point-at-a-time Insert() loop would, but prefilters each point with a
  /// strictly-inside test against the current sampled polygon (the
  /// vertex-run array itself): an interior point can never win a sample
  /// direction, so it skips the winning-set machinery, and the prefilter's
  /// cache (and therefore the per-point perimeter / unrefinement
  /// bookkeeping it guards) is refreshed at most once per accepted point
  /// rather than once per offered point.
  ///
  /// The prefilter has two conservative tiers. When SIMD dispatch is
  /// active, blocks of up to 8 points first run the branch-free lane
  /// kernel (kernels::CertifyInteriorBatch) against a coarse <= 8-vertex
  /// sub-polygon; points it certifies are discarded outright.
  /// Points it declines — near-boundary, degenerate, or simply outside the
  /// coarse polygon — fall back to the scalar O(log r) wedge test, and
  /// only then to the full insert path. Both tiers discard only points
  /// provably unable to win any direction, so the summary is bit-identical
  /// whichever tier fires (only the stats_ tier counters differ). The
  /// prefilter is core/batch_prefilter.h, shared with UniformHull; see
  /// DESIGN.md, "Batched ingestion" and "SIMD kernels".
  ///
  /// Calls Reserve() on entry; after the warm-up reservations, the batch
  /// hot path performs no heap allocation per offered point (rejected or
  /// accepted) outside the threshold queue's bucket churn — the property
  /// bench_parallel_ingest's alloc counter and core_hot_path_alloc_test
  /// pin.
  void InsertBatch(std::span<const Point2> points) override;

  /// \brief Pre-sizes the vertex-run arrays, the node arena, the per-depth
  /// heaps, the batch prefilter's SoA mirror, and every insertion scratch
  /// buffer from r (all summary state is O(r); \p expected_points only caps
  /// nothing here).
  /// Idempotent and cheap once capacities are reached.
  void Reserve(size_t expected_points) override;

  /// \brief Merges another summary into this one by inserting its stored
  /// sample points (the sensor-aggregation operation from the paper's
  /// motivation: nodes ship 2r+1-point summaries, the sink merges them).
  ///
  /// The merged summary approximates the hull of the union of the two
  /// underlying streams; its Hausdorff error is at most other.ErrorBound()
  /// (what other's samples already lost) plus this->ErrorBound() (what the
  /// merge itself may drop). O(r log r).
  void MergeFrom(const AdaptiveHull& other);

  /// \brief Inserts a sequence of summary sample points, skipping
  /// consecutive duplicates (a sample point can own several directions;
  /// inserting it once suffices). The shared merge primitive behind
  /// MergeFrom, RestoreHull, and RegionPartitionedHull::MergeDecodedView.
  /// \return the number of points actually inserted.
  uint64_t InsertDeduped(std::span<const Point2> points);

  /// Number of stream points processed so far.
  uint64_t num_points() const override { return num_points_; }
  /// The base direction count r.
  uint32_t r() const override { return options_.r; }
  /// The options this summary was built with.
  const AdaptiveHullOptions& options() const { return options_; }

  /// Number of active sample directions (r <= n <= 2r+1 in invariant mode).
  size_t num_directions() const { return num_directions_; }
  /// Number of distinct stored sample points (<= num_directions()).
  size_t num_sample_points() const;

  /// \brief Perimeter of the uniformly sampled hull (running maximum; see
  /// DESIGN.md on the monotonicity guard). This is the P in all weights.
  double perimeter() const { return uniform_.p_used(); }

  /// \brief The current approximate hull: distinct sample points in CCW
  /// order. The true hull of the entire stream contains this polygon and
  /// lies within ErrorBound() of it (Corollary 5.2).
  ConvexPolygon Polygon() const override;

  /// All active samples in CCW direction order.
  std::vector<HullSample> Samples() const override;

  /// \brief Uncertainty triangles of all (non-degenerate) current edges, in
  /// CCW order. The true hull is sandwiched between Polygon() and the union
  /// of these triangles.
  std::vector<UncertaintyTriangle> Triangles() const override;

  /// \brief Certified per-sample slacks (see HullEngine::SampleSlacks). A
  /// direction activated by refinement mid-stream may have missed earlier
  /// extrema, so its supporting line alone is not a valid bound; the Lemma
  /// 5.3 invariant guarantees every stream point lies within
  /// OffsetForLevel(level) of it, evaluated with the effective perimeter P.
  ///
  /// The reported slack is *per direction*, not per level: each activated
  /// direction records the offset computed with P as of the insertion that
  /// activated it. The supporting line only moves outward afterwards (every
  /// point inserted while a direction is active updates its extremum
  /// exactly), so the recorded offset stays valid while P — and with it the
  /// naive per-level formula — keeps growing. On long-drifting or merged
  /// streams this makes OuterPolygon() strictly tighter than relaxing by
  /// OffsetForLevel at query time. Uniform directions report slack 0:
  /// active from the first point, their extrema are exact.
  std::vector<double> SampleSlacks() const override;

  /// The effective perimeter P (same as perimeter()).
  double EffectivePerimeter() const override { return uniform_.p_used(); }

  /// \brief Native change tracking for the v3 delta encoder (see
  /// HullEngine::ChangedDirectionsSinceBaseline). The insertion machinery
  /// touches samples and slacks in exactly four places — initialization,
  /// ApplyWin's extremum updates, refinement (which captures the new
  /// direction's slack), and unrefinement — and each marks its direction
  /// here, so the encoder diffs a handful of
  /// directions instead of all 2r+1. Returns false (full diff) before the
  /// first baseline capture or after the touched set overflows its cap.
  bool ChangedDirectionsSinceBaseline(
      std::vector<Direction>* changed) const override;

  /// Resets the touched-direction set; called by the snapshot layer
  /// whenever a wire baseline is captured (see HullEngine).
  void OnWireBaselineCaptured() override;

  /// \brief The a-priori Hausdorff error bound 16*pi*P/r^2 of Corollary 5.2
  /// (invariant mode with the default tree height).
  double ErrorBound() const override;

  /// \brief Offset d_i of the invariant line L(theta) for a direction with
  /// index(theta) == i (§5.3): d_i = (8*pi*P/r^2) * sum_{j<=i} j/2^j.
  /// Exposed so tests can verify the paper's containment invariant.
  double OffsetForLevel(uint32_t level) const;

  /// \brief Freezes the sample-direction set: subsequent inserts still
  /// update extrema but never add, remove, or re-weight directions. This is
  /// the "partially adaptive" scheme of §7 (Table 1, fourth section).
  void FreezeDirections() { frozen_ = true; }
  /// True once FreezeDirections() has been called.
  bool frozen() const { return frozen_; }

  /// Operation counters.
  const AdaptiveHullStats& stats() const override { return stats_; }

  /// \brief Exhaustive structural self-check (test support; cost O(r + m)
  /// plus O(#samples^2) owner verification). Returns the first violated
  /// invariant as an error Status.
  Status CheckConsistency() const override;

 private:
  struct RefNode {
    Direction lo, hi;   // Angular interval endpoints (hi may wrap past 0).
    Point2 pa, pb;      // Extrema at lo / hi.
    double ltilde = 0;  // Free-side length of the uncertainty triangle.
    uint32_t depth = 0;
    int32_t left = -1, right = -1;  // Arena indices; -1 for a leaf.
    // Internal nodes: the bisection direction, which is an active sample
    // direction, with its extreme point and its certified slack (the Lemma
    // 5.3 offset captured when the direction was activated).
    Direction mid;
    Point2 pm;
    double slack = 0;
    uint32_t pq_gen = 0;  // Staleness stamp for queue/heap entries.
    bool allocated = false;
    bool IsInternal() const { return left >= 0; }
  };

  struct QueueEntry {
    int32_t node;
    uint32_t gen;
  };

  // A position in the CCW order of the active sample directions: uniform
  // direction `edge` (node < 0), or the bisector of internal node `node` of
  // that edge's refinement tree.
  struct SampleRef {
    uint32_t edge = 0;
    int32_t node = -1;
    bool operator==(const SampleRef&) const = default;
  };

  // The directions a new point wins: count directions in CCW order from
  // first to last (circularly). count == 0: none.
  struct WonArc {
    SampleRef first, last;
    size_t count = 0;
  };

  // Lazy heap entry for fixed-size mode (per-depth heaps keyed by ltilde).
  struct HeapEntry {
    double ltilde;
    int32_t node;
    uint32_t gen;
  };

  // --- Arena ---
  int32_t AllocNode();
  void FreeNode(int32_t idx);
  RefNode& N(int32_t idx) { return nodes_[static_cast<size_t>(idx)]; }
  const RefNode& N(int32_t idx) const {
    return nodes_[static_cast<size_t>(idx)];
  }

  // --- Geometry helpers ---
  double ComputeLTilde(const Direction& lo, const Direction& hi, Point2 a,
                       Point2 b) const;
  double Weight(const RefNode& n) const;
  double UnrefineThreshold(const RefNode& n) const;
  bool Beats(Point2 p, const Direction& d, Point2 incumbent) const {
    Point2 u = d.ToVector();
    return Dot(p, u) > Dot(incumbent, u);
  }

  // --- Insertion internals ---
  // The non-initial insertion path shared by Insert and InsertBatch; stats
  // and num_points_ are already updated by the caller. Returns false when
  // the point won nothing (summary unchanged).
  bool InsertNonEmpty(Point2 p);

  // --- Sample/vertex bookkeeping ---
  void InitializeWith(Point2 p);
  // The directions a new exterior point wins, in CCW order (contiguous,
  // possibly wrapping). Empty when the point is inside the uncertainty
  // ring.
  WonArc ComputeWinningSet(Point2 p);
  WonArc ComputeWinningSetBrute(Point2 p);
  // Applies the win: sample points, vertex runs, and (through the uniform
  // layer) uniform extrema and perimeter.
  void ApplyWin(Point2 p, const WonArc& won);
  // Run bookkeeping and counters for direction d, just activated by
  // refinement with point pt; next_dir is the active direction after it.
  void ActivateDirection(const Direction& d, Point2 pt,
                         const Direction& next_dir);
  // The same for d, just deactivated by unrefinement.
  void DeactivateDirection(const Direction& d, const Direction& next_dir);

  // Sample access. Next/Prev step circularly in CCW order, descending the
  // edge's tree (O(depth)); FindSample returns false for inactive d.
  Direction DirOf(SampleRef s) const {
    return s.node < 0 ? Direction::Uniform(s.edge, options_.r) : N(s.node).mid;
  }
  Point2 PointOf(SampleRef s) const {
    return s.node < 0 ? uniform_.extremum(s.edge) : N(s.node).pm;
  }
  SampleRef NextSample(SampleRef s) const;
  SampleRef PrevSample(SampleRef s) const;
  bool FindSample(const Direction& d, SampleRef* out) const;
  // Index of the first run whose first direction is >= d (> d for
  // RunUpperBound); run_dir_.size() if none.
  size_t RunLowerBound(const Direction& d) const;
  size_t RunUpperBound(const Direction& d) const;
  // Splices the parallel run arrays.
  void InsertRun(size_t k, const Direction& d, Point2 pt);
  void EraseRuns(size_t first, size_t last);

  // --- Tree maintenance ---
  // Leaves the collapsed nodes (with their post-collapse generation) in
  // collapsed_scratch_ so the caller can restore the weight invariant after
  // the rebuild pass. Scratch-backed for the same reason as
  // ComputeWinningSet: unrefinement churn must not allocate per insertion.
  void ProcessUnrefinements();
  void RebuildRange(const Direction& won_first, const Direction& won_last);
  int32_t RebuildNode(int32_t idx, const Direction& lo, const Direction& hi,
                      Point2 a, Point2 b, uint32_t depth,
                      const Direction& won_first, const Direction& won_last);
  // Collapses an internal node to a leaf, recursively (removes directions).
  void Unrefine(int32_t idx);
  // Splits a leaf once (adds one direction); returns false when the depth
  // cap or degeneracy prevents it.
  bool RefineOnce(int32_t idx);
  // Refines a leaf while its weight exceeds 1 (invariant mode).
  void RefineToWeight(int32_t idx);
  void EnqueueThreshold(int32_t idx);
  void PushHeapEntry(int32_t idx);
  void Rebalance();  // Fixed-size mode direction budget enforcement.
  // Best (max-weight) refinable leaf / (min-weight) collapsible internal
  // node across the per-depth lazy heaps; -1 when none. The weight of the
  // returned node is stored through weight_out when non-null.
  int32_t BestLeaf(double* weight_out);
  int32_t WorstInternal(double* weight_out);
  int32_t PopBestLeaf();
  int32_t PopWorstInternal();

  // Interval helpers: does the closed CCW interval [lo, hi] intersect the
  // closed CCW won interval [wf, wl]?
  bool CcwIntervalsIntersect(const Direction& lo, const Direction& hi,
                             const Direction& wf, const Direction& wl) const;
  bool InCcwInterval(const Direction& x, const Direction& lo,
                     const Direction& hi) const;

  void CollectLeaves(int32_t idx, std::vector<int32_t>* out) const;

  // --- State ---
  AdaptiveHullOptions options_;
  uint32_t cap_;        // Effective tree height limit.
  uint32_t fixed_target_ = 0;  // Fixed-size mode direction budget.
  bool frozen_ = false;
  uint64_t num_points_ = 0;

  // Marks d's sample/slack as touched since the last wire-baseline
  // capture. Amortized allocation-free (appends to a capacity-reusing
  // vector, duplicates welcome); degrades to "everything touched" when
  // the set outgrows its O(r) cap.
  void MarkWireDirty(const Direction& d);

  size_t num_directions_ = 0;  // Active sample directions.
  // Distinct-vertex runs in CCW order: run k owns the active directions
  // from run_dir_[k] up to (not including) run_dir_[k + 1], circularly, and
  // their extreme point is run_pt_[k]. Adjacent runs (the last and the
  // first included) hold distinct points, so run_pt_ is the sampled
  // polygon itself.
  std::vector<Direction> run_dir_;
  std::vector<Point2> run_pt_;

  std::vector<RefNode> nodes_;
  std::vector<int32_t> free_nodes_;
  std::vector<int32_t> roots_;  // One per uniform edge.

  // The uniform directions' extrema, their run starts and the perimeter
  // P (the layer UniformHull shares).
  UniformLayer uniform_;

  BucketThresholdQueue<QueueEntry> bucket_queue_;
  HeapThresholdQueue<QueueEntry> heap_queue_;

  // Fixed-size mode: per-depth lazy heaps (index = depth).
  std::vector<std::vector<HeapEntry>> leaf_heaps_;
  std::vector<std::vector<HeapEntry>> internal_heaps_;

  // Directions touched since the last wire-baseline capture (duplicates
  // allowed; normalized by the delta encoder). wire_dirty_all_ means the
  // set is unknown — before any baseline exists, after initialization,
  // or after overflow — and forces the encoder's full diff.
  std::vector<Direction> wire_dirty_;
  bool wire_dirty_all_ = true;

  BatchPrefilter prefilter_;

  // Insertion scratch buffers, reused across insertions so the per-point
  // hot path performs zero heap allocations once warmed up (Reserve()
  // pre-sizes them from r). Each is valid only within the call that fills
  // it; none is part of the summary state.
  std::vector<SampleRef> brute_refs_;   // Brute path: CCW sample order.
  std::vector<char> brute_won_;         // Brute path: per-sample flag.
  std::vector<Point2> uu_pts_scratch_;  // UniformLayer::Update: erased points.
  std::vector<QueueEntry> ready_scratch_;      // PopBelow output.
  std::vector<QueueEntry> collapsed_scratch_;  // ProcessUnrefinements out.

  AdaptiveHullStats stats_;
};

}  // namespace streamhull

#endif  // STREAMHULL_CORE_ADAPTIVE_HULL_H_
