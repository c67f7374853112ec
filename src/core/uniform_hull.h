// streamhull: the uniformly sampled hull (Hershberger & Suri §3) as a flat
// engine.
//
// The summary keeps, for a stream of 2-D points and a parameter r, the
// extremum in each of the r fixed directions j * 2*pi/r. Its state is a
// handful of arrays sized from r in the constructor:
//
//   u_         the r unit vectors, computed once.
//   uniform_   the uniform layer: the r extrema, the sorted starts of their
//              runs of equal points, and the perimeter P of the sampled
//              hull (shared with AdaptiveHull, which keeps the same layer
//              under its refinement trees).
//   run_dir_,  the *distinct* hull vertices in CCW order (each run's first
//   run_pt_    owned direction and its point). run_pt_ is the polygon
//              FindVisibleChain searches and the batch prefilter tests.
//
// A new point wins a contiguous arc of directions. On a polygon of at most
// 16 vertices the arc is found by testing all r directions; otherwise the
// visible chain of run_pt_ locates it in O(log r). The procedure, and every
// predicate in it, is AdaptiveHull's with the refinement trees absent, so
// the two engines store the same extrema for the same stream (DESIGN.md,
// "The flat uniform engine").

#ifndef STREAMHULL_CORE_UNIFORM_HULL_H_
#define STREAMHULL_CORE_UNIFORM_HULL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/batch_prefilter.h"
#include "core/hull_engine.h"
#include "core/options.h"
#include "geom/convex_polygon.h"
#include "geom/direction.h"
#include "geom/point.h"

namespace streamhull {

/// \brief The extrema in the r uniform directions, the starts of their
/// runs of equal points, and the perimeter P of the uniformly sampled hull
/// they span: the layer UniformHull and AdaptiveHull share.
///
/// P's arithmetic is part of the wire format: it is the v2 `perimeter`
/// field of every uniform and adaptive view (DESIGN.md, "The perimeter
/// monotonicity guard").
class UniformLayer {
 public:
  explicit UniformLayer(uint32_t r) : ext_(r) {}

  /// Pre-sizes the run starts from r.
  void Reserve() { runs_.reserve(r()); }

  /// The first point: every direction's extremum, one run, P = 0.
  void Initialize(Point2 p);

  /// \brief Makes p the extremum of every direction in the circular range
  /// [jf, jl], updating the run starts and P (incrementally when the runs
  /// just outside the range survive, by recomputation otherwise).
  /// \p erased is the caller's scratch buffer (at most r points; reserve
  /// it to keep the update allocation-free).
  /// \return true when the measured perimeter dropped below its previous
  /// value (P itself is a running maximum and never drops).
  bool Update(Point2 p, uint32_t jf, uint32_t jl, std::vector<Point2>* erased);

  /// The stored extremum of uniform direction j.
  Point2 extremum(uint32_t j) const { return ext_[j]; }
  /// The effective perimeter P: the running maximum of the measured one.
  double p_used() const { return p_used_; }

  /// \brief Checks the run starts (sorted directions) and that the
  /// incrementally maintained perimeter matches a recomputation.
  Status CheckConsistency() const;

 private:
  // The perimeter of the polygon through the run starts' points, in run
  // order from the first.
  double RecomputePerimeter() const;
  uint32_t r() const { return static_cast<uint32_t>(ext_.size()); }

  std::vector<Point2> ext_;     // Extremum per uniform direction.
  std::vector<uint32_t> runs_;  // Sorted run starts; run j's point is ext_[j].
  double p_raw_ = 0;            // Current measured perimeter.
  double p_used_ = 0;           // Running maximum (the P in all formulas).
};

/// \brief The uniformly sampled hull of §3: the extremum in each of r
/// evenly spaced directions, O(log r) per interior point plus an O(r)
/// splice per accepted point. The baseline the paper evaluates against.
///
/// Thread-compatible (no internal synchronization). Single pass: points not
/// retained as samples are forgotten. Every array is sized in the
/// constructor, so ingestion never allocates.
class UniformHull final : public HullEngine {
 public:
  /// \param r number of sample directions (>= 8 and <= 2^20; CHECK-fails
  /// otherwise).
  explicit UniformHull(uint32_t r);

  UniformHull(const UniformHull&) = delete;
  UniformHull& operator=(const UniformHull&) = delete;

  EngineKind kind() const override { return EngineKind::kUniform; }

  /// Processes one stream point.
  void Insert(Point2 p) override;

  /// \brief Batched ingestion: the same summary as an Insert() loop, with
  /// interior points discarded by the shared batch prefilter
  /// (core/batch_prefilter.h).
  void InsertBatch(std::span<const Point2> points) override;

  uint64_t num_points() const override { return num_points_; }
  uint32_t r() const override { return r_; }
  /// The effective perimeter P (running maximum of the sampled hull's).
  double perimeter() const { return uniform_.p_used(); }

  /// The approximate hull: distinct extrema, CCW.
  ConvexPolygon Polygon() const override;
  /// The r uniform samples in CCW direction order.
  std::vector<HullSample> Samples() const override;
  std::vector<UncertaintyTriangle> Triangles() const override;
  /// All-zero (one per sample): every stored sample is a true stream
  /// extremum, so the outer hull is the exact apex polygon.
  std::vector<double> SampleSlacks() const override;
  /// The effective perimeter P (same as perimeter()).
  double EffectivePerimeter() const override { return uniform_.p_used(); }
  /// \brief A-posteriori bound: the maximum uncertainty-triangle height.
  /// (The adaptive 16*pi*P/r^2 formula needs the weight invariant, which
  /// uniform sampling does not maintain — its worst case is Theta(P/r).)
  double ErrorBound() const override { return MaxTriangleHeight(Triangles()); }
  const AdaptiveHullStats& stats() const override { return stats_; }

  /// \brief Exhaustive self-check (test support, O(r * m)): the cached
  /// unit vectors equal Direction::Uniform(j, r).ToVector() bit for bit,
  /// the runs match the extrema, no stored extremum beats another
  /// direction's own, and the perimeter bookkeeping holds.
  Status CheckConsistency() const override;

  // Change tracking for the v3 delta encoder stays at HullEngine's default
  // ("unknown"): the encoder then compares all r samples, which costs less
  // than the Samples() copy it makes anyway.

 private:
  // The directions a new point wins: count directions in CCW order from
  // first to last (circularly). count == 0: none.
  struct WonArc {
    uint32_t first = 0, last = 0;
    uint32_t count = 0;
  };

  uint32_t Next(uint32_t j) const { return j + 1 == r_ ? 0 : j + 1; }
  uint32_t Prev(uint32_t j) const { return j == 0 ? r_ - 1 : j - 1; }
  bool Beats(Point2 p, uint32_t j) const {
    const Point2 u = u_[j];
    return Dot(p, u) > Dot(uniform_.extremum(j), u);
  }

  void InitializeWith(Point2 p);
  // The non-initial insertion path shared by Insert and InsertBatch; stats
  // and num_points_ are already updated by the caller. Returns false when
  // the point won nothing (summary unchanged).
  bool InsertNonEmpty(Point2 p);
  WonArc ComputeWinningSet(Point2 p);
  WonArc ComputeWinningSetBrute(Point2 p);
  // Applies the win: vertex runs, extrema and perimeter.
  void ApplyWin(Point2 p, const WonArc& won);

  uint32_t r_;
  uint64_t num_points_ = 0;
  std::vector<Point2> u_;  // Unit vector of each uniform direction.
  UniformLayer uniform_;
  // Distinct-vertex runs in CCW order: run k owns the directions from
  // run_dir_[k] up to (not including) run_dir_[k + 1], circularly, and
  // their extremum is run_pt_[k]. Adjacent runs (the last and the first
  // included) hold distinct points, so run_pt_ is the sampled polygon.
  std::vector<uint32_t> run_dir_;
  std::vector<Point2> run_pt_;
  std::vector<char> won_scratch_;       // Brute path: per-direction flag.
  std::vector<Point2> erased_scratch_;  // UniformLayer::Update's scratch.
  BatchPrefilter prefilter_;
  AdaptiveHullStats stats_;
};

}  // namespace streamhull

#endif  // STREAMHULL_CORE_UNIFORM_HULL_H_
