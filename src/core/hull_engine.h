// streamhull: the engine boundary for all hull summaries.
//
// The paper is a family of summaries, not one algorithm: the uniformly
// sampled hull (§3), the continuously adaptive hull (§4-§5), the offline
// adaptive sample (§4), and the "partially adaptive" freeze-after-training
// scheme (§7). HullEngine is the one interface they all implement, so the
// consumer layers (StreamGroup, the Table 1 runner, the benches, the
// examples) select a maintenance strategy by EngineKind instead of naming a
// concrete type.
//
// The interface has two ingestion entry points. Insert() is the per-point
// path. InsertBatch() is the batched fast path: engines that can cheaply
// prove a point irrelevant (the O(log r) inner-polygon rejection test of
// core/batch_prefilter.h) amortize that proof over the whole batch. Both
// paths are required to produce bit-identical summaries: InsertBatch over
// any partition of a stream must leave the engine in exactly the state
// point-at-a-time insertion would (the differential suite in
// tests/core_hull_engine_test.cc enforces this for every kind). See
// DESIGN.md, "The HullEngine boundary".

#ifndef STREAMHULL_CORE_HULL_ENGINE_H_
#define STREAMHULL_CORE_HULL_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "geom/convex_polygon.h"
#include "geom/direction.h"
#include "geom/point.h"

namespace streamhull {

/// \brief One sample of a summary: the stored extremum for an active
/// sample direction.
struct HullSample {
  Direction direction;
  Point2 point;
};

/// \brief The uncertainty triangle over one edge of the sampled hull (§2):
/// the true hull boundary between a and b lies inside triangle (a, apex, b).
struct UncertaintyTriangle {
  Point2 a;          ///< Edge start (extreme in dir_a).
  Point2 b;          ///< Edge end (extreme in dir_b).
  Point2 apex;       ///< Intersection of the two supporting lines.
  Direction dir_a;   ///< Sample direction of a.
  Direction dir_b;   ///< Sample direction of b.
  double height = 0; ///< Distance from apex to segment ab: the error bound.
};

/// \brief The hull-summary strategies constructible through MakeEngine.
enum class EngineKind {
  kUniform,            ///< Uniformly sampled hull, r fixed directions (§3).
  kAdaptive,           ///< Continuously adaptive streaming hull (§4-§5).
  kPartiallyAdaptive,  ///< Adapt on a training prefix, then freeze (§7).
  kStaticAdaptive,     ///< Offline §4 sampling behind a buffering adapter.
  kWindowed,           ///< Sliding-window composition of bucketed sub-hulls.
};

/// \brief Streaming convex-hull summary interface.
///
/// Implementations are thread-compatible (no internal synchronization;
/// WindowedHullEngine's lazily-rebuilt merge cache is the documented
/// exception — its const accessors are not safe to call concurrently) and
/// single-pass: points not retained as samples are forgotten.
class HullEngine {
 public:
  virtual ~HullEngine() = default;

  /// Which strategy this engine runs.
  virtual EngineKind kind() const = 0;

  /// Processes one stream point.
  virtual void Insert(Point2 p) = 0;

  /// \brief Processes a batch of stream points. Equivalent to calling
  /// Insert() on each point in order — engines override this only to go
  /// faster, never to change the resulting summary.
  virtual void InsertBatch(std::span<const Point2> points) {
    Reserve(points.size());
    for (const Point2& p : points) Insert(p);
  }

  /// \brief Cache hint before a burst of queries: engines with deferred
  /// internal caches (StaticAdaptiveHull, WindowedHullEngine) rebuild them
  /// now so subsequent const accessors serve the cache instead of
  /// recomputing. Never changes observable summary state; counts as a
  /// mutator for the thread-compatibility contract. Default: no-op.
  virtual void Seal() {}

  /// \brief Capacity hint: about \p expected_points more points are coming.
  /// Engines pre-size their internal arenas, heaps, and scratch buffers so
  /// the subsequent ingestion hot path runs allocation-free (most engine
  /// state is O(r), so the hint mainly triggers r-derived reservations the
  /// engine would otherwise grow into). Never changes observable summary
  /// state; counts as a mutator for the thread-compatibility contract.
  /// InsertBatch() implementations call this on entry. Default: no-op.
  virtual void Reserve(size_t expected_points) { (void)expected_points; }

  /// \brief Number of points currently summarized: the stream length for
  /// insert-only engines, the in-window count (or a close upper bound; see
  /// WindowedHullEngine) for expiring ones. Pure metadata — the wire and
  /// view layers chain frames on Generation(), never on this count.
  virtual uint64_t num_points() const = 0;

  /// \brief Monotone mutation epoch: strictly increases on every observable
  /// summary mutation — each Insert() and, for expiring engines, each
  /// expiry event that changes what the summary covers. Two reads returning
  /// the same value bracket a window with no observable change, so caches,
  /// delta baselines, and remote views key on this value.
  ///
  /// This is the single compatibility shim of the generation-epoch
  /// redesign: insert-only engines never expire anything, so their epoch
  /// is exactly the stream length and the default keeps their v2/v3 wire
  /// frames byte-identical to the pre-epoch format. Engines whose count
  /// can stall or shrink (WindowedHullEngine, restored engines) override
  /// it. Invariant: Generation() >= num_points() is NOT required; the wire
  /// layer only requires per-engine monotonicity and that
  /// Generation() == num_points() hold iff the compact (unflagged) frame
  /// encoding is used.
  virtual uint64_t Generation() const { return num_points(); }

  /// True before the first point.
  bool empty() const { return num_points() == 0; }
  /// The base direction count r.
  virtual uint32_t r() const = 0;

  /// \brief The current approximate hull: distinct sample points in CCW
  /// order. The true hull of the entire stream contains this polygon and
  /// lies within ErrorBound() of it.
  virtual ConvexPolygon Polygon() const = 0;

  /// \brief A guaranteed superset of the true hull of the entire stream:
  ///
  ///     Polygon()  subset of  true hull  subset of  OuterPolygon().
  ///
  /// Implemented as the intersection of the supporting half-planes of all
  /// samples, each relaxed outward by the engine's certified SampleSlacks().
  /// With all-zero slacks (engines whose stored samples are true stream
  /// extrema: uniform, static-adaptive) this equals the inner polygon
  /// extended by its uncertainty triangles (vertices: the samples plus the
  /// triangle apexes). The streaming adaptive family reports non-zero
  /// slacks, because a direction activated mid-stream may have missed
  /// earlier extrema by up to its Lemma 5.3 invariant offset.
  ///
  /// The [Polygon(), OuterPolygon()] sandwich is what the certified query
  /// layer (src/queries/certified.h) brackets every answer with.
  virtual ConvexPolygon OuterPolygon() const;

  /// All active samples in CCW direction order.
  virtual std::vector<HullSample> Samples() const = 0;

  /// \brief Certified per-sample outward slacks, aligned with Samples():
  /// the engine guarantees every stream point satisfies
  ///
  ///     dot(p, u_i) <= dot(s_i, u_i) + SampleSlacks()[i]
  ///
  /// for sample direction u_i with stored point s_i. These slacks define
  /// OuterPolygon() and are what snapshot v2 (core/snapshot.h) ships over
  /// the wire, so a receiver reconstructs the exact sandwich without
  /// re-deriving engine-specific bounds.
  ///
  /// An empty vector means all-zero (the same convention
  /// SupportIntersection accepts). The default returns exactly that —
  /// valid only for engines whose stored samples are true stream extrema,
  /// and deliberately avoiding a Samples() call, which deferred-cache
  /// engines would answer with a full rebuild. AdaptiveHull overrides it
  /// with its tracked per-direction Lemma 5.3 offsets.
  virtual std::vector<double> SampleSlacks() const { return {}; }

  /// \brief The effective perimeter P entering the engine's weight and
  /// offset formulas (the running max of the uniformly sampled hull's
  /// perimeter), or 0 for engines with no such notion. Shipped as producer
  /// metadata in snapshot v2.
  virtual double EffectivePerimeter() const { return 0; }

  /// \brief Serializes this engine's certified sandwich as a snapshot v2
  /// message: Seal() followed by the free EncodeSummaryView() (see
  /// core/snapshot.h for the wire format), so deferred-cache engines pay
  /// one rebuild instead of one per metadata accessor. Callers holding
  /// only a const engine can use EncodeSummaryView directly (correct for
  /// every engine, but sealing beforehand is on them — a const encode
  /// does not capture a delta baseline). Defined in core/snapshot.cc.
  ///
  /// A non-empty encode also captures the engine's *wire baseline* — a
  /// generation-tagged copy of the samples and slacks just shipped — so a
  /// subsequent EncodeSummaryDelta() can transmit only what changed since
  /// this frame. This is the resync frame of the v3 delta protocol.
  std::string EncodeView();

  /// \brief Serializes a snapshot v3 *delta* frame: only the samples whose
  /// point or certified slack changed since the wire baseline (plus the
  /// retired directions and fresh producer metadata), typically a small
  /// fraction of a full v2 frame on a stable summary. See core/snapshot.h
  /// for the wire format and DESIGN.md for the protocol.
  ///
  /// Generations are mutation epochs (Generation()): \p base_generation
  /// must equal the engine's Generation() at the moment the previous frame
  /// (full or delta) was encoded — i.e. what the sink's view currently
  /// holds as its generation. For insert-only engines the epoch equals the
  /// stream length, so pre-epoch callers that passed num_points() keep
  /// working unchanged. On success the wire baseline advances to the
  /// current state, so consecutive deltas chain. Returns
  /// FailedPrecondition when no baseline matches \p base_generation (never
  /// encoded, a frame was skipped, or the engine is empty): the caller
  /// must resync by sending a full EncodeView() frame instead. Defined in
  /// core/snapshot.cc.
  Status EncodeSummaryDelta(uint64_t base_generation, std::string* out);

  /// \brief Uncertainty triangles of all (non-degenerate) current edges, in
  /// CCW order. The true hull is sandwiched between Polygon() and the union
  /// of these triangles.
  virtual std::vector<UncertaintyTriangle> Triangles() const = 0;

  /// \brief An upper bound on the Hausdorff distance between Polygon() and
  /// the true hull of the stream. AdaptiveHull reports the a-priori
  /// 16*pi*P/r^2 of Corollary 5.2; engines whose invariants do not support
  /// that formula report the a-posteriori maximum uncertainty-triangle
  /// height (§2), which is always a valid bound.
  virtual double ErrorBound() const = 0;

  /// \brief Operation counters. Engines with deferred internal caches may
  /// let derived counters lag behind Insert()-fed state until the next
  /// Seal() or InsertBatch() (StaticAdaptiveHull's directions_refined);
  /// the ingestion counters themselves are always current.
  virtual const AdaptiveHullStats& stats() const = 0;

  /// \brief Exhaustive structural self-check (test support). Returns the
  /// first violated invariant as an error Status.
  virtual Status CheckConsistency() const = 0;

 protected:
  /// \brief Change hint for the v3 delta encoder: engines that track
  /// exactly which sample directions were touched since the last wire
  /// baseline capture (AdaptiveHull instruments its four mutation sites)
  /// return true and fill \p *changed; the encoder then skips the
  /// sample-by-sample comparison for untouched directions. Directions
  /// absent from the hint MUST be unchanged — over-reporting is harmless
  /// (touched-but-equal samples are compared and suppressed), silent
  /// under-reporting would corrupt the delta stream. The default returns
  /// false: "unknown", making the encoder diff every direction against
  /// the baseline (always correct; StaticAdaptiveHull's wholesale rebuilds
  /// take this path). \p *changed may be left unsorted and may contain
  /// duplicates; the encoder normalizes it.
  virtual bool ChangedDirectionsSinceBaseline(
      std::vector<Direction>* changed) const {
    (void)changed;
    return false;
  }

  /// \brief Notification that the wire baseline was just (re)captured by
  /// EncodeView()/EncodeSummaryDelta(): natively-tracking engines reset
  /// their touched-direction sets here so the next hint is relative to the
  /// new baseline. Default: no-op.
  virtual void OnWireBaselineCaptured() {}

  /// \brief Installs a wire baseline this engine never itself encoded: the
  /// exact samples/slacks a sink already holds, tagged with the generation
  /// it holds them at. This is the restore hook (core/restore.h): an engine
  /// rebuilt from a decoded view seeds the view as its baseline, so its
  /// first EncodeSummaryDelta(\p generation) chains onto the sink's held
  /// view and a restarted producer rejoins the delta stream without a full
  /// resync frame.
  void SeedWireBaseline(uint64_t generation, std::vector<HullSample> samples,
                        std::vector<double> slacks) {
    wire_baseline_.samples = std::move(samples);
    wire_baseline_.slacks = std::move(slacks);
    wire_baseline_.generation = generation;
    wire_baseline_.valid = true;
    OnWireBaselineCaptured();
  }

 private:
  // Producer-side state of the v3 delta protocol: the samples and slacks
  // as of the last encoded frame, tagged with the Generation() epoch they
  // correspond to. Maintained by EncodeView()/EncodeSummaryDelta() in
  // core/snapshot.cc.
  struct WireBaseline {
    bool valid = false;
    uint64_t generation = 0;
    std::vector<HullSample> samples;
    std::vector<double> slacks;  // Empty means all-zero.
  };
  WireBaseline wire_baseline_;
};

/// \brief Options for MakeEngine. `hull` configures every kind (kUniform
/// uses only hull.r: its flat engine has no refinement machinery). The
/// remaining fields apply to individual kinds as documented.
struct EngineOptions {
  AdaptiveHullOptions hull;

  /// kPartiallyAdaptive: number of initial stream points during which the
  /// direction set may adapt; 0 selects the default of 1024.
  uint64_t training_points = 0;

  /// The effective training prefix after resolving the 0 default.
  uint64_t EffectiveTrainingPoints() const {
    return training_points == 0 ? 1024 : training_points;
  }

  /// \brief kWindowed: count-based window width W — the summary covers the
  /// last W inserted points. 0 selects the default of 65536 (wide enough
  /// that generic kind sweeps over modest streams see insert-only
  /// behavior). Ignored when window_seconds selects time-based expiry.
  uint64_t window_points = 0;

  /// \brief kWindowed: time-based window duration D. When > 0 the engine
  /// expires by timestamp instead of by count: the summary covers points
  /// with timestamp strictly greater than now - D, where "now" is the
  /// engine's monotone time watermark (WindowedHullEngine::InsertTimed /
  /// AdvanceTime). Must be finite.
  double window_seconds = 0;

  /// \brief kWindowed: number of expiry buckets K. Points are routed into
  /// K consecutive sub-hulls and expire bucket-wise; larger K tightens the
  /// window approximation at the cost of K-way merges on query. 0 selects
  /// the default of 8.
  uint32_t window_buckets = 0;

  /// \brief kWindowed: the engine kind run inside each bucket. Must not
  /// itself be kWindowed (no nested windows).
  EngineKind window_inner_kind = EngineKind::kAdaptive;

  /// The effective count window after resolving the 0 default.
  uint64_t EffectiveWindowPoints() const {
    return window_points == 0 ? 65536 : window_points;
  }

  /// The effective bucket count after resolving the 0 default.
  uint32_t EffectiveWindowBuckets() const {
    return window_buckets == 0 ? 8 : window_buckets;
  }

  /// Validates option consistency for the given kind.
  Status Validate(EngineKind kind) const;
};

/// Stable lowercase identifier for a kind ("uniform", "adaptive",
/// "partially-adaptive", "static-adaptive", "windowed"); used in tables
/// and CLIs.
const char* EngineKindName(EngineKind kind);

/// \brief Parses EngineKindName output back to the kind. Matching is
/// case-insensitive and treats '_' as '-' ("Static_Adaptive" parses as
/// kStaticAdaptive), so CLI flags and config keys round-trip regardless of
/// the caller's naming convention. Returns false (leaving *out untouched)
/// for unknown names.
bool ParseEngineKind(std::string_view name, EngineKind* out);

/// Every EngineKind, in declaration order — the idiom for consumers that
/// sweep strategies generically.
std::span<const EngineKind> AllEngineKinds();

/// \brief Constructs an engine of the requested kind. CHECK-fails on
/// invalid options; use options.Validate(kind) first when they are
/// untrusted.
std::unique_ptr<HullEngine> MakeEngine(EngineKind kind,
                                       const EngineOptions& options);

/// \brief The a-posteriori error bound shared by the non-adaptive engines:
/// the maximum uncertainty-triangle height (0 when there are no triangles).
double MaxTriangleHeight(const std::vector<UncertaintyTriangle>& triangles);

/// \brief Intersection of the relaxed supporting half-planes
///
///     { x : dot(x, u_i) <= dot(s_i, u_i) + slack_i }
///
/// over a summary's samples (u_i the i-th sample direction, s_i its stored
/// point). With all-zero slacks this is the inner polygon extended by its
/// uncertainty triangles — the generic construction behind OuterPolygon().
/// One O(n) pass over the samples (DESIGN.md, "Building the outer
/// polygon"). Where adjacent sample directions are more than a quarter turn
/// apart (decoded views only), bounding lines keep the result finite.
/// Returns an empty polygon when the half-planes share no point.
/// \param samples the active samples in CCW direction order (as returned
///        by HullEngine::Samples()), all over one base r.
/// \param slacks per-sample outward offsets; empty means all zero,
///        otherwise must match samples in length.
ConvexPolygon SupportIntersection(const std::vector<HullSample>& samples,
                                  std::span<const double> slacks);

}  // namespace streamhull

#endif  // STREAMHULL_CORE_HULL_ENGINE_H_
