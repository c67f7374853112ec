// Tests for the multi-stream extensions: StreamGroup (named summaries,
// pairwise monitoring with transition events) and RegionPartitionedHull
// (§8's a-priori cluster partition).

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "multi/region_hull.h"
#include "multi/stream_group.h"
#include "stream/generators.h"

namespace streamhull {
namespace {

AdaptiveHullOptions Opts(uint32_t r = 16) {
  AdaptiveHullOptions o;
  o.r = r;
  return o;
}

TEST(StreamGroupTest, StreamLifecycle) {
  StreamGroup group(Opts());
  EXPECT_TRUE(group.AddStream("a").ok());
  EXPECT_TRUE(group.AddStream("b").ok());
  EXPECT_FALSE(group.AddStream("a").ok());  // Duplicate.
  EXPECT_FALSE(group.AddStream("").ok());   // Empty name.
  EXPECT_EQ(group.StreamNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(group.Insert("a", {1, 2}).ok());
  EXPECT_FALSE(group.Insert("zzz", {1, 2}).ok());
  ASSERT_NE(group.Hull("a"), nullptr);
  EXPECT_EQ(group.Hull("a")->num_points(), 1u);
  EXPECT_EQ(group.Hull("zzz"), nullptr);
}

TEST(StreamGroupTest, PerStreamEngineSelection) {
  StreamGroup group(Opts());
  ASSERT_TRUE(group.AddStream("adaptive").ok());  // Group default.
  ASSERT_TRUE(group.AddStream("uniform", EngineKind::kUniform).ok());
  ASSERT_TRUE(group.AddStream("static", EngineKind::kStaticAdaptive).ok());
  EXPECT_EQ(group.Hull("adaptive")->kind(), EngineKind::kAdaptive);
  EXPECT_EQ(group.Hull("uniform")->kind(), EngineKind::kUniform);
  EXPECT_EQ(group.Hull("static")->kind(), EngineKind::kStaticAdaptive);
  DiskGenerator gen(1);
  const auto points = gen.Take(500);
  for (const std::string name : {"adaptive", "uniform", "static"}) {
    ASSERT_TRUE(group.InsertBatch(name, points).ok());
    EXPECT_EQ(group.Hull(name)->num_points(), 500u);
    EXPECT_TRUE(group.Hull(name)->CheckConsistency().ok()) << name;
  }
  PairReport report;
  ASSERT_TRUE(group.Report("adaptive", "uniform", &report).ok());
  // Same distribution: even the inner hulls overlap, so inseparability is
  // certified, not merely suspected.
  EXPECT_EQ(report.separable, Certainty::kFalse);
}

TEST(StreamGroupTest, InsertBatchMatchesInsert) {
  StreamGroup batched(Opts());
  StreamGroup incremental(Opts());
  ASSERT_TRUE(batched.AddStream("s").ok());
  ASSERT_TRUE(incremental.AddStream("s").ok());
  EllipseGenerator gen(5, 8.0, 0.4);
  const auto points = gen.Take(1000);
  ASSERT_TRUE(batched.InsertBatch("s", points).ok());
  for (const Point2& p : points) {
    ASSERT_TRUE(incremental.Insert("s", p).ok());
  }
  EXPECT_FALSE(batched.InsertBatch("zzz", points).ok());
  const ConvexPolygon pa = batched.Hull("s")->Polygon();
  const ConvexPolygon pb = incremental.Hull("s")->Polygon();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_TRUE(pa[i] == pb[i]);
}

TEST(StreamGroupTest, ReportRequiresDataAndKnownNames) {
  StreamGroup group(Opts());
  ASSERT_TRUE(group.AddStream("a").ok());
  ASSERT_TRUE(group.AddStream("b").ok());
  PairReport report;
  EXPECT_FALSE(group.Report("a", "zzz", &report).ok());
  EXPECT_FALSE(group.Report("a", "b", &report).ok());  // Both empty.
  ASSERT_TRUE(group.Insert("a", {0, 0}).ok());
  ASSERT_TRUE(group.Insert("b", {5, 0}).ok());
  ASSERT_TRUE(group.Report("a", "b", &report).ok());
  // Single-point summaries are exact: the interval collapses.
  EXPECT_EQ(report.separable, Certainty::kTrue);
  EXPECT_NEAR(report.distance.lo, 5.0, 1e-9);
  EXPECT_NEAR(report.distance.hi, 5.0, 1e-9);
}

TEST(StreamGroupTest, ReportRelationships) {
  StreamGroup group(Opts());
  ASSERT_TRUE(group.AddStream("inner").ok());
  ASSERT_TRUE(group.AddStream("outer").ok());
  // Outer: big ring; inner: small blob at the center.
  CircleGenerator ring(1, 128, 10.0);
  DiskGenerator blob(2, 0.5);
  for (int i = 0; i < 128; ++i) ASSERT_TRUE(group.Insert("outer", ring.Next()).ok());
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(group.Insert("inner", blob.Next()).ok());
  PairReport report;
  ASSERT_TRUE(group.Report("inner", "outer", &report).ok());
  EXPECT_EQ(report.separable, Certainty::kFalse);
  EXPECT_EQ(report.b_contains_a, Certainty::kTrue);
  EXPECT_EQ(report.a_contains_b, Certainty::kFalse);
  EXPECT_GT(report.overlap_area.lo, 0.0);
  EXPECT_GE(report.overlap_area.hi, report.overlap_area.lo);
}

size_t CountKind(const std::vector<PairEvent>& events, PairEvent::Kind kind) {
  size_t n = 0;
  for (const PairEvent& e : events) n += e.kind == kind ? 1 : 0;
  return n;
}

TEST(StreamGroupTest, PollEmitsCertifiedTransitionsOnce) {
  StreamGroup group(Opts());
  ASSERT_TRUE(group.AddStream("a").ok());
  ASSERT_TRUE(group.AddStream("b").ok());
  ASSERT_TRUE(group.WatchPair("a", "b").ok());
  ASSERT_TRUE(group.WatchPair("b", "a").ok());  // Idempotent (same pair).
  EXPECT_FALSE(group.WatchPair("a", "a").ok());
  EXPECT_FALSE(group.WatchPair("a", "zzz").ok());

  // Phase 1: far apart -> no events (initial state is certified separable
  // and uncontained, and the truth matches it).
  DiskGenerator gen_a(3, 1.0, {0, 0});
  DiskGenerator gen_b(4, 1.0, {10, 0});
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(group.Insert("a", gen_a.Next()).ok());
    ASSERT_TRUE(group.Insert("b", gen_b.Next()).ok());
  }
  EXPECT_TRUE(group.Poll().empty());

  // Phase 2: b marches onto a -> exactly one certified separability-lost
  // transition (deep overlap: even the inner hulls intersect).
  DiskGenerator gen_b2(5, 1.0, {0.5, 0});
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(group.Insert("b", gen_b2.Next()).ok());
  }
  auto events = group.Poll();
  EXPECT_EQ(CountKind(events, PairEvent::Kind::kSeparabilityLost), 1u);
  EXPECT_EQ(CountKind(events, PairEvent::Kind::kSeparabilityGained), 0u);
  EXPECT_EQ(CountKind(events, PairEvent::Kind::kContainmentStarted), 0u);
  EXPECT_EQ(CountKind(events, PairEvent::Kind::kContainmentEnded), 0u);
  EXPECT_TRUE(group.Poll().empty());  // No re-report without a transition.

  // Phase 3: b surrounds a -> exactly one certified containment event
  // naming (contained, container) = (a, b).
  CircleGenerator ring(6, 64, 30.0);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(group.Insert("b", ring.Next()).ok());
  }
  events = group.Poll();
  ASSERT_EQ(CountKind(events, PairEvent::Kind::kContainmentStarted), 1u);
  for (const PairEvent& e : events) {
    if (e.kind != PairEvent::Kind::kContainmentStarted) continue;
    EXPECT_EQ(e.first, "a");
    EXPECT_EQ(e.second, "b");
  }
  EXPECT_EQ(CountKind(events, PairEvent::Kind::kSeparabilityLost), 0u);
  EXPECT_EQ(CountKind(events, PairEvent::Kind::kSeparabilityGained), 0u);
  EXPECT_TRUE(group.Poll().empty());
}

// The acceptance property of the tri-state redesign: a pair whose true
// separation sits inside the summaries' uncertainty band must never flap.
// Two streams hug a vertical boundary, strictly separated by a gap orders
// of magnitude below the summary error, with each round's extremes pushed
// right up against it — the kind of adversarial near-boundary stream whose
// raw point values sit arbitrarily close to the threshold. Certified
// polling must emit at most one kCertaintyLost and zero separability
// transitions while every report's distance interval straddles zero.
TEST(StreamGroupTest, NoFlappingInsideUncertaintyBand) {
  StreamGroup group(Opts(8));  // Small r: wide uncertainty band.
  ASSERT_TRUE(group.AddStream("left").ok());
  ASSERT_TRUE(group.AddStream("right").ok());
  ASSERT_TRUE(group.WatchPair("left", "right").ok());

  Rng rng(2004);
  const double kGap = 1e-4;  // True gap; error bound is ~1 at r = 8.
  // Boundary normal at pi/8: midway between two uniform sample directions
  // (multiples of pi/4 at r = 8), where the uncertainty triangles over the
  // boundary-hugging edges are tallest. An axis-aligned boundary would
  // coincide with a sample direction and be summarized exactly.
  const Point2 u = UnitVector(0.39269908169872414);
  const Point2 v = u.PerpCcw();
  size_t transitions = 0;
  size_t certainty_events = 0;
  size_t straddling_polls = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<Point2> l, r;
    for (int i = 0; i < 50; ++i) {
      l.push_back(u * rng.Uniform(-2.0, -kGap / 2) +
                  v * rng.Uniform(-1.0, 1.0));
      r.push_back(u * rng.Uniform(kGap / 2, 2.0) +
                  v * rng.Uniform(-1.0, 1.0));
    }
    // Pin this round's extremes onto the boundary so the raw inner-hull
    // distance keeps wobbling at the 1e-4 scale instead of settling.
    l.push_back(u * (-kGap / 2) + v * rng.Uniform(-1.0, 1.0));
    r.push_back(u * (kGap / 2) + v * rng.Uniform(-1.0, 1.0));
    ASSERT_TRUE(group.InsertBatch("left", l).ok());
    ASSERT_TRUE(group.InsertBatch("right", r).ok());

    PairReport report;
    ASSERT_TRUE(group.Report("left", "right", &report).ok());
    const bool straddles = report.distance.lo <= 0 && report.distance.hi > 0;
    straddling_polls += straddles ? 1 : 0;
    for (const PairEvent& e : group.Poll()) {
      switch (e.kind) {
        case PairEvent::Kind::kSeparabilityLost:
        case PairEvent::Kind::kSeparabilityGained:
          EXPECT_FALSE(straddles)
              << "round " << round
              << ": transition fired while the interval straddles zero";
          ++transitions;
          break;
        case PairEvent::Kind::kCertaintyLost:
        case PairEvent::Kind::kCertaintyGained:
          if (e.predicate == PairEvent::Predicate::kSeparability) {
            ++certainty_events;
          }
          break;
        default:
          break;
      }
    }
  }
  // The scenario is designed to stay inside the band: the watch reports
  // the band entry once and then stays silent. In particular there is no
  // lost/gained reversal pair.
  EXPECT_GT(straddling_polls, 30u);  // The scenario really is adversarial.
  EXPECT_EQ(transitions, 0u);
  EXPECT_EQ(certainty_events, 1u);
}

TEST(RegionHullTest, CreateValidation) {
  Status st;
  EXPECT_EQ(RegionPartitionedHull::Create({}, Opts(), &st), nullptr);
  EXPECT_FALSE(st.ok());
  // Degenerate region.
  EXPECT_EQ(RegionPartitionedHull::Create(
                {ConvexPolygon({{0, 0}, {1, 1}})}, Opts(), &st),
            nullptr);
  EXPECT_FALSE(st.ok());
  auto ok = RegionPartitionedHull::Create(
      {ConvexPolygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}})}, Opts(), &st);
  EXPECT_TRUE(st.ok());
  EXPECT_NE(ok, nullptr);
}

TEST(RegionHullTest, RoutesPointsToRegions) {
  Status st;
  auto rp = RegionPartitionedHull::Create(
      {ConvexPolygon({{-10, -10}, {0, -10}, {0, 10}, {-10, 10}}),
       ConvexPolygon({{1, -10}, {10, -10}, {10, 10}, {1, 10}})},
      Opts(), &st);
  ASSERT_TRUE(st.ok());
  rp->Insert({-5, 0});   // Region 0.
  rp->Insert({5, 0});    // Region 1.
  rp->Insert({0.5, 0});  // Gap between regions -> outliers.
  rp->Insert({50, 50});  // Far outside -> outliers.
  EXPECT_EQ(rp->RegionCount(0), 1u);
  EXPECT_EQ(rp->RegionCount(1), 1u);
  EXPECT_EQ(rp->OutlierCount(), 2u);
  EXPECT_EQ(rp->num_points(), 4u);
}

TEST(RegionHullTest, LShapePreservesCavity) {
  // The §8 motivation: an "L"-shaped stream. A single hull hides the cavity;
  // the partitioned shape does not.
  Status st;
  auto rp = RegionPartitionedHull::Create(
      {// Vertical bar of the L.
       ConvexPolygon({{0, 0}, {2, 0}, {2, 10}, {0, 10}}),
       // Horizontal bar.
       ConvexPolygon({{2, 0}, {10, 0}, {10, 2}, {2, 2}})},
      Opts(), &st);
  ASSERT_TRUE(st.ok());
  Rng rng(7);
  AdaptiveHull single(Opts());
  for (int i = 0; i < 6000; ++i) {
    // Sample uniformly from the L.
    Point2 p;
    if (rng.Bernoulli(0.5)) {
      p = {rng.Uniform(0, 2), rng.Uniform(0, 10)};
    } else {
      p = {rng.Uniform(2, 10), rng.Uniform(0, 2)};
    }
    rp->Insert(p);
    single.Insert(p);
  }
  // The cavity point (7, 7) is inside the single hull's approximation but
  // outside every region hull.
  const Point2 cavity{5, 5};
  EXPECT_TRUE(single.Polygon().Contains(cavity));
  for (const ConvexPolygon& poly : rp->Shape()) {
    EXPECT_FALSE(poly.Contains(cavity));
  }
  // Total shape area ~ area of the L (= 36), far below the single hull's.
  double shape_area = 0;
  for (const ConvexPolygon& poly : rp->Shape()) shape_area += poly.Area();
  EXPECT_NEAR(shape_area, 36.0, 4.0);
  EXPECT_GT(single.Polygon().Area(), 55.0);
  // And the union hull agrees with the single summary's hull (within error).
  EXPECT_NEAR(rp->UnionHull().Area(), single.Polygon().Area(),
              0.1 * single.Polygon().Area());
}

TEST(RegionHullTest, PerRegionSummariesAreConsistent) {
  Status st;
  auto rp = RegionPartitionedHull::Create(
      {ConvexPolygon({{-20, -20}, {0, -20}, {0, 20}, {-20, 20}}),
       ConvexPolygon({{0, -20}, {20, -20}, {20, 20}, {0, 20}})},
      Opts(), &st);
  ASSERT_TRUE(st.ok());
  ClusterGenerator gen(9, 6);
  for (int i = 0; i < 3000; ++i) rp->Insert(gen.Next() * 10.0);
  for (size_t i = 0; i < rp->num_regions(); ++i) {
    EXPECT_TRUE(rp->RegionHull(i).CheckConsistency().ok());
  }
  EXPECT_TRUE(rp->OutlierHull().CheckConsistency().ok());
}

// ---------------------------------------------------------------------------
// Remote streams: snapshot v2 views in place of live engines.
// ---------------------------------------------------------------------------

TEST(StreamGroupRemoteTest, RemoteStreamLifecycle) {
  StreamGroup group(Opts());
  ASSERT_TRUE(group.AddRemoteStream("remote").ok());
  EXPECT_FALSE(group.AddRemoteStream("remote").ok());  // Duplicate.
  EXPECT_FALSE(group.AddStream("remote").ok());        // Name taken.
  EXPECT_TRUE(group.IsRemote("remote"));
  EXPECT_FALSE(group.IsRemote("zzz"));
  // No engine backs a remote stream, and it accepts no points.
  EXPECT_EQ(group.Hull("remote"), nullptr);
  EXPECT_FALSE(group.Insert("remote", {1, 2}).ok());
  const Point2 pts[] = {{1, 2}};
  EXPECT_FALSE(group.InsertBatch("remote", pts).ok());
  // Updates only apply to remote streams, with valid bytes.
  ASSERT_TRUE(group.AddStream("local").ok());
  EXPECT_FALSE(group.UpdateRemoteStream("local", "whatever").ok());
  EXPECT_FALSE(group.UpdateRemoteStream("remote", "garbage").ok());
  EXPECT_FALSE(group.UpdateRemoteStream("zzz", "garbage").ok());
  // Before the first update the view is empty; Report refuses.
  ASSERT_TRUE(group.Insert("local", {0, 0}).ok());
  PairReport report;
  EXPECT_FALSE(group.Report("remote", "local", &report).ok());
}

TEST(StreamGroupRemoteTest, SinkCertifiesPairsFromDecodedViewsAlone) {
  // Two producers on other "nodes" ship v2; the sink holds decoded views
  // only, plus one local stream, and certifies all pairings.
  EngineOptions opts;
  opts.hull.r = 32;
  auto producer_a = MakeEngine(EngineKind::kAdaptive, opts);
  auto producer_b = MakeEngine(EngineKind::kUniform, opts);
  producer_a->InsertBatch(DiskGenerator(71, 1.0, {0, 0}).Take(2000));
  producer_b->InsertBatch(DiskGenerator(72, 1.0, {8, 0}).Take(2000));

  StreamGroup sink(Opts(32));
  ASSERT_TRUE(sink.AddRemoteStream("a").ok());
  ASSERT_TRUE(sink.AddRemoteStream("b").ok());
  ASSERT_TRUE(sink.AddStream("c").ok());
  ASSERT_TRUE(sink.UpdateRemoteStream("a", producer_a->EncodeView()).ok());
  ASSERT_TRUE(sink.UpdateRemoteStream("b", producer_b->EncodeView()).ok());
  const auto pts_c = DiskGenerator(73, 1.0, {0.2, 0}).Take(2000);
  ASSERT_TRUE(sink.InsertBatch("c", pts_c).ok());

  PairReport ab, ac;
  ASSERT_TRUE(sink.Report("a", "b", &ab).ok());
  EXPECT_EQ(ab.separable, Certainty::kTrue);  // Disks 8 apart.
  EXPECT_GT(ab.distance.lo, 4.0);
  ASSERT_TRUE(sink.Report("a", "c", &ac).ok());
  EXPECT_EQ(ac.separable, Certainty::kFalse);  // Same disk: inners overlap.

  // Watches mix remote and local streams; a remote update moves events.
  ASSERT_TRUE(sink.WatchPair("a", "b").ok());
  (void)sink.Poll();  // Baseline: separable.
  auto producer_b2 = MakeEngine(EngineKind::kAdaptive, opts);
  producer_b2->InsertBatch(DiskGenerator(74, 1.0, {0.3, 0.1}).Take(2000));
  ASSERT_TRUE(sink.UpdateRemoteStream("b", producer_b2->EncodeView()).ok());
  bool lost = false;
  for (const PairEvent& e : sink.Poll()) {
    if (e.kind == PairEvent::Kind::kSeparabilityLost) lost = true;
  }
  EXPECT_TRUE(lost) << "remote view update must drive certified events";
}

TEST(StreamGroupRemoteTest, RemoteStatsDistinguishResyncsFromRejections) {
  EngineOptions opts;
  opts.hull.r = 16;
  auto producer = MakeEngine(EngineKind::kAdaptive, opts);
  producer->InsertBatch(DiskGenerator(91, 1.0, {0, 0}).Take(1000));

  StreamGroup sink(Opts());
  ASSERT_TRUE(sink.AddRemoteStream("r").ok());
  RemoteStreamStats stats;
  ASSERT_TRUE(sink.RemoteStats("r", &stats).ok());
  EXPECT_EQ(stats.full_frames, 0u);
  EXPECT_EQ(stats.held_generation, 0u);

  // A delta arriving before any full frame is a generation gap: a resync
  // request, not a malformed-frame rejection. (The producer establishes
  // its own wire baseline with an encode the sink never receives.)
  (void)producer->EncodeView();
  uint64_t base = producer->num_points();
  producer->InsertBatch(DiskGenerator(92, 1.0, {0, 0}).Take(500));
  std::string delta;
  ASSERT_TRUE(producer->EncodeSummaryDelta(base, &delta).ok());
  EXPECT_EQ(sink.UpdateRemoteStream("r", delta).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sink.RemoteStats("r", &stats).ok());
  EXPECT_EQ(stats.resyncs_needed, 1u);
  EXPECT_EQ(stats.rejected_frames, 0u);

  // Full frame -> chained delta: both counted, generation tracked.
  ASSERT_TRUE(sink.UpdateRemoteStream("r", producer->EncodeView()).ok());
  base = producer->num_points();
  producer->InsertBatch(DiskGenerator(93, 1.0, {0, 0}).Take(500));
  ASSERT_TRUE(producer->EncodeSummaryDelta(base, &delta).ok());
  ASSERT_TRUE(sink.UpdateRemoteStream("r", delta).ok());
  ASSERT_TRUE(sink.RemoteStats("r", &stats).ok());
  EXPECT_EQ(stats.full_frames, 1u);
  EXPECT_EQ(stats.delta_frames, 1u);
  EXPECT_EQ(stats.held_generation, producer->num_points());

  // Garbage is a rejection, not a resync.
  EXPECT_EQ(sink.UpdateRemoteStream("r", "garbage").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(sink.RemoteStats("r", &stats).ok());
  EXPECT_EQ(stats.rejected_frames, 1u);
  EXPECT_EQ(stats.resyncs_needed, 1u);
  EXPECT_EQ(stats.held_generation, producer->num_points());  // Unchanged.

  // A delta whose predecessor was lost in transit is again a resync
  // request: the sink holds an older generation than the frame's base.
  base = producer->num_points();
  producer->InsertBatch(DiskGenerator(94, 1.0, {0, 0}).Take(500));
  std::string lost;
  ASSERT_TRUE(producer->EncodeSummaryDelta(base, &lost).ok());
  base = producer->num_points();
  producer->InsertBatch(DiskGenerator(95, 1.0, {0, 0}).Take(500));
  ASSERT_TRUE(producer->EncodeSummaryDelta(base, &delta).ok());
  EXPECT_EQ(sink.UpdateRemoteStream("r", delta).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sink.RemoteStats("r", &stats).ok());
  EXPECT_EQ(stats.resyncs_needed, 2u);

  // Stats accessors police stream identity like the update path does.
  ASSERT_TRUE(sink.AddStream("local").ok());
  EXPECT_FALSE(sink.RemoteStats("local", &stats).ok());
  EXPECT_FALSE(sink.RemoteStats("zzz", &stats).ok());
}

TEST(StreamGroupRemoteTest, RemoteViewExposesHeldDecodedView) {
  EngineOptions opts;
  opts.hull.r = 16;
  auto producer = MakeEngine(EngineKind::kAdaptive, opts);
  producer->InsertBatch(DiskGenerator(95, 1.0, {2, 3}).Take(1500));

  StreamGroup sink(Opts());
  ASSERT_TRUE(sink.AddRemoteStream("r").ok());
  DecodedSummaryView view;
  // Before the first update there is nothing to expose.
  EXPECT_EQ(sink.RemoteView("r", &view).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sink.UpdateRemoteStream("r", producer->EncodeView()).ok());
  ASSERT_TRUE(sink.RemoteView("r", &view).ok());
  EXPECT_EQ(view.num_points, producer->num_points());
  EXPECT_FALSE(view.samples.empty());
  // Local and unknown streams are refused.
  ASSERT_TRUE(sink.AddStream("local").ok());
  EXPECT_FALSE(sink.RemoteView("local", &view).ok());
  EXPECT_FALSE(sink.RemoteView("zzz", &view).ok());
}

// ---------------------------------------------------------------------------
// Region-partitioned distribution: per-region v2 emit + merge.
// ---------------------------------------------------------------------------

TEST(RegionHullTest, EmitAndMergeViewsAcrossNodes) {
  const std::vector<ConvexPolygon> partition = {
      ConvexPolygon({{-20, -20}, {0, -20}, {0, 20}, {-20, 20}}),
      ConvexPolygon({{1, -20}, {20, -20}, {20, 20}, {1, 20}})};
  Status st;
  auto node1 = RegionPartitionedHull::Create(partition, Opts(), &st);
  ASSERT_TRUE(st.ok());
  auto node2 = RegionPartitionedHull::Create(partition, Opts(), &st);
  ASSERT_TRUE(st.ok());
  auto sink = RegionPartitionedHull::Create(partition, Opts(), &st);
  ASSERT_TRUE(st.ok());

  DiskGenerator left1(81, 2.0, {-10, 0}), right1(82, 2.0, {10, 0});
  DiskGenerator left2(83, 2.0, {-10, 6});
  for (int i = 0; i < 2000; ++i) {
    node1->Insert(left1.Next());
    node1->Insert(right1.Next());
    node2->Insert(left2.Next());
  }
  node2->Insert({0.5, 0});  // An outlier between the regions.

  // Empty summaries encode to nothing; non-empty ones to v2 messages.
  EXPECT_TRUE(node1->EncodeRegionView(node1->OutlierIndex()).empty());
  for (size_t i = 0; i <= node1->OutlierIndex(); ++i) {
    const std::string wire1 = node1->EncodeRegionView(i);
    const std::string wire2 = node2->EncodeRegionView(i);
    for (const std::string* wire : {&wire1, &wire2}) {
      if (wire->empty()) continue;
      DecodedSummaryView view;
      ASSERT_TRUE(DecodeSummaryView(*wire, &view).ok()) << "region " << i;
      ASSERT_TRUE(sink->MergeDecodedView(i, view).ok()) << "region " << i;
    }
  }

  // Merge validation.
  DecodedSummaryView dummy;
  EXPECT_FALSE(sink->MergeDecodedView(99, dummy).ok());  // Out of range.
  EXPECT_FALSE(sink->MergeDecodedView(0, dummy).ok());   // Empty view.

  // The merged sink covers both nodes' clusters, region by region.
  EXPECT_TRUE(sink->RegionHull(0).Polygon().Contains({-10, 0}));
  EXPECT_TRUE(sink->RegionHull(0).Polygon().Contains({-10, 6}));
  EXPECT_TRUE(sink->RegionHull(1).Polygon().Contains({10, 0}));
  EXPECT_FALSE(sink->RegionHull(1).Polygon().Contains({-10, 0}));
  EXPECT_EQ(sink->OutlierCount(), 1u);
  for (size_t i = 0; i < sink->num_regions(); ++i) {
    EXPECT_TRUE(sink->RegionHull(i).CheckConsistency().ok()) << i;
  }
  // The cavity between the clusters survives the distributed merge: the
  // sink's shape is two polygons, not one blended hull.
  EXPECT_EQ(sink->Shape().size(), 3u);  // Two regions + outlier point.
}

TEST(StreamGroupTest, PollCachesPerStreamGeometryAcrossPairsAndPolls) {
  // Three streams watched in all three pairs: a poll must materialize each
  // stream's sandwich once (3, not 6 per-pair sides), and a second poll
  // over unchanged streams must materialize nothing — the generation-
  // tagged cache serves it. The PairReport a watch would act on is
  // unchanged by the caching (same-state group built fresh as reference).
  StreamGroup cached(Opts());
  StreamGroup reference(Opts());
  for (StreamGroup* g : {&cached, &reference}) {
    ASSERT_TRUE(g->AddStream("a").ok());
    ASSERT_TRUE(g->AddStream("b").ok());
    ASSERT_TRUE(g->AddStream("c").ok());
    DiskGenerator ga(1, 1.0, {0, 0});
    DiskGenerator gb(2, 1.0, {1.2, 0});
    DiskGenerator gc(3, 1.0, {10, 0});
    ASSERT_TRUE(g->InsertBatch("a", ga.Take(300)).ok());
    ASSERT_TRUE(g->InsertBatch("b", gb.Take(300)).ok());
    ASSERT_TRUE(g->InsertBatch("c", gc.Take(300)).ok());
  }
  ASSERT_TRUE(cached.WatchPair("a", "b").ok());
  ASSERT_TRUE(cached.WatchPair("b", "c").ok());
  ASSERT_TRUE(cached.WatchPair("a", "c").ok());

  const uint64_t before = cached.view_materializations();
  (void)cached.Poll();
  EXPECT_EQ(cached.view_materializations() - before, 3u)
      << "one materialization per stream, not per pair side";
  (void)cached.Poll();
  EXPECT_EQ(cached.view_materializations() - before, 3u)
      << "quiescent re-poll must serve the cache";

  // Reports off the cache match a cache-cold group exactly, field by field.
  for (const auto& [x, y] : std::vector<std::pair<std::string, std::string>>{
           {"a", "b"}, {"b", "c"}, {"a", "c"}}) {
    PairReport got, want;
    ASSERT_TRUE(cached.Report(x, y, &got).ok());
    ASSERT_TRUE(reference.Report(x, y, &want).ok());
    EXPECT_EQ(got.distance.lo, want.distance.lo);
    EXPECT_EQ(got.distance.hi, want.distance.hi);
    EXPECT_EQ(got.separable, want.separable);
    EXPECT_EQ(got.overlap_area.lo, want.overlap_area.lo);
    EXPECT_EQ(got.overlap_area.hi, want.overlap_area.hi);
    EXPECT_EQ(got.a_contains_b, want.a_contains_b);
    EXPECT_EQ(got.b_contains_a, want.b_contains_a);
  }

  // Inserting invalidates exactly the touched stream's cache.
  const uint64_t mid = cached.view_materializations();
  ASSERT_TRUE(cached.Insert("a", {0.1, 0.1}).ok());
  (void)cached.Poll();
  EXPECT_EQ(cached.view_materializations() - mid, 1u)
      << "only the mutated stream re-materializes";
}

// ---------------------------------------------------------------------------
// Snapshot v3 delta frames through the multi-stream layers
// ---------------------------------------------------------------------------

TEST(StreamGroupRemoteTest, RemoteStreamRunsOnDeltasAfterOneFullFrame) {
  AdaptiveHull producer(Opts());
  DiskGenerator gen(91);
  producer.InsertBatch(gen.Take(1000));

  StreamGroup sink(Opts());
  ASSERT_TRUE(sink.AddRemoteStream("remote").ok());

  // A delta cannot arrive before any full frame: there is nothing to patch.
  producer.InsertBatch(gen.Take(10));
  (void)producer.EncodeView();  // Establishes the producer-side baseline.
  std::string delta;
  producer.InsertBatch(gen.Take(10));
  ASSERT_TRUE(producer.EncodeSummaryDelta(1010, &delta).ok());
  EXPECT_EQ(sink.UpdateRemoteStream("remote", delta).code(),
            StatusCode::kFailedPrecondition);

  // Full frame, then steady-state deltas; every update invalidates the
  // generation-tagged view cache exactly once.
  ASSERT_TRUE(sink.UpdateRemoteStream("remote", producer.EncodeView()).ok());
  ASSERT_TRUE(sink.AddStream("local").ok());
  ASSERT_TRUE(sink.Insert("local", {10.0, 10.0}).ok());
  ASSERT_TRUE(sink.WatchPair("remote", "local").ok());
  (void)sink.Poll();
  const uint64_t mat0 = sink.view_materializations();

  for (int round = 0; round < 5; ++round) {
    producer.InsertBatch(gen.Take(200));
    std::string frame;
    ASSERT_TRUE(
        producer.EncodeSummaryDelta(producer.num_points() - 200, &frame)
            .ok());
    EXPECT_EQ(SnapshotVersion(frame), 3u);
    ASSERT_TRUE(sink.UpdateRemoteStream("remote", frame).ok());
    (void)sink.Poll();
  }
  EXPECT_EQ(sink.view_materializations(), mat0 + 5)
      << "each applied delta invalidates the cached view exactly once";

  // The patched remote view answers queries exactly like the producer.
  SummaryView remote_view;
  ASSERT_TRUE(sink.View("remote", &remote_view).ok());
  const SummaryView truth(producer.Polygon(), producer.OuterPolygon());
  EXPECT_EQ(CertifiedDiameter(remote_view).value.lo,
            CertifiedDiameter(truth).value.lo);
  EXPECT_EQ(CertifiedDiameter(remote_view).value.hi,
            CertifiedDiameter(truth).value.hi);
}

// View serves the same per-generation cache as Poll and Report: repeated
// ad-hoc queries of an unchanged stream derive its sandwich once, and every
// applied frame makes the next View rebuild it.
TEST(StreamGroupRemoteTest, ViewServesThePerGenerationCache) {
  AdaptiveHull producer(Opts());
  DiskGenerator gen(93);
  producer.InsertBatch(gen.Take(500));

  StreamGroup sink(Opts());
  ASSERT_TRUE(sink.AddRemoteStream("remote").ok());
  ASSERT_TRUE(sink.UpdateRemoteStream("remote", producer.EncodeView()).ok());

  const uint64_t before = sink.view_materializations();
  SummaryView first, second;
  ASSERT_TRUE(sink.View("remote", &first).ok());
  ASSERT_TRUE(sink.View("remote", &second).ok());
  EXPECT_EQ(sink.view_materializations() - before, 1u)
      << "an unchanged stream's sandwich is built once";
  EXPECT_EQ(CertifiedDiameter(first).value.hi,
            CertifiedDiameter(second).value.hi);

  producer.InsertBatch(gen.Take(200));
  std::string delta;
  ASSERT_TRUE(producer.EncodeSummaryDelta(500, &delta).ok());
  ASSERT_TRUE(sink.UpdateRemoteStream("remote", delta).ok());
  SummaryView third;
  ASSERT_TRUE(sink.View("remote", &third).ok());
  EXPECT_EQ(sink.view_materializations() - before, 2u)
      << "an applied frame invalidates the cached sandwich";
  const SummaryView truth(producer.Polygon(), producer.OuterPolygon());
  EXPECT_EQ(CertifiedDiameter(third).value.lo,
            CertifiedDiameter(truth).value.lo);
  EXPECT_EQ(CertifiedDiameter(third).value.hi,
            CertifiedDiameter(truth).value.hi);
}

TEST(StreamGroupRemoteTest, GenerationGapSurfacesAndFullFrameRecovers) {
  AdaptiveHull producer(Opts());
  DiskGenerator gen(92);
  producer.InsertBatch(gen.Take(500));

  StreamGroup sink(Opts());
  ASSERT_TRUE(sink.AddRemoteStream("remote").ok());
  ASSERT_TRUE(sink.UpdateRemoteStream("remote", producer.EncodeView()).ok());

  // This delta is lost in transit; the producer's baseline moves on.
  producer.InsertBatch(gen.Take(100));
  std::string lost;
  ASSERT_TRUE(producer.EncodeSummaryDelta(500, &lost).ok());

  producer.InsertBatch(gen.Take(100));
  std::string next;
  ASSERT_TRUE(producer.EncodeSummaryDelta(600, &next).ok());
  EXPECT_EQ(sink.UpdateRemoteStream("remote", next).code(),
            StatusCode::kFailedPrecondition);

  // The held view survived the failed patch and still serves queries.
  SummaryView view;
  ASSERT_TRUE(sink.View("remote", &view).ok());
  EXPECT_FALSE(view.empty());

  // Resync, after which deltas chain again.
  ASSERT_TRUE(sink.UpdateRemoteStream("remote", producer.EncodeView()).ok());
  producer.InsertBatch(gen.Take(100));
  std::string resumed;
  ASSERT_TRUE(producer.EncodeSummaryDelta(700, &resumed).ok());
  EXPECT_TRUE(sink.UpdateRemoteStream("remote", resumed).ok());
}

TEST(RegionHullTest, DeltaMergeMatchesFullViewMerge) {
  const std::vector<ConvexPolygon> partition = {
      ConvexPolygon({{-20, -20}, {0, -20}, {0, 20}, {-20, 20}}),
      ConvexPolygon({{1, -20}, {20, -20}, {20, 20}, {1, 20}})};
  Status st;
  auto node = RegionPartitionedHull::Create(partition, Opts(), &st);
  ASSERT_TRUE(st.ok());
  auto sink_delta = RegionPartitionedHull::Create(partition, Opts(), &st);
  ASSERT_TRUE(st.ok());
  auto sink_full = RegionPartitionedHull::Create(partition, Opts(), &st);
  ASSERT_TRUE(st.ok());

  DiskGenerator left(93, 2.0, {-10, 0}), right(94, 2.0, {10, 0});
  auto feed = [&](int n) {
    for (int i = 0; i < n; ++i) {
      node->Insert(left.Next());
      node->Insert(right.Next());
    }
  };

  // Round 0: both sinks start from full frames. The delta sink keeps the
  // peer's decoded views to patch; the full sink re-decodes every round.
  feed(500);
  std::vector<DecodedSummaryView> held(node->OutlierIndex() + 1);
  for (size_t i = 0; i < node->num_regions(); ++i) {
    const std::string wire = node->EncodeRegionResync(i);
    ASSERT_FALSE(wire.empty());
    ASSERT_TRUE(DecodeSummaryView(wire, &held[i]).ok());
    ASSERT_TRUE(sink_delta->MergeDecodedView(i, held[i]).ok());
    ASSERT_TRUE(sink_full->MergeDecodedView(i, held[i]).ok());
  }

  for (int round = 1; round <= 5; ++round) {
    feed(200);
    for (size_t i = 0; i < node->num_regions(); ++i) {
      std::string delta;
      ASSERT_TRUE(
          node->EncodeRegionDelta(i, held[i].num_points, &delta).ok())
          << "region " << i << " round " << round;
      ASSERT_TRUE(sink_delta->MergeDecodedDelta(i, delta, &held[i]).ok());
      // The patched view must match a fresh full encode of the region.
      EXPECT_EQ(EncodeSummaryView(held[i]),
                EncodeSummaryView(node->RegionHull(i)));
      ASSERT_TRUE(sink_full->MergeDecodedView(i, held[i]).ok());
    }
  }

  // Both sinks ingested exactly the same point *set* (every sample that
  // ever appeared in a frame — the full sink via whole views, the delta
  // sink via increments), just with different multiplicities and order.
  // Adaptive merging is order-sensitive within its error bound, so the
  // summaries need not be bit-equal; the sandwich guarantee is that each
  // sink's inner polygon lies inside the other's certified outer polygon
  // (both outer polygons contain the common true hull).
  for (size_t i = 0; i < node->num_regions(); ++i) {
    const ConvexPolygon outer_full = sink_full->RegionHull(i).OuterPolygon();
    const ConvexPolygon outer_delta =
        sink_delta->RegionHull(i).OuterPolygon();
    const ConvexPolygon inner_full = sink_full->RegionHull(i).Polygon();
    const ConvexPolygon inner_delta = sink_delta->RegionHull(i).Polygon();
    for (const Point2& v : inner_delta.vertices()) {
      EXPECT_LE(outer_full.DistanceOutside(v), 1e-9) << "region " << i;
    }
    for (const Point2& v : inner_full.vertices()) {
      EXPECT_LE(outer_delta.DistanceOutside(v), 1e-9) << "region " << i;
    }
    EXPECT_TRUE(sink_delta->RegionHull(i).CheckConsistency().ok());
  }

  // Error paths: out-of-range index, empty region, generation gap.
  std::string out;
  EXPECT_EQ(node->EncodeRegionDelta(99, 0, &out).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(node->EncodeRegionDelta(node->OutlierIndex(), 0, &out).code(),
            StatusCode::kFailedPrecondition);  // Catch-all never fed.
  EXPECT_TRUE(node->EncodeRegionResync(node->OutlierIndex()).empty());
  feed(10);
  EXPECT_EQ(node->EncodeRegionDelta(0, 1, &out).code(),
            StatusCode::kFailedPrecondition);  // Stale base generation.
}

}  // namespace
}  // namespace streamhull
