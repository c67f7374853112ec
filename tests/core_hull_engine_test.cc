// Tests for the HullEngine boundary: factory construction of every kind,
// kind-name round-trips, the cross-engine error-bound contract, and the
// batch-vs-incremental differential suite — InsertBatch over a partition of
// the stream must leave every engine in exactly the state point-at-a-time
// insertion produces, and CheckConsistency must hold after every batch.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hull_engine.h"
#include "core/snapshot.h"
#include "geom/convex_hull.h"
#include "stream/generators.h"

namespace streamhull {
namespace {

EngineOptions Opts(uint32_t r = 16) {
  EngineOptions o;
  o.hull.r = r;
  return o;
}

struct NamedStream {
  std::string name;
  std::vector<Point2> points;
};

std::vector<NamedStream> TestStreams(size_t n) {
  std::vector<NamedStream> streams;
  streams.push_back({"disk", DiskGenerator(11).Take(n)});
  streams.push_back({"ellipse", EllipseGenerator(12, 16.0, 0.23).Take(n)});
  // Repeats the same 64 points over and over: exercises exact-duplicate
  // handling in the prefilter.
  streams.push_back({"circle", CircleGenerator(13, 64).Take(n)});
  streams.push_back({"drift", DriftWalkGenerator(14).Take(n)});
  // Every point a hull vertex: the prefilter never fires.
  streams.push_back({"spiral", SpiralGenerator(15, 1e-3).Take(n)});
  return streams;
}

// Engine configurations under differential test: every kind, plus the
// fixed-size adaptive variant (a different maintenance code path).
struct EngineConfig {
  std::string name;
  EngineKind kind;
  EngineOptions options;
};

std::vector<EngineConfig> TestConfigs() {
  std::vector<EngineConfig> configs;
  for (EngineKind kind : AllEngineKinds()) {
    EngineOptions o = Opts();
    o.training_points = 500;
    configs.push_back({EngineKindName(kind), kind, o});
  }
  EngineOptions fixed = Opts();
  fixed.hull.mode = SamplingMode::kFixedSize;
  configs.push_back({"adaptive-fixed-size", EngineKind::kAdaptive, fixed});
  return configs;
}

void ExpectSameSummary(const HullEngine& a, const HullEngine& b,
                       const std::string& context) {
  ASSERT_EQ(a.num_points(), b.num_points()) << context;
  const ConvexPolygon pa = a.Polygon();
  const ConvexPolygon pb = b.Polygon();
  ASSERT_EQ(pa.size(), pb.size()) << context;
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_TRUE(pa[i] == pb[i]) << context << " vertex " << i;
  }
  const auto sa = a.Samples();
  const auto sb = b.Samples();
  ASSERT_EQ(sa.size(), sb.size()) << context;
  for (size_t i = 0; i < sa.size(); ++i) {
    ASSERT_TRUE(sa[i].direction == sb[i].direction) << context << " dir " << i;
    ASSERT_TRUE(sa[i].point == sb[i].point) << context << " sample " << i;
  }
}

TEST(HullEngineFactoryTest, AllKindsConstructible) {
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind, Opts());
    ASSERT_NE(engine, nullptr) << EngineKindName(kind);
    EXPECT_EQ(engine->kind(), kind);
    EXPECT_TRUE(engine->empty());
    EXPECT_EQ(engine->r(), 16u);
    engine->Insert({1, 2});
    EXPECT_EQ(engine->num_points(), 1u);
    EXPECT_TRUE(engine->CheckConsistency().ok()) << EngineKindName(kind);
  }
}

TEST(HullEngineFactoryTest, KindNamesRoundTrip) {
  for (EngineKind kind : AllEngineKinds()) {
    EngineKind parsed;
    ASSERT_TRUE(ParseEngineKind(EngineKindName(kind), &parsed))
        << EngineKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  EngineKind parsed;
  EXPECT_FALSE(ParseEngineKind("no-such-engine", &parsed));
}

// ParseEngineKind is case-insensitive and treats '_' as '-': every kind
// name round-trips through upper-case, mixed-case, and snake_case forms.
TEST(HullEngineFactoryTest, KindNamesRoundTripRelaxedSpellings) {
  for (EngineKind kind : AllEngineKinds()) {
    const std::string canonical = EngineKindName(kind);
    std::string upper = canonical;
    std::string snake = canonical;
    std::string mixed = canonical;
    for (size_t i = 0; i < canonical.size(); ++i) {
      upper[i] = static_cast<char>(std::toupper(canonical[i]));
      if (snake[i] == '-') snake[i] = '_';
      if (i % 2 == 0) mixed[i] = static_cast<char>(std::toupper(mixed[i]));
    }
    std::string upper_snake = upper;
    for (char& c : upper_snake) {
      if (c == '-') c = '_';
    }
    for (const std::string& spelling : {upper, snake, mixed, upper_snake}) {
      EngineKind parsed;
      ASSERT_TRUE(ParseEngineKind(spelling, &parsed)) << spelling;
      EXPECT_EQ(parsed, kind) << spelling;
    }
  }
  // Relaxation does not make the parser sloppy about everything else.
  EngineKind parsed;
  EXPECT_FALSE(ParseEngineKind("", &parsed));
  EXPECT_FALSE(ParseEngineKind("uniform ", &parsed));
  EXPECT_FALSE(ParseEngineKind(" uniform", &parsed));
  EXPECT_FALSE(ParseEngineKind("uni-form", &parsed));
  EXPECT_FALSE(ParseEngineKind("staticadaptive", &parsed));
}

TEST(HullEngineFactoryTest, OptionsValidation) {
  EngineOptions bad = Opts(4);  // r below the minimum of 8.
  for (EngineKind kind : AllEngineKinds()) {
    EXPECT_FALSE(bad.Validate(kind).ok()) << EngineKindName(kind);
  }
  EXPECT_TRUE(Opts().Validate(EngineKind::kAdaptive).ok());
  EXPECT_EQ(EngineOptions{}.EffectiveTrainingPoints(), 1024u);
}

TEST(HullEngineTest, EmptyBatchIsANoOp) {
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind, Opts());
    engine->InsertBatch({});
    EXPECT_EQ(engine->num_points(), 0u) << EngineKindName(kind);
    engine->Insert({0, 0});
    engine->InsertBatch({});
    EXPECT_EQ(engine->num_points(), 1u) << EngineKindName(kind);
  }
}

// Every engine's ErrorBound must dominate the distance from any stream
// point to the reported polygon (stream points lie in the true hull, which
// lies within ErrorBound of the polygon).
TEST(HullEngineTest, ErrorBoundCoversStreamPoints) {
  const auto stream = EllipseGenerator(21, 16.0, 0.11).Take(4000);
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind, Opts());
    engine->InsertBatch(stream);
    const ConvexPolygon poly = engine->Polygon();
    const double bound = engine->ErrorBound();
    double worst = 0;
    for (const Point2& p : stream) {
      worst = std::max(worst, poly.DistanceOutside(p));
    }
    EXPECT_LE(worst, bound + 1e-9) << EngineKindName(kind);
  }
}

// The core differential guarantee: InsertBatch over a partition of the
// stream produces exactly the summary of point-at-a-time insertion, for
// every engine configuration and workload, checked after every batch.
TEST(HullEngineDifferentialTest, BatchMatchesIncremental) {
  const size_t kN = 2500;
  Rng chunk_rng(99);
  for (const EngineConfig& config : TestConfigs()) {
    for (const NamedStream& stream : TestStreams(kN)) {
      auto incremental = MakeEngine(config.kind, config.options);
      auto batched = MakeEngine(config.kind, config.options);
      size_t pos = 0;
      int batch_index = 0;
      while (pos < stream.points.size()) {
        const size_t len = std::min<size_t>(
            1 + chunk_rng.UniformInt(97), stream.points.size() - pos);
        const std::span<const Point2> chunk(&stream.points[pos], len);
        for (const Point2& p : chunk) incremental->Insert(p);
        batched->InsertBatch(chunk);
        pos += len;
        const std::string context = config.name + "/" + stream.name +
                                    " batch " + std::to_string(batch_index++);
        ASSERT_TRUE(batched->CheckConsistency().ok()) << context;
        ASSERT_NO_FATAL_FAILURE(
            ExpectSameSummary(*incremental, *batched, context));
      }
    }
  }
}

// OuterPolygon's contract: for every engine kind it contains the inner
// polygon and every stream point (the true hull of the stream), giving the
// [Polygon(), OuterPolygon()] sandwich the certified query layer brackets
// answers with.
TEST(HullEngineTest, OuterPolygonSandwichesTheStream) {
  const auto streams = TestStreams(3000);
  for (const NamedStream& stream : streams) {
    for (EngineKind kind : AllEngineKinds()) {
      auto engine = MakeEngine(kind, Opts());
      engine->InsertBatch(stream.points);
      const ConvexPolygon inner = engine->Polygon();
      const ConvexPolygon outer = engine->OuterPolygon();
      const std::string context =
          std::string(EngineKindName(kind)) + "/" + stream.name;
      double scale = 1.0;
      for (const Point2& p : stream.points) {
        scale = std::max(scale, std::abs(p.x) + std::abs(p.y));
      }
      const double eps = 1e-9 * scale;
      for (size_t i = 0; i < inner.size(); ++i) {
        ASSERT_LE(outer.DistanceOutside(inner[i]), eps) << context;
      }
      for (const Point2& p : stream.points) {
        ASSERT_LE(outer.DistanceOutside(p), eps) << context;
      }
      // For the exact-extrema engines the outer boundary is made of
      // uncertainty-triangle apexes, so the sandwich slack is bounded by
      // the advertised a-posteriori error: the outer hull is tight, not
      // just correct. (The adaptive family adds the Lemma 5.3 invariant
      // offsets on top, which its a-priori ErrorBound covers only jointly.)
      if (kind == EngineKind::kUniform || kind == EngineKind::kStaticAdaptive) {
        const double bound = engine->ErrorBound() + eps;
        for (size_t i = 0; i < outer.size(); ++i) {
          ASSERT_LE(inner.DistanceOutside(outer[i]), bound) << context;
        }
      }
    }
  }
}

// SampleSlacks is the wire-facing form of the outer-hull guarantee: for
// every engine kind, every stream point must respect every sample's relaxed
// supporting half-plane, and the slack vector must align with Samples().
TEST(HullEngineTest, SampleSlacksCertifyEveryStreamPoint) {
  const auto streams = TestStreams(2000);
  for (const NamedStream& stream : streams) {
    for (EngineKind kind : AllEngineKinds()) {
      auto engine = MakeEngine(kind, Opts());
      engine->InsertBatch(stream.points);
      const auto samples = engine->Samples();
      // Empty means all-zero (the documented default for exact-extrema
      // engines); otherwise the vector aligns with Samples().
      const auto slacks = engine->SampleSlacks();
      const std::string context =
          std::string(EngineKindName(kind)) + "/" + stream.name;
      ASSERT_TRUE(slacks.empty() || slacks.size() == samples.size())
          << context;
      double scale = 1.0;
      for (const Point2& p : stream.points) {
        scale = std::max(scale, std::abs(p.x) + std::abs(p.y));
      }
      for (size_t i = 0; i < samples.size(); ++i) {
        const double slack = slacks.empty() ? 0.0 : slacks[i];
        ASSERT_GE(slack, 0.0) << context;
        const Point2 u = samples[i].direction.ToVector();
        const double bound = Dot(samples[i].point, u) + slack;
        for (const Point2& p : stream.points) {
          ASSERT_LE(Dot(p, u), bound + 1e-9 * scale)
              << context << " sample " << i;
        }
      }
    }
  }
}

// The partially adaptive engine's post-freeze honesty: after the freeze its
// OuterPolygon still relaxes half-planes by the Lemma 5.3 offsets, so the
// reported ErrorBound must dominate every one of those offsets — triangle
// heights alone can under-report on a post-freeze distribution shift.
TEST(HullEngineTest, PartiallyAdaptiveErrorBoundCoversSlacks) {
  EngineOptions o = Opts();
  o.training_points = 500;
  auto engine = MakeEngine(EngineKind::kPartiallyAdaptive, o);
  // Train on a small disk, then shift to a drifting walk that inflates P
  // far beyond anything the frozen directions were tuned to.
  engine->InsertBatch(DiskGenerator(91, 0.5).Take(500));
  DriftWalkGenerator drift(92);
  for (int i = 0; i < 10000; ++i) engine->Insert(drift.Next() * 4.0);

  const double bound = engine->ErrorBound();
  double max_slack = 0;
  for (double s : engine->SampleSlacks()) max_slack = std::max(max_slack, s);
  EXPECT_GE(bound, max_slack) << "ErrorBound must cover what OuterPolygon "
                                 "relaxes by";
  EXPECT_GE(bound, MaxTriangleHeight(engine->Triangles()));
}

TEST(HullEngineTest, OuterPolygonOfEmptyEngineIsEmpty) {
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind, Opts());
    EXPECT_TRUE(engine->OuterPolygon().empty()) << EngineKindName(kind);
    engine->Insert({2, 3});
    EXPECT_FALSE(engine->OuterPolygon().empty()) << EngineKindName(kind);
  }
}

// The prefilter must actually fire on interior-heavy streams (otherwise the
// fast path silently degrades to the slow one).
TEST(HullEngineTest, PrefilterRejectsInteriorPoints) {
  auto engine = MakeEngine(EngineKind::kAdaptive, Opts());
  // Ring first so the interior is covered, then a disk of interior points.
  const auto ring = CircleGenerator(31, 256).Take(256);
  engine->InsertBatch(ring);
  DiskGenerator inner(32, 0.3);
  const auto interior = inner.Take(2000);
  engine->InsertBatch(interior);
  const AdaptiveHullStats& stats = engine->stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_GT(stats.batch_prefilter_rejections, 1500u);
  EXPECT_TRUE(engine->CheckConsistency().ok());
}

constexpr double kTwoPi = 6.283185307179586476925286766559;

// Support by vertex scan: a containment check must not lean on the
// polygon's own O(log n) extreme-vertex search. Requires a non-empty poly.
double SupportBrute(const ConvexPolygon& poly, Point2 u) {
  return Dot(poly[poly.ExtremeVertexBrute(u)], u);
}

Point2 ProbeDirection(int k, int count) {
  return UnitVector(kTwoPi * k / count + 0.0123);
}

// The point sets of the scale sweep, at unit scale and centred near the
// origin: every kind of degeneracy an outer polygon meets in practice.
std::vector<NamedStream> DegenerateShapes(size_t n) {
  std::vector<NamedStream> shapes;
  shapes.push_back({"square", SquareGenerator(41, 0.3).Take(n)});
  shapes.push_back({"circle", CircleGenerator(42, 64).Take(n)});
  std::vector<Point2> strip = DiskGenerator(43).Take(n);
  for (Point2& p : strip) p.y *= 1e-9;
  shapes.push_back({"strip", strip});
  std::vector<Point2> pair;
  for (size_t i = 0; i < n; ++i) {
    pair.push_back(i % 2 == 0 ? Point2{-0.6, -0.2} : Point2{0.7, 0.4});
  }
  shapes.push_back({"two-points", pair});
  shapes.push_back({"one-point", std::vector<Point2>(n, Point2{0.3, -0.7})});
  return shapes;
}

EngineOptions SweepOpts(EngineKind kind, uint32_t r) {
  EngineOptions o = Opts(r);
  o.training_points = 100;
  // A window shorter than the stream, so expiry and the bucket merge run.
  if (kind == EngineKind::kWindowed) o.window_points = 200;
  return o;
}

// The outer polygon's support never falls below a sample's own support, at
// any scale the wire admits: rounding may loosen the polygon, never cut into
// it. The sweep covers magnitudes where an absolute padding or tolerance
// would dominate (1e-150) or vanish (1e150) against the summary's extent.
TEST(SupportIntersectionTest, OuterCoversSamplesAtEveryScale) {
  const auto shapes = DegenerateShapes(300);
  for (EngineKind kind : AllEngineKinds()) {
    for (uint32_t r : {8u, 32u, 128u}) {
      for (const NamedStream& shape : shapes) {
        for (double scale : {1e-150, 1e-100, 1e-20, 1.0, 1e8, 1e150}) {
          auto engine = MakeEngine(kind, SweepOpts(kind, r));
          std::vector<Point2> pts = shape.points;
          for (Point2& p : pts) p = p * scale;
          engine->InsertBatch(pts);
          const ConvexPolygon outer = engine->OuterPolygon();
          const std::string context =
              std::string(EngineKindName(kind)) + " r=" + std::to_string(r) +
              " " + shape.name +
              " scale=1e" + std::to_string(std::lround(std::log10(scale)));
          ASSERT_FALSE(outer.empty()) << context;
          const auto samples = engine->Samples();
          for (int k = 0; k < 256; ++k) {
            const Point2 u = ProbeDirection(k, 256);
            double want = -INFINITY;
            for (const HullSample& s : samples) {
              want = std::max(want, Dot(s.point, u));
            }
            ASSERT_GE(SupportBrute(outer, u), want - 4e-12 * scale)
                << context << " probe " << k;
          }
        }
      }
    }
  }
}

// The reference construction: clip a box that strictly contains the region
// by every relaxed half-plane in turn. O(r^2), but each step is one
// ClipByHalfPlane, so it is easy to trust.
ConvexPolygon BoxClipReference(const std::vector<HullSample>& samples,
                               std::span<const double> slacks) {
  double reach = 0;
  for (const HullSample& s : samples) {
    reach = std::max({reach, std::abs(s.point.x), std::abs(s.point.y)});
  }
  for (double slack : slacks) reach = std::max(reach, slack);
  const double h = 16 * (reach + 1);
  std::vector<Point2> poly = {{-h, -h}, {h, -h}, {h, h}, {-h, h}};
  for (size_t i = 0; i < samples.size(); ++i) {
    const Point2 u = samples[i].direction.ToVector();
    const double slack = slacks.empty() ? 0.0 : slacks[i];
    ClipByHalfPlane(&poly, samples[i].point + u * slack, u);
  }
  return ConvexPolygon(ConvexHullOf(std::move(poly)));
}

// Tightness: the sorted pass drops exactly the redundant lines, so its
// polygon is the box-clip reference's up to rounding — not merely a
// superset of the samples.
TEST(SupportIntersectionTest, MatchesBoxClipReference) {
  const auto streams = TestStreams(2000);
  for (const EngineConfig& config : TestConfigs()) {
    for (uint32_t r : {8u, 32u, 128u}) {
      for (const NamedStream& stream : streams) {
        EngineOptions o = config.options;
        o.hull.r = r;
        auto engine = MakeEngine(config.kind, o);
        engine->InsertBatch(stream.points);
        const auto samples = engine->Samples();
        const auto slacks = engine->SampleSlacks();
        const ConvexPolygon got = SupportIntersection(samples, slacks);
        const ConvexPolygon want = BoxClipReference(samples, slacks);
        const std::string context =
            config.name + " r=" + std::to_string(r) + " " + stream.name;
        ASSERT_FALSE(got.empty()) << context;
        double scale = 1.0;
        for (const HullSample& s : samples) {
          scale = std::max(scale, std::abs(s.point.x) + std::abs(s.point.y));
        }
        for (int k = 0; k < 256; ++k) {
          const Point2 u = ProbeDirection(k, 256);
          ASSERT_NEAR(SupportBrute(got, u), SupportBrute(want, u),
                      1e-9 * scale)
              << context << " probe " << k;
        }
      }
    }
  }
}

// A decoded view as the wire delivers it: the fields are encoded and
// decoded again, so every case below is one DecodeSummaryView accepts.
DecodedSummaryView WireView(uint32_t r, std::vector<HullSample> samples,
                            std::vector<double> slacks) {
  DecodedSummaryView view;
  view.kind = EngineKind::kAdaptive;
  view.r = r;
  view.num_points = samples.size();
  view.generation = view.num_points;
  view.samples = std::move(samples);
  view.slacks = std::move(slacks);
  DecodedSummaryView decoded;
  EXPECT_TRUE(DecodeSummaryView(EncodeSummaryView(view), &decoded).ok());
  return decoded;
}

// Finite vertices in strictly convex CCW order.
void ExpectFiniteConvexCcw(const ConvexPolygon& poly,
                           const std::string& context) {
  for (const Point2& v : poly.vertices()) {
    EXPECT_TRUE(std::isfinite(v.x) && std::isfinite(v.y)) << context;
  }
  const size_t n = poly.size();
  if (n < 3) return;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GT(Orient(poly[i], poly.At(i + 1), poly.At(i + 2)), 0)
        << context << " vertex " << i;
  }
}

// Views no engine produces: a decoded view need not hold the r uniform
// directions, so the angular gaps between its samples can reach a full
// turn. The outer polygon must still be a finite convex CCW polygon that
// keeps the samples — and empty when the half-planes share no point.
TEST(SupportIntersectionTest, HostileDecodedViews) {
  const uint32_t r = 16;
  auto sample = [r](uint32_t j, Point2 p) {
    return HullSample{Direction::Uniform(j, r), p};
  };
  auto keeps_samples = [](const DecodedSummaryView& view,
                          const ConvexPolygon& outer,
                          const std::string& context) {
    for (const HullSample& s : view.samples) {
      for (int k = 0; k < 64; ++k) {
        const Point2 u = ProbeDirection(k, 64);
        EXPECT_GE(SupportBrute(outer, u), Dot(s.point, u) - 1e-12)
            << context << " probe " << k;
      }
    }
  };

  for (double slack : {0.0, 0.25}) {
    const std::string context = "single sample, slack " +
                                std::to_string(slack);
    const DecodedSummaryView view = WireView(r, {sample(3, {2, -1})}, {slack});
    const ConvexPolygon outer = view.Outer();
    ASSERT_FALSE(outer.empty()) << context;
    ExpectFiniteConvexCcw(outer, context);
    keeps_samples(view, outer, context);
    // The one real half-plane still bounds the polygon.
    const Point2 u = view.samples[0].direction.ToVector();
    EXPECT_LE(SupportBrute(outer, u), Dot(Point2{2, -1}, u) + slack + 1e-12)
        << context;
  }
  {
    const std::string context = "opposite pair";
    const DecodedSummaryView view =
        WireView(r, {sample(0, {1, 0.5}), sample(8, {-1, 0.5})}, {0, 0});
    const ConvexPolygon outer = view.Outer();
    ASSERT_FALSE(outer.empty()) << context;
    ExpectFiniteConvexCcw(outer, context);
    keeps_samples(view, outer, context);
    EXPECT_LE(SupportBrute(outer, {1, 0}), 1 + 1e-12) << context;
    EXPECT_LE(SupportBrute(outer, {-1, 0}), 1 + 1e-12) << context;
  }
  {
    // Five unit-circle samples spanning a quarter turn; the rest of the
    // circle is one gap of three quarters.
    const std::string context = "wide gap";
    std::vector<HullSample> samples;
    for (uint32_t j = 0; j <= 4; ++j) {
      samples.push_back(sample(j, Direction::Uniform(j, r).ToVector()));
    }
    const DecodedSummaryView view =
        WireView(r, samples, std::vector<double>(samples.size(), 0.0));
    const ConvexPolygon outer = view.Outer();
    ASSERT_FALSE(outer.empty()) << context;
    ExpectFiniteConvexCcw(outer, context);
    keeps_samples(view, outer, context);
    for (const HullSample& s : view.samples) {
      const Point2 u = s.direction.ToVector();
      EXPECT_LE(SupportBrute(outer, u), Dot(s.point, u) + 1e-12) << context;
    }
  }
  {
    // x <= -1 and x >= 1: no common point.
    const std::string context = "infeasible pair";
    const DecodedSummaryView view =
        WireView(r, {sample(0, {-1, 0}), sample(8, {1, 0})}, {0, 0});
    EXPECT_TRUE(view.Outer().empty()) << context;
    // Slack that closes the gap leaves the slab -0.5 <= x <= 0.5.
    const DecodedSummaryView closed =
        WireView(r, {sample(0, {-1, 0}), sample(8, {1, 0})}, {1.5, 1.5});
    const ConvexPolygon outer = closed.Outer();
    ASSERT_FALSE(outer.empty()) << context;
    ExpectFiniteConvexCcw(outer, context);
    EXPECT_TRUE(outer.Contains({0, 0})) << context;
    EXPECT_NEAR(SupportBrute(outer, {1, 0}), 0.5, 1e-12) << context;
    EXPECT_NEAR(SupportBrute(outer, {-1, 0}), 0.5, 1e-12) << context;
  }
  {
    // Finite on the wire, but their sums and differences overflow.
    const std::string context = "coordinates near the double range limit";
    std::vector<HullSample> samples;
    for (uint32_t j = 0; j < r; ++j) {
      samples.push_back(sample(j, Direction::Uniform(j, r).ToVector() * 1.5e308));
    }
    const DecodedSummaryView view =
        WireView(r, samples, std::vector<double>(r, 0.0));
    ExpectFiniteConvexCcw(view.Outer(), context);
  }
}

// The construction is one pass over the samples: a decoded view at the
// wire's sample budget, 65,536 samples (a 2.36 MB frame), builds its outer
// polygon in well under the bound. A quadratic clip loop takes seconds.
TEST(SupportIntersectionTest, LargeDecodedViewBuildsInLinearTime) {
  const uint32_t r = 65536;
  std::vector<HullSample> samples;
  samples.reserve(r);
  for (uint32_t j = 0; j < r; ++j) {
    const Direction d = Direction::Uniform(j, r);
    samples.push_back(HullSample{d, d.ToVector()});
  }
  const DecodedSummaryView view =
      WireView(r, std::move(samples), std::vector<double>(r, 0.0));
  ASSERT_EQ(view.samples.size(), r);
  const auto start = std::chrono::steady_clock::now();
  const ConvexPolygon outer = view.Outer();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 5.0);
  ASSERT_FALSE(outer.empty());
  for (int k = 0; k < 64; ++k) {
    const Point2 u = ProbeDirection(k, 64);
    EXPECT_GE(SupportBrute(outer, u), 1 - 1e-12);
    EXPECT_LE(SupportBrute(outer, u), 1 + 1e-8);
  }
}

}  // namespace
}  // namespace streamhull
