// Tests for the streaming adaptive hull (§5): structural consistency after
// every insert, the 2r+1 sample bound, the O(D/r^2) error bound, the L(theta)
// containment invariant (Lemma 5.3), fixed-size mode, and freezing.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adaptive_hull.h"
#include "core/partially_adaptive.h"
#include "geom/convex_hull.h"
#include "queries/queries.h"
#include "stream/generators.h"

namespace streamhull {
namespace {

constexpr double kPi = 3.14159265358979323846;

AdaptiveHullOptions Opts(uint32_t r) {
  AdaptiveHullOptions o;
  o.r = r;
  return o;
}

TEST(AdaptiveHullOptionsTest, Validation) {
  AdaptiveHullOptions o;
  o.r = 4;
  EXPECT_FALSE(o.Validate().ok());
  o.r = 16;
  EXPECT_TRUE(o.Validate().ok());
  EXPECT_EQ(o.EffectiveTreeHeight(), 4);
  o.max_tree_height = 2;
  EXPECT_EQ(o.EffectiveTreeHeight(), 2);
  o.mode = SamplingMode::kFixedSize;
  EXPECT_EQ(o.EffectiveFixedDirections(), 32u);
  o.fixed_directions = 8;  // Below r.
  EXPECT_FALSE(o.Validate().ok());
  o.fixed_directions = 64;
  o.max_tree_height = 1;  // Capacity 16 * 2 = 32 < 64.
  EXPECT_FALSE(o.Validate().ok());
  o.max_tree_height = 4;
  EXPECT_TRUE(o.Validate().ok());
}

TEST(AdaptiveHullTest, EmptyAndSinglePoint) {
  AdaptiveHull h(Opts(16));
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.CheckConsistency().ok());
  h.Insert({2, 3});
  EXPECT_EQ(h.num_points(), 1u);
  EXPECT_EQ(h.num_directions(), 16u);
  EXPECT_EQ(h.num_sample_points(), 1u);
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  EXPECT_EQ(h.Polygon().size(), 1u);
  EXPECT_TRUE(h.Triangles().empty());  // All edges degenerate.
}

// Per-insert consistency across workloads. Small streams with the full
// structural audit after every single insert — this is the main correctness
// hammer for the engine.
class AdaptiveConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveConsistencyTest, EveryInsertKeepsAllInvariants) {
  const int seed = GetParam();
  std::unique_ptr<PointGenerator> gens[] = {
      std::make_unique<DiskGenerator>(seed),
      std::make_unique<SquareGenerator>(seed, 0.19),
      std::make_unique<EllipseGenerator>(seed, 16.0, kPi / 32 / 4),
      std::make_unique<SpiralGenerator>(seed, 4e-3),
      std::make_unique<ClusterGenerator>(seed, 3),
      std::make_unique<DriftWalkGenerator>(seed, 0.05)};
  for (auto& gen : gens) {
    AdaptiveHull h(Opts(16));
    for (int i = 0; i < 300; ++i) {
      h.Insert(gen->Next());
      const Status st = h.CheckConsistency();
      ASSERT_TRUE(st.ok()) << gen->Name() << " seed " << seed << " point " << i
                           << ": " << st.ToString();
      ASSERT_LE(h.num_directions(), 2u * 16 + 1) << gen->Name() << " " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveConsistencyTest,
                         ::testing::Range(0, 12));

TEST(AdaptiveHullTest, SampleBudgetTheorem54) {
  // At most 2r+1 sample points at ALL times, across r values.
  for (uint32_t r : {8u, 16u, 32u, 64u}) {
    EllipseGenerator gen(r, 16.0, 0.11);
    AdaptiveHull h(Opts(r));
    for (int i = 0; i < 3000; ++i) {
      h.Insert(gen.Next());
      ASSERT_LE(h.num_directions(), 2 * static_cast<size_t>(r) + 1)
          << "r=" << r << " i=" << i;
      ASSERT_LE(h.num_sample_points(), h.num_directions());
    }
  }
}

TEST(AdaptiveHullTest, ErrorBoundCorollary52) {
  // True hull within 16*pi*P/r^2 of the adaptive hull, measured against the
  // exact hull of everything seen, at several checkpoints.
  for (uint32_t r : {16u, 32u}) {
    std::unique_ptr<PointGenerator> gens[] = {
        std::make_unique<DiskGenerator>(3),
        std::make_unique<EllipseGenerator>(4, 16.0, 0.07),
        std::make_unique<SquareGenerator>(5, 0.3)};
    for (auto& gen : gens) {
      AdaptiveHull h(Opts(r));
      std::vector<Point2> all;
      for (int i = 0; i < 4000; ++i) {
        const Point2 p = gen->Next();
        h.Insert(p);
        all.push_back(p);
        if (i % 500 == 499) {
          const ConvexPolygon approx = h.Polygon();
          double err = 0;
          for (const Point2& v : ConvexHullOf(all)) {
            err = std::max(err, approx.DistanceOutside(v));
          }
          ASSERT_LE(err, h.ErrorBound() + 1e-9)
              << gen->Name() << " r=" << r << " i=" << i;
        }
      }
    }
  }
}

TEST(AdaptiveHullTest, InvariantLemma53) {
  // The paper's containment invariant: every stream point lies inside the
  // half-plane of L(theta) for every active sample direction theta, where
  // L(theta) is the supporting line pushed out by OffsetForLevel(level).
  EllipseGenerator gen(11, 16.0, 0.21);
  AdaptiveHull h(Opts(16));
  std::vector<Point2> all;
  for (int i = 0; i < 1500; ++i) {
    const Point2 p = gen.Next();
    h.Insert(p);
    all.push_back(p);
    if (i % 250 != 249) continue;
    for (const HullSample& s : h.Samples()) {
      const Point2 u = s.direction.ToVector();
      const double bound =
          Dot(s.point, u) + h.OffsetForLevel(s.direction.level());
      for (const Point2& q : all) {
        ASSERT_LE(Dot(q, u), bound + 1e-9)
            << "i=" << i << " dir " << s.direction;
      }
    }
  }
}

TEST(AdaptiveHullTest, PerDirectionSlacksCertifyTheStream) {
  // The tightened per-direction slacks (captured at activation time, not
  // recomputed from the final P) must still satisfy the Lemma 5.3
  // containment: every stream point within SampleSlacks()[i] of sample i's
  // supporting line. The drift walk grows P long after early activations,
  // which is exactly the case the capture tightens.
  DriftWalkGenerator gen(12);
  AdaptiveHull h(Opts(16));
  std::vector<Point2> all;
  for (int i = 0; i < 3000; ++i) {
    const Point2 p = gen.Next();
    h.Insert(p);
    all.push_back(p);
    if (i % 500 != 499) continue;
    const auto samples = h.Samples();
    const auto slacks = h.SampleSlacks();
    ASSERT_EQ(slacks.size(), samples.size());
    for (size_t k = 0; k < samples.size(); ++k) {
      // Never looser than the per-level formula; zero for uniform.
      ASSERT_LE(slacks[k],
                h.OffsetForLevel(samples[k].direction.level()) + 1e-12);
      if (samples[k].direction.IsUniform()) {
        ASSERT_EQ(slacks[k], 0.0);
      }
      const Point2 u = samples[k].direction.ToVector();
      const double bound = Dot(samples[k].point, u) + slacks[k];
      for (const Point2& q : all) {
        ASSERT_LE(Dot(q, u), bound + 1e-9)
            << "i=" << i << " dir " << samples[k].direction;
      }
    }
  }
}

TEST(AdaptiveHullTest, SlackCaptureTightensLongDriftingSummaries) {
  // After a long drift (P grows ~monotonically), directions activated early
  // keep their small activation-time offsets, so the summed slack — and
  // with it OuterPolygon's inflation — is strictly below what the final-P
  // per-level formula would charge.
  DriftWalkGenerator gen(13);
  AdaptiveHull h(Opts(16));
  for (int i = 0; i < 20000; ++i) h.Insert(gen.Next());
  const auto samples = h.Samples();
  const auto slacks = h.SampleSlacks();
  double tightened = 0, per_level = 0;
  for (size_t k = 0; k < samples.size(); ++k) {
    tightened += slacks[k];
    per_level += h.OffsetForLevel(samples[k].direction.level());
  }
  ASSERT_GT(per_level, 0.0);
  EXPECT_LE(tightened, per_level);
  EXPECT_LT(tightened, 0.9 * per_level)
      << "activation-time capture should visibly tighten a drift walk";
  // And the tightened outer polygon is correspondingly no larger.
  const double outer_area = h.OuterPolygon().Area();
  std::vector<double> naive(samples.size());
  for (size_t k = 0; k < samples.size(); ++k) {
    naive[k] = h.OffsetForLevel(samples[k].direction.level());
  }
  const double naive_area = SupportIntersection(samples, naive).Area();
  EXPECT_LE(outer_area, naive_area + 1e-9);
}

TEST(AdaptiveHullTest, ApproxHullVerticesAreStreamPoints) {
  SquareGenerator gen(21, 0.4);
  AdaptiveHull h(Opts(16));
  std::vector<Point2> all;
  for (int i = 0; i < 2000; ++i) {
    const Point2 p = gen.Next();
    h.Insert(p);
    all.push_back(p);
  }
  const ConvexPolygon truth(ConvexHullOf(all));
  const ConvexPolygon approx = h.Polygon();
  for (size_t i = 0; i < approx.size(); ++i) {
    EXPECT_TRUE(truth.ContainsBrute(approx[i])) << approx[i];
  }
}

TEST(AdaptiveHullTest, AdaptiveDirectionsAppearOnSkinnyData) {
  // A skinny ellipse must trigger refinement (long flat edges).
  EllipseGenerator gen(31, 16.0, 0.05);
  AdaptiveHull h(Opts(16));
  for (int i = 0; i < 2000; ++i) h.Insert(gen.Next());
  EXPECT_GT(h.num_directions(), 16u);
  EXPECT_GT(h.stats().directions_refined, 0u);
}

TEST(AdaptiveHullTest, UnrefinementHappensWhenHullGrows) {
  // Start with a tiny skinny shape (heavy refinement), then blow the hull up
  // with a huge disk: P grows, old refinements must be reclaimed.
  AdaptiveHull h(Opts(16));
  EllipseGenerator skinny(41, 16.0, 0.0, /*semi_major=*/1.0);
  for (int i = 0; i < 1000; ++i) h.Insert(skinny.Next());
  DiskGenerator big(42, /*radius=*/500.0);
  for (int i = 0; i < 1000; ++i) h.Insert(big.Next());
  EXPECT_GT(h.stats().directions_unrefined, 0u);
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
}

TEST(AdaptiveHullTest, TreeHeightZeroIsUniformSampling) {
  AdaptiveHullOptions o = Opts(32);
  o.max_tree_height = 0;
  AdaptiveHull h(o);
  DiskGenerator gen(51);
  for (int i = 0; i < 1000; ++i) h.Insert(gen.Next());
  EXPECT_EQ(h.num_directions(), 32u);
  EXPECT_EQ(h.stats().directions_refined, 0u);
}

TEST(AdaptiveHullTest, DepthNeverExceedsCap) {
  AdaptiveHullOptions o = Opts(16);
  o.max_tree_height = 2;
  AdaptiveHull h(o);
  EllipseGenerator gen(61, 16.0, 0.13);
  for (int i = 0; i < 2000; ++i) h.Insert(gen.Next());
  // Consistency includes the depth <= cap check.
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  for (const HullSample& s : h.Samples()) {
    EXPECT_LE(s.direction.level(), 2u);
  }
}

TEST(AdaptiveHullTest, HeapQueueMatchesInvariants) {
  // Binary-heap threshold queue (exact thresholds) keeps every invariant.
  AdaptiveHullOptions o = Opts(16);
  o.queue_kind = ThresholdQueueKind::kBinaryHeap;
  AdaptiveHull h(o);
  EllipseGenerator gen(71, 16.0, 0.29);
  for (int i = 0; i < 1500; ++i) {
    h.Insert(gen.Next());
    if (i % 50 == 49) {
      ASSERT_TRUE(h.CheckConsistency().ok())
          << i << ": " << h.CheckConsistency().ToString();
    }
  }
}

TEST(AdaptiveHullFixedSizeTest, HoldsExactlyTwoRDirections) {
  AdaptiveHullOptions o = Opts(16);
  o.mode = SamplingMode::kFixedSize;
  AdaptiveHull h(o);
  EllipseGenerator gen(81, 16.0, 0.17);
  for (int i = 0; i < 2000; ++i) {
    h.Insert(gen.Next());
    ASSERT_LE(h.num_directions(), 32u) << i;
    const Status st = h.CheckConsistency();
    ASSERT_TRUE(st.ok()) << i << ": " << st.ToString();
  }
  // Once the hull is 2-dimensional the padding loop reaches the target.
  EXPECT_EQ(h.num_directions(), 32u);
}

TEST(AdaptiveHullFixedSizeTest, ReadaptsToDistributionChange) {
  // The fixed-size variant must migrate directions when the shape rotates:
  // refinement concentrates near the skinny ellipse's ends.
  AdaptiveHullOptions o = Opts(16);
  o.mode = SamplingMode::kFixedSize;
  AdaptiveHull h(o);
  ChangingEllipseGenerator gen(91, 3000, 0.1);
  for (int i = 0; i < 6000; ++i) h.Insert(gen.Next());
  EXPECT_GT(h.stats().rebalance_exchanges + h.stats().directions_unrefined,
            0u);
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
}

TEST(PartiallyAdaptiveTest, FreezesAfterTraining) {
  AdaptiveHullOptions o = Opts(16);
  o.mode = SamplingMode::kFixedSize;
  PartiallyAdaptiveHull h(o, 500);
  DiskGenerator gen(99);
  for (int i = 0; i < 400; ++i) h.Insert(gen.Next());
  EXPECT_TRUE(h.training());
  for (int i = 0; i < 200; ++i) h.Insert(gen.Next());
  EXPECT_FALSE(h.training());
  const auto before = h.Samples();
  // Frozen: new extreme points may move samples outward but never add or
  // remove directions.
  EllipseGenerator gen2(100, 16.0, 0.3, /*semi_major=*/50.0);
  for (int i = 0; i < 500; ++i) h.Insert(gen2.Next());
  const auto after = h.Samples();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].direction, after[i].direction);
  }
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
}

TEST(PartiallyAdaptiveTest, FrozenExtremaStillTrackSupport) {
  // Even frozen, each stored sample must remain the best point seen for its
  // direction.
  AdaptiveHullOptions o = Opts(16);
  o.mode = SamplingMode::kFixedSize;
  PartiallyAdaptiveHull h(o, 100);
  Rng rng(123);
  std::vector<Point2> all;
  for (int i = 0; i < 1200; ++i) {
    const Point2 p{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    h.Insert(p);
    all.push_back(p);
  }
  for (const HullSample& s : h.Samples()) {
    const Point2 u = s.direction.ToVector();
    double best = -1e300;
    for (const Point2& p : all) best = std::max(best, Dot(p, u));
    EXPECT_NEAR(Dot(s.point, u), best, 1e-12);
  }
}

TEST(AdaptiveHullTest, TrianglesCoverTrueHull) {
  // The true hull is sandwiched between the approximate hull and the ring of
  // uncertainty triangles: every true-hull vertex outside the approximate
  // hull lies in (or within epsilon of) some uncertainty triangle.
  EllipseGenerator gen(111, 16.0, 0.07);
  AdaptiveHull h(Opts(16));
  std::vector<Point2> all;
  for (int i = 0; i < 3000; ++i) {
    const Point2 p = gen.Next();
    h.Insert(p);
    all.push_back(p);
  }
  const ConvexPolygon approx = h.Polygon();
  const auto triangles = h.Triangles();
  for (const Point2& v : ConvexHullOf(all)) {
    if (approx.DistanceOutside(v) <= 1e-12) continue;
    double nearest = 1e300;
    for (const UncertaintyTriangle& t : triangles) {
      const ConvexPolygon tri(
          ConvexHullOf(std::vector<Point2>{t.a, t.apex, t.b}));
      nearest = std::min(nearest, tri.DistanceOutside(v));
    }
    EXPECT_LE(nearest, 1e-7) << v;
  }
}

TEST(AdaptiveHullTest, StatsAccounting) {
  AdaptiveHull h(Opts(16));
  DiskGenerator gen(131);
  for (int i = 0; i < 500; ++i) h.Insert(gen.Next());
  const auto& st = h.stats();
  EXPECT_EQ(st.points_processed, 500u);
  EXPECT_GT(st.points_discarded, 0u);
  EXPECT_LT(st.points_discarded, 500u);
  EXPECT_EQ(h.num_points(), 500u);
}

TEST(AdaptiveHullTest, MassiveCoordinatesAndTinyCoordinates) {
  for (double scale : {1e-6, 1.0, 1e6}) {
    AdaptiveHull h(Opts(16));
    EllipseGenerator gen(141, 16.0, 0.09, /*semi_major=*/scale);
    for (int i = 0; i < 500; ++i) {
      h.Insert(gen.Next());
    }
    const Status st = h.CheckConsistency();
    ASSERT_TRUE(st.ok()) << "scale " << scale << ": " << st.ToString();
  }
}

TEST(AdaptiveHullTest, AdversarialAxisAlignedPoints) {
  // Points on a horizontal line, then on a vertical line: exercises
  // collinear/tie handling end to end.
  AdaptiveHull h(Opts(16));
  for (int i = 0; i <= 50; ++i) h.Insert({static_cast<double>(i), 0.0});
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  for (int i = 0; i <= 50; ++i) h.Insert({25.0, static_cast<double>(i - 25)});
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  const ConvexPolygon poly = h.Polygon();
  EXPECT_TRUE(poly.Contains({0, 0}));
  EXPECT_TRUE(poly.Contains({50, 0}));
}

// Ring-then-mostly-interior stream: the prefilter workload shape, with
// enough accepts sprinkled in to exercise the cooldown machinery.
std::vector<Point2> MixedPrefilterStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const bool interior = i >= 64 && rng.NextDouble() < 0.9;
    const double a = rng.Uniform(0, 2 * kPi);
    const double rad =
        interior ? 0.4 * rng.NextDouble() : 0.98 + 0.02 * rng.NextDouble();
    pts.push_back({rad * std::cos(a), rad * std::sin(a)});
  }
  return pts;
}

TEST(AdaptiveHullTest, PrefilterTierCountersSumToTotal) {
  AdaptiveHullOptions o = Opts(32);
  AdaptiveHull h(o);
  h.InsertBatch(MixedPrefilterStream(20000, 171));
  const auto& st = h.stats();
  EXPECT_GT(st.batch_prefilter_rejections, 10000u);
  EXPECT_EQ(st.batch_prefilter_rejections,
            st.batch_simd_rejections + st.batch_scalar_rejections);
  EXPECT_GT(st.batch_cache_refreshes, 0u);
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
}

}  // namespace
}  // namespace streamhull
