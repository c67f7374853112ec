// Tests for the uniformly sampled hull: the flat O(log r) engine
// (UniformHull, core/uniform_hull.h) checked differentially against the
// O(r)-per-point NaiveUniformHull, plus the §3 error bound O(D/r).

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adaptive_hull.h"
#include "core/naive_uniform_hull.h"
#include "geom/convex_hull.h"
#include "queries/queries.h"
#include "stream/generators.h"

namespace streamhull {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Feeds the same stream to both implementations and compares the stored
// extrema by support value in every direction.
void CheckAgainstNaive(PointGenerator& gen, uint32_t r, int n,
                       bool check_consistency) {
  UniformHull fast(r);
  NaiveUniformHull naive(r);
  for (int i = 0; i < n; ++i) {
    const Point2 p = gen.Next();
    fast.Insert(p);
    naive.Insert(p);
    if (check_consistency) {
      ASSERT_TRUE(fast.CheckConsistency().ok())
          << fast.CheckConsistency().ToString() << " at point " << i;
    }
  }
  const auto samples = fast.Samples();
  ASSERT_EQ(samples.size(), r);
  for (const HullSample& s : samples) {
    ASSERT_TRUE(s.direction.IsUniform());
    const uint32_t j = static_cast<uint32_t>(s.direction.num());
    const Point2 u = s.direction.ToVector();
    // Support values must match exactly: both structures keep the argmax
    // with first-arrival tie-breaking over the same stream.
    EXPECT_EQ(Dot(s.point, u), Dot(naive.Extremum(j), u))
        << "direction " << j << " of " << r;
  }
}

TEST(UniformHullTest, SinglePointStream) {
  UniformHull h(16);
  h.Insert({3, 4});
  EXPECT_EQ(h.num_points(), 1u);
  const ConvexPolygon poly = h.Polygon();
  ASSERT_EQ(poly.size(), 1u);
  EXPECT_EQ(poly[0], Point2(3, 4));
  EXPECT_TRUE(h.CheckConsistency().ok());
}

TEST(UniformHullTest, DuplicatePointsAreDiscarded) {
  UniformHull h(16);
  h.Insert({1, 1});
  for (int i = 0; i < 10; ++i) h.Insert({1, 1});
  EXPECT_EQ(h.stats().points_discarded, 10u);
  EXPECT_EQ(h.Polygon().size(), 1u);
}

TEST(UniformHullTest, InteriorPointsAreDiscarded) {
  UniformHull h(16);
  // A large square, then interior points.
  h.Insert({-10, -10});
  h.Insert({10, -10});
  h.Insert({10, 10});
  h.Insert({-10, 10});
  const auto before = h.stats().points_discarded;
  for (int i = 0; i < 50; ++i) {
    h.Insert({static_cast<double>(i % 7) - 3, static_cast<double>(i % 5) - 2});
  }
  EXPECT_EQ(h.stats().points_discarded, before + 50);
}

TEST(UniformHullTest, CollinearStream) {
  UniformHull h(16);
  for (int i = 0; i <= 20; ++i) {
    h.Insert({static_cast<double>(i), 2.0 * static_cast<double>(i)});
  }
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  // The hull degenerates to the segment's endpoints.
  const ConvexPolygon poly = h.Polygon();
  EXPECT_LE(poly.size(), 4u);
  EXPECT_TRUE(poly.Contains({0, 0}));
  EXPECT_TRUE(poly.Contains({20, 40}));
}

TEST(UniformHullTest, MatchesNaiveOnDisk) {
  DiskGenerator gen(101);
  CheckAgainstNaive(gen, 32, 800, /*check_consistency=*/true);
}

TEST(UniformHullTest, MatchesNaiveOnSkinnyEllipse) {
  EllipseGenerator gen(202, 16.0, 0.37);
  CheckAgainstNaive(gen, 32, 800, /*check_consistency=*/true);
}

TEST(UniformHullTest, MatchesNaiveOnSpiral) {
  // Every point is extreme: maximal churn in the vertex list.
  SpiralGenerator gen(303, 5e-3);
  CheckAgainstNaive(gen, 24, 600, /*check_consistency=*/true);
}

TEST(UniformHullTest, MatchesNaiveOnClusters) {
  ClusterGenerator gen(404, 5);
  CheckAgainstNaive(gen, 48, 800, /*check_consistency=*/true);
}

class UniformHullSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UniformHullSweepTest, MatchesNaiveAcrossSeedsAndSizes) {
  const int seed = std::get<0>(GetParam());
  const int r = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(seed) * 40503 + 7);
  UniformHull fast(static_cast<uint32_t>(r));
  NaiveUniformHull naive(static_cast<uint32_t>(r));
  for (int i = 0; i < 400; ++i) {
    const Point2 p{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    fast.Insert(p);
    naive.Insert(p);
  }
  ASSERT_TRUE(fast.CheckConsistency().ok())
      << fast.CheckConsistency().ToString();
  for (const HullSample& s : fast.Samples()) {
    const Point2 u = s.direction.ToVector();
    const uint32_t j = static_cast<uint32_t>(s.direction.num());
    EXPECT_EQ(Dot(s.point, u), Dot(naive.Extremum(j), u));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndR, UniformHullSweepTest,
    ::testing::Combine(::testing::Range(0, 25),
                       ::testing::Values(8, 16, 32, 64, 128)));

TEST(UniformHullTest, ErrorBoundOofDOverR) {
  // §3 / Lemma 3.2: uncertainty triangles have height <= ~pi*D/r; the true
  // hull lies within that distance of the sampled hull.
  for (uint32_t r : {16u, 32u, 64u, 128u}) {
    UniformHull h(r);
    DiskGenerator gen(r);
    std::vector<Point2> all;
    for (int i = 0; i < 20000; ++i) {
      const Point2 p = gen.Next();
      h.Insert(p);
      all.push_back(p);
    }
    const ConvexPolygon approx = h.Polygon();
    const std::vector<Point2> true_hull = ConvexHullOf(all);
    const double diameter = Diameter(ConvexPolygon(true_hull)).value;
    double err = 0;
    for (const Point2& v : true_hull) {
      err = std::max(err, approx.DistanceOutside(v));
    }
    EXPECT_LE(err, kPi * diameter / static_cast<double>(r) + 1e-9)
        << "r=" << r;
  }
}

TEST(UniformHullTest, ApproxHullInsideTrueHull) {
  // The sampled hull's vertices are actual stream points.
  SquareGenerator gen(7, 0.3);
  UniformHull h(32);
  std::vector<Point2> all;
  for (int i = 0; i < 5000; ++i) {
    const Point2 p = gen.Next();
    h.Insert(p);
    all.push_back(p);
  }
  const ConvexPolygon truth(ConvexHullOf(all));
  const ConvexPolygon approx = h.Polygon();
  for (size_t i = 0; i < approx.size(); ++i) {
    EXPECT_TRUE(truth.ContainsBrute(approx[i]));
  }
}

TEST(UniformHullTest, DiameterApproximationLemma31) {
  // Lemma 3.1: the diameter of the uniform extrema is within a
  // (1 + O(1/r^2)) factor of the true diameter.
  for (uint32_t r : {16u, 32u, 64u}) {
    DiskGenerator gen(55);
    UniformHull h(r);
    std::vector<Point2> all;
    for (int i = 0; i < 20000; ++i) {
      const Point2 p = gen.Next();
      h.Insert(p);
      all.push_back(p);
    }
    const double true_d = Diameter(ConvexPolygon(ConvexHullOf(all))).value;
    const double approx_d = Diameter(h.Polygon()).value;
    EXPECT_LE(approx_d, true_d + 1e-12);
    const double theta0 = 2.0 * kPi / static_cast<double>(r);
    EXPECT_GE(approx_d, true_d * std::cos(theta0 / 2) - 1e-12) << "r=" << r;
  }
}

TEST(UniformHullTest, EffectivePerimeterIsMonotone) {
  // Reproduction finding: the paper asserts (§5.2, Step 2/4) that inserting
  // a point can only grow the uniformly sampled hull's perimeter. This is
  // FALSE in general — replacing a chain of extrema with a single new vertex
  // can shorten the extrema polygon (observed on ~4% of disk-stream inserts;
  // see EXPERIMENTS.md). The implementation therefore uses a running maximum
  // P_used for all weights and invariant offsets; this test pins down both
  // behaviors: genuine decreases occur, and the effective P stays monotone.
  uint64_t total_decreases = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    std::unique_ptr<PointGenerator> gens[] = {
        std::make_unique<DiskGenerator>(seed),
        std::make_unique<EllipseGenerator>(seed, 16.0, 0.1),
        std::make_unique<SpiralGenerator>(seed, 1e-3),
        std::make_unique<ClusterGenerator>(seed, 4)};
    for (auto& gen : gens) {
      UniformHull h(32);
      double prev = 0;
      for (int i = 0; i < 3000; ++i) {
        h.Insert(gen->Next());
        ASSERT_GE(h.perimeter(), prev) << gen->Name() << " point " << i;
        prev = h.perimeter();
      }
      total_decreases += h.stats().perimeter_decreases;
    }
  }
  EXPECT_GT(total_decreases, 0u);  // The phenomenon is real and observable.
}

TEST(UniformHullTest, AmortizedDeletionsBounded) {
  // Each stored vertex can be deleted at most once per domination event;
  // across n inserts total deletions are O(n).
  DiskGenerator gen(9);
  UniformHull h(64);
  const int n = 5000;
  for (int i = 0; i < n; ++i) h.Insert(gen.Next());
  EXPECT_LE(h.stats().vertices_deleted, static_cast<uint64_t>(n));
}

}  // namespace
}  // namespace streamhull
