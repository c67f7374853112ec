// Tests for the vectorized geometry kernels (geom/kernels.h) and their SoA
// input layout (geom/soa.h): layout construction and padding, the
// conservative-certification contract of CertifyInteriorBatch (adversarial
// near-boundary, degenerate, huge/tiny-scale, and non-finite inputs),
// bitwise scalar-vs-dispatched agreement on every lane and tail size, the
// coarse sub-polygon soundness argument, and the runtime dispatch controls.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/kernels.h"
#include "geom/point.h"
#include "geom/soa.h"

namespace streamhull {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

struct ScopedForcedIsa {
  explicit ScopedForcedIsa(SimdIsa isa) { ForceSimdIsa(isa); }
  ~ScopedForcedIsa() { ClearForcedSimdIsa(); }
};

std::vector<Point2> RegularPolygon(size_t n, double radius = 1.0,
                                   Point2 center = {0, 0}) {
  std::vector<Point2> verts;
  verts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = kTwoPi * static_cast<double>(i) / static_cast<double>(n);
    verts.push_back(
        {center.x + radius * std::cos(a), center.y + radius * std::sin(a)});
  }
  return verts;
}

PolygonEdgeSoA BuildSoA(const std::vector<Point2>& verts, size_t stride = 1) {
  double scale = 0;
  for (const Point2& v : verts) {
    scale = std::max({scale, std::abs(v.x), std::abs(v.y)});
  }
  PolygonEdgeSoA soa;
  soa.Build(verts, stride, scale);
  return soa;
}

uint8_t CertifyOne(const PolygonEdgeSoA& poly, Point2 p) {
  uint8_t out = 0xAA;
  CertifyInteriorBatch(poly, &p, 1, &out);
  return out;
}

TEST(PolygonEdgeSoATest, BuildStoresPerEdgeConstants) {
  const auto verts = RegularPolygon(5);
  const PolygonEdgeSoA soa = BuildSoA(verts);
  ASSERT_EQ(soa.num_edges, 5u);
  EXPECT_TRUE(soa.CanCertify());
  EXPECT_EQ(soa.padded_edges() % kSoaLaneWidth, 0u);
  EXPECT_GE(soa.padded_edges(), soa.num_edges);
  for (size_t e = 0; e < soa.num_edges; ++e) {
    const Point2 a = verts[e];
    const Point2 b = verts[(e + 1) % verts.size()];
    EXPECT_EQ(soa.ax[e], a.x);
    EXPECT_EQ(soa.ay[e], a.y);
    EXPECT_EQ(soa.dx[e], b.x - a.x);
    EXPECT_EQ(soa.dy[e], b.y - a.y);
    EXPECT_EQ(soa.sabs[e], std::abs(b.x - a.x) + std::abs(b.y - a.y));
  }
  // Padding repeats edge 0 (a real test, harmless under conjunction).
  for (size_t e = soa.num_edges; e < soa.padded_edges(); ++e) {
    EXPECT_EQ(soa.ax[e], soa.ax[0]);
    EXPECT_EQ(soa.dx[e], soa.dx[0]);
    EXPECT_EQ(soa.sabs[e], soa.sabs[0]);
  }
}

TEST(PolygonEdgeSoATest, StrideBuildsCoarseSubPolygon) {
  const auto verts = RegularPolygon(48);
  const PolygonEdgeSoA coarse = BuildSoA(verts, /*stride=*/3);
  ASSERT_EQ(coarse.num_edges, 16u);
  for (size_t e = 0; e < coarse.num_edges; ++e) {
    EXPECT_EQ(coarse.ax[e], verts[3 * e].x);
    EXPECT_EQ(coarse.ay[e], verts[3 * e].y);
  }
}

TEST(PolygonEdgeSoATest, ClearAndRebuildReusesCapacity) {
  PolygonEdgeSoA soa = BuildSoA(RegularPolygon(16));
  soa.Reserve(16);
  const size_t cap = soa.ax.capacity();
  for (int round = 0; round < 8; ++round) {
    double scale = 1.0;
    soa.Build(RegularPolygon(16, 1.0 + round), 1, scale);
  }
  EXPECT_EQ(soa.ax.capacity(), cap);
  EXPECT_EQ(soa.num_edges, 16u);
}

TEST(PolygonEdgeSoATest, FewerThanThreeEdgesCannotCertify) {
  std::vector<Point2> two = {{0, 0}, {1, 0}};
  const PolygonEdgeSoA soa = BuildSoA(two);
  EXPECT_FALSE(soa.CanCertify());
  uint8_t out[3] = {7, 7, 7};
  Point2 pts[3] = {{0.5, 0.0}, {0, 0}, {100, 100}};
  CertifyInteriorBatch(soa, pts, 3, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 0);
}

TEST(CertifyInteriorBatchTest, InteriorCertifiedExteriorNot) {
  const PolygonEdgeSoA soa = BuildSoA(RegularPolygon(16));
  EXPECT_EQ(CertifyOne(soa, {0, 0}), 1);
  EXPECT_EQ(CertifyOne(soa, {0.5, 0.3}), 1);
  EXPECT_EQ(CertifyOne(soa, {2, 0}), 0);
  EXPECT_EQ(CertifyOne(soa, {0, -5}), 0);
  // A vertex and an edge midpoint are boundary, never certified.
  EXPECT_EQ(CertifyOne(soa, soa.padded_edges() > 0
                                ? Point2{soa.ax[0], soa.ay[0]}
                                : Point2{1, 0}),
            0);
}

// The certificate is a *margin* test: points within ~1e-12 of the boundary
// must not be certified, from either side.
TEST(CertifyInteriorBatchTest, NearBoundaryPointsAreNeverCertified) {
  const PolygonEdgeSoA soa = BuildSoA(RegularPolygon(16));
  // Probe along each edge's perpendicular-foot direction, where the
  // boundary sits at the inscribed-circle radius cos(pi/16): a +-1e-13
  // relative radial nudge lands inside the ~1e-12 relative margin band of
  // that edge, from either side, and must never certify.
  for (int k = 0; k < 16; ++k) {
    const double a = kTwoPi / 32.0 + k * kTwoPi / 16.0;
    const double rad = std::cos(kTwoPi / 32.0);
    for (double eps : {0.0, 1e-13, -1e-13, 5e-14}) {
      const Point2 p{rad * (1.0 + eps) * std::cos(a),
                     rad * (1.0 + eps) * std::sin(a)};
      EXPECT_EQ(CertifyOne(soa, p), 0)
          << "k=" << k << " eps=" << eps << " must fail the margin test";
    }
  }
  // A clearance of 1e-9 is far outside the margin band: the same
  // directions certify again, pinning the band's width from below.
  for (int k = 0; k < 16; ++k) {
    const double a = kTwoPi / 32.0 + k * kTwoPi / 16.0;
    const double rad = std::cos(kTwoPi / 32.0) * (1.0 - 1e-9);
    EXPECT_EQ(CertifyOne(soa, {rad * std::cos(a), rad * std::sin(a)}), 1)
        << "k=" << k;
  }
}

TEST(CertifyInteriorBatchTest, NonFiniteInputsAreNeverCertified) {
  const PolygonEdgeSoA soa = BuildSoA(RegularPolygon(8));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Point2 bad[] = {{nan, 0}, {0, nan},   {nan, nan},
                        {inf, 0}, {0, -inf},  {inf, -inf}};
  for (const Point2& p : bad) {
    EXPECT_EQ(CertifyOne(soa, p), 0) << "(" << p.x << ", " << p.y << ")";
  }
}

// Huge coordinates overflow the determinant terms to inf/NaN; the kernel
// must degrade to "not certified", never to a bogus 1.
TEST(CertifyInteriorBatchTest, OverflowingScalesAreConservative) {
  const PolygonEdgeSoA huge = BuildSoA(RegularPolygon(8, 1e300));
  EXPECT_EQ(CertifyOne(huge, {0, 0}), 0);       // Margin overflows to inf.
  EXPECT_EQ(CertifyOne(huge, {1e299, 0}), 0);
  EXPECT_EQ(CertifyOne(huge, {2e300, 2e300}), 0);
}

// Tiny (but not underflowing) scales keep full precision: a comfortably
// interior point of a 1e-150-radius polygon still certifies, and
// near-boundary still does not.
TEST(CertifyInteriorBatchTest, TinyScalesStillCertify) {
  const PolygonEdgeSoA tiny = BuildSoA(RegularPolygon(8, 1e-150));
  EXPECT_EQ(CertifyOne(tiny, {0, 0}), 1);
  EXPECT_EQ(CertifyOne(tiny, {1e-151, 1e-151}), 1);
  EXPECT_EQ(CertifyOne(tiny, {1e-150, 0}), 0);
  EXPECT_EQ(CertifyOne(tiny, {5, 5}), 0);
}

// Scales whose determinant terms underflow to zero certify nothing: the
// strict > against the (also underflowed) margin cannot fire. Conservative,
// never wrong.
TEST(CertifyInteriorBatchTest, UnderflowingScalesAreConservative) {
  const PolygonEdgeSoA sub = BuildSoA(RegularPolygon(8, 1e-300));
  EXPECT_EQ(CertifyOne(sub, {0, 0}), 0);
  EXPECT_EQ(CertifyOne(sub, {1e-301, 0}), 0);
}

// Moderately large but non-overflowing coordinates certify normally.
TEST(CertifyInteriorBatchTest, LargeScalesCertifyInteriors) {
  const PolygonEdgeSoA big = BuildSoA(RegularPolygon(8, 1e150));
  EXPECT_EQ(CertifyOne(big, {0, 0}), 1);
  EXPECT_EQ(CertifyOne(big, {1e149, -1e149}), 1);
  EXPECT_EQ(CertifyOne(big, {1e151, 0}), 0);
}

// A point the *coarse* polygon certifies must be strictly interior to the
// *full* polygon — the containment argument the ingestion prefilter rests
// on (a vertex subset of a convex polygon spans a contained polygon).
TEST(CertifyInteriorBatchTest, CoarseCertificationImpliesFullInteriority) {
  const auto verts = RegularPolygon(48);
  const PolygonEdgeSoA coarse = BuildSoA(verts, /*stride=*/3);
  Rng rng(4242);
  size_t certified = 0;
  for (int i = 0; i < 4000; ++i) {
    const double a = rng.Uniform(0, kTwoPi);
    const double rad = 1.05 * rng.NextDouble();
    const Point2 p{rad * std::cos(a), rad * std::sin(a)};
    if (CertifyOne(coarse, p) == 0) continue;
    ++certified;
    for (size_t e = 0; e < verts.size(); ++e) {
      const Point2 va = verts[e];
      const Point2 vb = verts[(e + 1) % verts.size()];
      ASSERT_GT(Orient(va, vb, p), 0)
          << "coarse-certified point outside full edge " << e;
    }
  }
  EXPECT_GT(certified, 1000u) << "workload should exercise the certifier";
}

// Bitwise agreement between the dispatched ISA and the forced-scalar path
// on every lane count and tail size (1..67 covers all block remainders).
TEST(CertifyInteriorBatchTest, DispatchedMatchesScalarBitwise) {
  if (ActiveSimdIsa() == SimdIsa::kScalar) {
    GTEST_SKIP() << "scalar dispatch build/CPU: nothing to cross-check";
  }
  const PolygonEdgeSoA soa = BuildSoA(RegularPolygon(13));  // Odd count.
  Rng rng(20260808);
  for (size_t n = 1; n <= 67; ++n) {
    std::vector<Point2> pts;
    pts.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double a = rng.Uniform(0, kTwoPi);
      // Mix deep-interior, near-boundary, and exterior points.
      const double rad = rng.NextDouble() * 1.2;
      pts.push_back({rad * std::cos(a), rad * std::sin(a)});
    }
    std::vector<uint8_t> got(n, 0xEE), want(n, 0xDD);
    CertifyInteriorBatch(soa, pts.data(), n, got.data());
    {
      ScopedForcedIsa forced(SimdIsa::kScalar);
      CertifyInteriorBatch(soa, pts.data(), n, want.data());
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdDispatchTest, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(SimdIsaAvailable(SimdIsa::kScalar));
  EXPECT_STREQ(SimdIsaName(SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(SimdIsaName(SimdIsa::kAvx2), "avx2");
  EXPECT_STREQ(SimdIsaName(SimdIsa::kNeon), "neon");
}

TEST(SimdDispatchTest, ActiveIsaIsAvailable) {
  EXPECT_TRUE(SimdIsaAvailable(ActiveSimdIsa()));
#if defined(STREAMHULL_DISABLE_SIMD)
  EXPECT_EQ(ActiveSimdIsa(), SimdIsa::kScalar)
      << "compile-time disable must pin scalar dispatch";
#endif
}

TEST(SimdDispatchTest, ForceRoundTrips) {
  const SimdIsa native = ActiveSimdIsa();
  {
    ScopedForcedIsa forced(SimdIsa::kScalar);
    EXPECT_EQ(ActiveSimdIsa(), SimdIsa::kScalar);
  }
  EXPECT_EQ(ActiveSimdIsa(), native);
  // Forcing the already-active ISA is a no-op round trip too.
  {
    ScopedForcedIsa forced(native);
    EXPECT_EQ(ActiveSimdIsa(), native);
  }
  EXPECT_EQ(ActiveSimdIsa(), native);
}

}  // namespace
}  // namespace streamhull
