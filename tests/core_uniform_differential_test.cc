// Differential suite for the flat uniform engine: UniformHull against an
// AdaptiveHull with tree height 0, which stores the same uniform summary
// with its refinement machinery idle. The oracle below reports that
// AdaptiveHull as a uniform engine (kind kUniform, the a-posteriori error
// bound), so every accessor, counter and wire frame must agree bit for
// bit: the flat engine runs the same winning-set procedure with the same
// predicates in the same order, and shares the uniform layer and the batch
// prefilter with AdaptiveHull.
//
// Streams cover the common shapes and the degenerate ones (evenly spaced
// circle points, a collinear run, exact duplicates, extreme scales), at
// r = 8 .. 1024, fed one point at a time, as one batch, and as random
// 1-64-point batches, with a full comparison after every batch.

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adaptive_hull.h"
#include "core/snapshot.h"
#include "core/uniform_hull.h"
#include "stream/generators.h"

namespace streamhull {
namespace {

// The oracle: AdaptiveHull with the refinement machinery off, reporting as
// a uniform engine (a-posteriori error bound, kind kUniform).
class TreeHeightZeroUniform final : public HullEngine {
 public:
  explicit TreeHeightZeroUniform(uint32_t r) : hull_(Options(r)) {}

  EngineKind kind() const override { return EngineKind::kUniform; }
  void Insert(Point2 p) override { hull_.Insert(p); }
  void InsertBatch(std::span<const Point2> points) override {
    hull_.InsertBatch(points);
  }
  uint64_t num_points() const override { return hull_.num_points(); }
  uint32_t r() const override { return hull_.r(); }
  ConvexPolygon Polygon() const override { return hull_.Polygon(); }
  std::vector<HullSample> Samples() const override { return hull_.Samples(); }
  std::vector<UncertaintyTriangle> Triangles() const override {
    return hull_.Triangles();
  }
  ConvexPolygon OuterPolygon() const override { return hull_.OuterPolygon(); }
  std::vector<double> SampleSlacks() const override {
    return hull_.SampleSlacks();
  }
  double EffectivePerimeter() const override {
    return hull_.EffectivePerimeter();
  }
  double ErrorBound() const override { return MaxTriangleHeight(Triangles()); }
  const AdaptiveHullStats& stats() const override { return hull_.stats(); }
  Status CheckConsistency() const override { return hull_.CheckConsistency(); }

 protected:
  bool ChangedDirectionsSinceBaseline(
      std::vector<Direction>* changed) const override {
    return hull_.ChangedDirectionsSinceBaseline(changed);
  }
  void OnWireBaselineCaptured() override { hull_.OnWireBaselineCaptured(); }

 private:
  static AdaptiveHullOptions Options(uint32_t r) {
    AdaptiveHullOptions o;
    o.r = r;
    o.max_tree_height = 0;
    return o;
  }
  AdaptiveHull hull_;
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(Point2 a, Point2 b) {
  return SameBits(a.x, b.x) && SameBits(a.y, b.y);
}

void ExpectSameSamples(const std::vector<HullSample>& got,
                       const std::vector<HullSample>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].direction, want[i].direction) << "sample " << i;
    ASSERT_TRUE(SameBits(got[i].point, want[i].point)) << "sample " << i;
  }
}

void ExpectSameDoubles(const std::vector<double>& got,
                       const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameBits(got[i], want[i])) << "index " << i;
  }
}

void ExpectSamePolygon(const ConvexPolygon& got, const ConvexPolygon& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameBits(got[i], want[i])) << "vertex " << i;
  }
}

void ExpectSameView(const DecodedSummaryView& got,
                    const DecodedSummaryView& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.r, want.r);
  EXPECT_EQ(got.num_points, want.num_points);
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_TRUE(SameBits(got.perimeter, want.perimeter));
  EXPECT_TRUE(SameBits(got.error_bound, want.error_bound));
  ExpectSameSamples(got.samples, want.samples);
  ExpectSameDoubles(got.slacks, want.slacks);
}

// Everything observable through the engine interface.
void ExpectSameSummary(const UniformHull& flat,
                       const TreeHeightZeroUniform& oracle) {
  ASSERT_EQ(flat.num_points(), oracle.num_points());
  ASSERT_EQ(flat.Generation(), oracle.Generation());
  ExpectSameSamples(flat.Samples(), oracle.Samples());
  ExpectSameDoubles(flat.SampleSlacks(), oracle.SampleSlacks());
  ExpectSamePolygon(flat.Polygon(), oracle.Polygon());
  ExpectSamePolygon(flat.OuterPolygon(), oracle.OuterPolygon());
  const auto got_t = flat.Triangles();
  const auto want_t = oracle.Triangles();
  ASSERT_EQ(got_t.size(), want_t.size());
  for (size_t i = 0; i < got_t.size(); ++i) {
    ASSERT_TRUE(SameBits(got_t[i].a, want_t[i].a)) << "triangle " << i;
    ASSERT_TRUE(SameBits(got_t[i].b, want_t[i].b)) << "triangle " << i;
    ASSERT_TRUE(SameBits(got_t[i].apex, want_t[i].apex)) << "triangle " << i;
    ASSERT_EQ(got_t[i].dir_a, want_t[i].dir_a) << "triangle " << i;
    ASSERT_EQ(got_t[i].dir_b, want_t[i].dir_b) << "triangle " << i;
    ASSERT_TRUE(SameBits(got_t[i].height, want_t[i].height))
        << "triangle " << i;
  }
  ASSERT_TRUE(SameBits(flat.ErrorBound(), oracle.ErrorBound()));
  ASSERT_TRUE(
      SameBits(flat.EffectivePerimeter(), oracle.EffectivePerimeter()));

  const AdaptiveHullStats& a = flat.stats();
  const AdaptiveHullStats& b = oracle.stats();
  EXPECT_EQ(a.points_processed, b.points_processed);
  EXPECT_EQ(a.points_discarded, b.points_discarded);
  EXPECT_EQ(a.vertices_deleted, b.vertices_deleted);
  EXPECT_EQ(a.perimeter_decreases, b.perimeter_decreases);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.batch_prefilter_rejections, b.batch_prefilter_rejections);
  EXPECT_EQ(a.batch_simd_rejections, b.batch_simd_rejections);
  EXPECT_EQ(a.batch_scalar_rejections, b.batch_scalar_rejections);
  EXPECT_EQ(a.batch_cache_refreshes, b.batch_cache_refreshes);
}

// A sink fed one engine's frames: its first frame is a full EncodeView(),
// every later one an EncodeSummaryDelta() chained on the held generation.
struct Sink {
  bool have_view = false;
  DecodedSummaryView view;

  // Encodes the engine's next frame, applies it, and returns its bytes.
  std::string Follow(HullEngine& engine) {
    std::string frame;
    if (!have_view) {
      frame = engine.EncodeView();
      const Status st = DecodeSummaryView(frame, &view);
      EXPECT_TRUE(st.ok()) << st.ToString();
      have_view = true;
    } else {
      Status st = engine.EncodeSummaryDelta(view.generation, &frame);
      EXPECT_TRUE(st.ok()) << st.ToString();
      st = ApplySummaryDelta(frame, &view);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    return frame;
  }
};

enum class Shape {
  kDisk,
  kSkinnyEllipse,
  kSpiral,
  kClusters,
  kDriftWalk,
  kCirclePoints,
  kCollinear,
  kDuplicates,
  kTinyDisk,
  kHugeDisk,
};

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kDisk: return "disk";
    case Shape::kSkinnyEllipse: return "skinny_ellipse";
    case Shape::kSpiral: return "spiral";
    case Shape::kClusters: return "clusters";
    case Shape::kDriftWalk: return "drift_walk";
    case Shape::kCirclePoints: return "circle_points";
    case Shape::kCollinear: return "collinear";
    case Shape::kDuplicates: return "duplicates";
    case Shape::kTinyDisk: return "disk_1e_150";
    case Shape::kHugeDisk: return "disk_1e150";
  }
  return "unknown";
}

constexpr size_t kPoints = 600;

std::vector<Point2> MakeStream(Shape shape, uint64_t seed) {
  auto scaled = [](std::vector<Point2> pts, double s) {
    for (Point2& p : pts) p = p * s;
    return pts;
  };
  switch (shape) {
    case Shape::kDisk:
      return DiskGenerator(seed).Take(kPoints);
    case Shape::kSkinnyEllipse:
      return EllipseGenerator(seed, 16.0, 0.37).Take(kPoints);
    case Shape::kSpiral:
      return SpiralGenerator(seed, 5e-3).Take(kPoints);
    case Shape::kClusters:
      return ClusterGenerator(seed, 5).Take(kPoints);
    case Shape::kDriftWalk:
      return DriftWalkGenerator(seed).Take(kPoints);
    case Shape::kCirclePoints:
      // 200 evenly spaced points in shuffled order, the whole set offered
      // three times: exact repeats of hull vertices and many ties.
      return CircleGenerator(seed, 200).Take(kPoints);
    case Shape::kCollinear: {
      // A general-slope line in random order, then its axis-aligned twin.
      Rng rng(seed);
      std::vector<Point2> pts;
      for (size_t i = 0; i < kPoints / 2; ++i) {
        const double t = rng.Uniform(-1, 1);
        pts.push_back({t, 2.0 * t + 0.5});
      }
      for (size_t i = 0; i < kPoints / 2; ++i) {
        pts.push_back({rng.Uniform(-3, 3), 7.0});
      }
      return pts;
    }
    case Shape::kDuplicates: {
      // Seven distinct points, each repeated many times.
      const std::vector<Point2> base = DiskGenerator(seed).Take(7);
      Rng rng(seed + 1);
      std::vector<Point2> pts;
      for (size_t i = 0; i < kPoints; ++i) {
        pts.push_back(base[rng.UniformInt(base.size())]);
      }
      return pts;
    }
    case Shape::kTinyDisk:
      return scaled(DiskGenerator(seed).Take(kPoints), 1e-150);
    case Shape::kHugeDisk:
      return scaled(DiskGenerator(seed).Take(kPoints), 1e150);
  }
  return {};
}

enum class Feed { kPointwise, kOneBatch, kRandomBatches };

const char* FeedName(Feed f) {
  switch (f) {
    case Feed::kPointwise: return "pointwise";
    case Feed::kOneBatch: return "one_batch";
    case Feed::kRandomBatches: return "random_batches";
  }
  return "unknown";
}

// Batch boundaries for one feeding mode.
std::vector<size_t> BatchSizes(Feed feed, uint64_t seed) {
  std::vector<size_t> sizes;
  Rng rng(seed * 7919 + 3);
  for (size_t done = 0; done < kPoints;) {
    size_t n = 1;
    if (feed == Feed::kOneBatch) n = kPoints;
    if (feed == Feed::kRandomBatches) n = 1 + rng.UniformInt(64);
    n = std::min(n, kPoints - done);
    sizes.push_back(n);
    done += n;
  }
  return sizes;
}

using Param = std::tuple<Shape, uint32_t, Feed>;

class UniformDifferentialTest : public ::testing::TestWithParam<Param> {};

TEST_P(UniformDifferentialTest, FlatEngineMatchesTreeHeightZeroAdaptive) {
  const auto [shape, r, feed] = GetParam();
  const uint64_t seed = 1000 + static_cast<uint64_t>(shape) * 31 + r;
  const std::vector<Point2> stream = MakeStream(shape, seed);
  ASSERT_EQ(stream.size(), kPoints);

  UniformHull flat(r);
  TreeHeightZeroUniform oracle(r);
  Sink flat_sink, oracle_sink;
  ExpectSameSummary(flat, oracle);

  const std::span<const Point2> all(stream);
  size_t begin = 0;
  for (const size_t n : BatchSizes(feed, seed)) {
    const std::span<const Point2> part = all.subspan(begin, n);
    if (feed == Feed::kPointwise) {
      flat.Insert(part[0]);
      oracle.Insert(part[0]);
    } else {
      flat.InsertBatch(part);
      oracle.InsertBatch(part);
    }
    begin += n;
    SCOPED_TRACE("after " + std::to_string(begin) + " points");
    ExpectSameSummary(flat, oracle);
    const Status st = flat.CheckConsistency();
    ASSERT_TRUE(st.ok()) << st.ToString();
    const std::string got = flat_sink.Follow(flat);
    const std::string want = oracle_sink.Follow(oracle);
    ASSERT_EQ(got, want) << "wire frames differ";
    ExpectSameView(flat_sink.view, oracle_sink.view);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
  const Status st = oracle.CheckConsistency();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    ShapesRsFeeds, UniformDifferentialTest,
    ::testing::Combine(
        ::testing::Values(Shape::kDisk, Shape::kSkinnyEllipse, Shape::kSpiral,
                          Shape::kClusters, Shape::kDriftWalk,
                          Shape::kCirclePoints, Shape::kCollinear,
                          Shape::kDuplicates, Shape::kTinyDisk,
                          Shape::kHugeDisk),
        ::testing::Values(8u, 16u, 64u, 256u, 1024u),
        ::testing::Values(Feed::kPointwise, Feed::kOneBatch,
                          Feed::kRandomBatches)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(ShapeName(std::get<0>(info.param))) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_" +
             FeedName(std::get<2>(info.param));
    });

// Batches straddling the first point, empty batches and a batch of one
// behave exactly as on the oracle (the batch counter included).
TEST(UniformDifferentialTest, EmptyAndTinyBatches) {
  UniformHull flat(16);
  TreeHeightZeroUniform oracle(16);
  const std::vector<Point2> pts = DiskGenerator(5).Take(40);
  const std::span<const Point2> all(pts);
  for (HullEngine* e : {static_cast<HullEngine*>(&flat),
                        static_cast<HullEngine*>(&oracle)}) {
    e->InsertBatch({});
    e->InsertBatch(all.first(1));
    e->InsertBatch({});
    e->InsertBatch(all.subspan(1, 1));
    e->InsertBatch(all.subspan(2));
  }
  ExpectSameSummary(flat, oracle);
  EXPECT_EQ(flat.stats().batches, 4u);
  EXPECT_TRUE(flat.CheckConsistency().ok());
}

}  // namespace
}  // namespace streamhull
