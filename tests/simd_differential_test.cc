// SIMD bit-identity differential suite: the two-tier ingestion prefilter
// and the SoA clip loop may dispatch to AVX2/NEON lane kernels, but the
// summary an engine reaches — and therefore every encoded wire byte — must
// be identical whichever ISA runs, and identical to point-at-a-time
// insertion. Sweeps every engine kind x workload generator x r over random
// batch partitions, plus adversarial streams (degenerate caches,
// near-boundary jitter, huge/tiny coordinate scales), comparing
// EncodeSummaryView byte strings and OuterPolygon vertices exactly.

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hull_engine.h"
#include "core/snapshot.h"
#include "geom/kernels.h"
#include "stream/generators.h"

namespace streamhull {
namespace {

struct ScopedForcedIsa {
  explicit ScopedForcedIsa(SimdIsa isa) { ForceSimdIsa(isa); }
  ~ScopedForcedIsa() { ClearForcedSimdIsa(); }
};

// The certified-query workload family: seven qualitatively different
// stream shapes (smooth, cornered, eccentric, duplicate-heavy, clustered,
// drifting, all-vertices).
std::unique_ptr<PointGenerator> MakeWorkload(int kind) {
  switch (kind) {
    case 0: return std::make_unique<DiskGenerator>(11);
    case 1: return std::make_unique<SquareGenerator>(12, 0.21);
    case 2: return std::make_unique<EllipseGenerator>(13, 16.0, 0.13);
    case 3: return std::make_unique<CircleGenerator>(14, 97);
    case 4: return std::make_unique<ClusterGenerator>(15, 5);
    case 5: return std::make_unique<DriftWalkGenerator>(16);
    default: return std::make_unique<SpiralGenerator>(17, 1e-3);
  }
}
constexpr int kNumWorkloads = 7;

EngineOptions Opts(uint32_t r) {
  EngineOptions o;
  o.hull.r = r;
  o.training_points = 400;
  return o;
}

// Engine configurations under differential test: every kind plus the
// fixed-size adaptive variant, at several r.
struct Config {
  std::string name;
  EngineKind kind;
  EngineOptions options;
};

std::vector<Config> Configs(uint32_t r) {
  std::vector<Config> configs;
  for (EngineKind kind : AllEngineKinds()) {
    configs.push_back(
        {std::string(EngineKindName(kind)) + "/r" + std::to_string(r), kind,
         Opts(r)});
  }
  EngineOptions fixed = Opts(r);
  fixed.hull.mode = SamplingMode::kFixedSize;
  configs.push_back(
      {"adaptive-fixed-size/r" + std::to_string(r), EngineKind::kAdaptive,
       fixed});
  return configs;
}

// Ingests the stream through InsertBatch over a seed-determined random
// partition and returns the encoded summary bytes.
std::string IngestBatched(const Config& config,
                          std::span<const Point2> points,
                          uint64_t split_seed) {
  auto engine = MakeEngine(config.kind, config.options);
  Rng rng(split_seed);
  size_t pos = 0;
  while (pos < points.size()) {
    const size_t len =
        std::min<size_t>(1 + rng.UniformInt(97), points.size() - pos);
    engine->InsertBatch(points.subspan(pos, len));
    pos += len;
  }
  EXPECT_TRUE(engine->CheckConsistency().ok()) << config.name;
  return EncodeSummaryView(*engine);
}

std::string IngestPointwise(const Config& config,
                            std::span<const Point2> points) {
  auto engine = MakeEngine(config.kind, config.options);
  for (const Point2& p : points) engine->Insert(p);
  return EncodeSummaryView(*engine);
}

void ExpectAllIngestionPathsByteIdentical(const Config& config,
                                          std::span<const Point2> points,
                                          const std::string& context) {
  const uint64_t split_seed = 1000003;
  std::string scalar_bytes;
  {
    ScopedForcedIsa forced(SimdIsa::kScalar);
    scalar_bytes = IngestBatched(config, points, split_seed);
  }
  const std::string native_bytes = IngestBatched(config, points, split_seed);
  const std::string pointwise_bytes = IngestPointwise(config, points);
  // Byte equality of the full wire encoding (samples, slacks, num_points,
  // perimeter): the strongest practical form of "same summary".
  EXPECT_EQ(scalar_bytes, native_bytes)
      << context << ": scalar vs " << SimdIsaName(ActiveSimdIsa());
  EXPECT_EQ(native_bytes, pointwise_bytes)
      << context << ": batched vs point-at-a-time";
}

TEST(SimdDifferentialTest, AllKindsWorkloadsAndRadiiByteIdentical) {
  const size_t kN = 1200;
  for (uint32_t r : {8u, 32u, 128u}) {
    for (const Config& config : Configs(r)) {
      for (int w = 0; w < kNumWorkloads; ++w) {
        auto gen = MakeWorkload(w);
        const auto points = gen->Take(kN);
        ExpectAllIngestionPathsByteIdentical(
            config, points, config.name + "/" + gen->Name());
      }
    }
  }
}

// Adversarial geometry: streams engineered to stress the conservative
// tiers — degenerate (m < 3) caches, exact duplicates, near-boundary
// jitter at the margin threshold, extreme coordinate scales.
std::vector<std::pair<std::string, std::vector<Point2>>> AdversarialStreams() {
  std::vector<std::pair<std::string, std::vector<Point2>>> streams;

  streams.push_back({"repeated-point",
                     std::vector<Point2>(600, Point2{0.25, -1.5})});

  {
    std::vector<Point2> pts;
    for (int i = 0; i < 600; ++i) {
      pts.push_back(i % 2 == 0 ? Point2{-3, 1} : Point2{4, 1});
    }
    streams.push_back({"two-point-alternating", std::move(pts)});
  }

  {
    // Axis-aligned collinear: endpoints first, then interior points of the
    // segment (the m == 2 certified-reject path), with duplicates mixed in.
    std::vector<Point2> pts{{0, 2}, {10, 2}};
    Rng rng(31337);
    for (int i = 0; i < 600; ++i) {
      pts.push_back({rng.Uniform(0.001, 9.999), 2});
    }
    pts.push_back({0, 2});
    pts.push_back({10, 2});
    streams.push_back({"axis-collinear-x", std::move(pts)});
  }

  {
    std::vector<Point2> pts{{-1, -5}, {-1, 5}};
    Rng rng(4444);
    for (int i = 0; i < 600; ++i) {
      pts.push_back({-1, rng.Uniform(-4.999, 4.999)});
    }
    streams.push_back({"axis-collinear-y", std::move(pts)});
  }

  {
    // A sloped collinear prefix (general-slope m == 2 caches certify only
    // duplicates) that later goes 2-D.
    std::vector<Point2> pts;
    Rng rng(999);
    for (int i = 0; i < 300; ++i) {
      const double t = rng.Uniform(-2, 2);
      pts.push_back({t, 2.0 * t});
    }
    DiskGenerator disk(1001);
    for (int i = 0; i < 600; ++i) pts.push_back(disk.Next());
    streams.push_back({"sloped-collinear-then-2d", std::move(pts)});
  }

  {
    // Near-boundary jitter: a ring, then points within +-1e-13 of it —
    // inside the prefilter margin, so every one must take the exact path.
    std::vector<Point2> pts;
    const double kTwoPi = 6.283185307179586476925286766559;
    for (int i = 0; i < 128; ++i) {
      const double a = kTwoPi * i / 128.0;
      pts.push_back({std::cos(a), std::sin(a)});
    }
    Rng rng(777);
    for (int i = 0; i < 600; ++i) {
      const double a = rng.Uniform(0, kTwoPi);
      const double rad = 1.0 + rng.Uniform(-1e-13, 1e-13);
      pts.push_back({rad * std::cos(a), rad * std::sin(a)});
    }
    streams.push_back({"near-boundary-jitter", std::move(pts)});
  }

  {
    DiskGenerator disk(555);
    std::vector<Point2> pts;
    for (int i = 0; i < 800; ++i) pts.push_back(disk.Next() * 1e150);
    streams.push_back({"huge-scale", std::move(pts)});
  }

  {
    DiskGenerator disk(556);
    std::vector<Point2> pts;
    for (int i = 0; i < 800; ++i) pts.push_back(disk.Next() * 1e-150);
    streams.push_back({"tiny-scale", std::move(pts)});
  }

  return streams;
}

TEST(SimdDifferentialTest, AdversarialStreamsByteIdentical) {
  for (const auto& [name, points] : AdversarialStreams()) {
    for (const Config& config : Configs(32)) {
      ExpectAllIngestionPathsByteIdentical(config, points,
                                           name + "/" + config.name);
    }
  }
}

// Query-side determinism: OuterPolygon is one scalar construction that
// calls no kernel; its vertices must be bitwise equal under scalar and
// native dispatch.
TEST(SimdDifferentialTest, OuterPolygonBitwiseEqualAcrossIsas) {
  for (const Config& config : Configs(32)) {
    auto engine = MakeEngine(config.kind, config.options);
    DriftWalkGenerator gen(2024);
    engine->InsertBatch(gen.Take(3000));
    const ConvexPolygon native = engine->OuterPolygon();
    ConvexPolygon scalar;
    {
      ScopedForcedIsa forced(SimdIsa::kScalar);
      scalar = engine->OuterPolygon();
    }
    ASSERT_EQ(native.size(), scalar.size()) << config.name;
    for (size_t i = 0; i < native.size(); ++i) {
      ASSERT_EQ(native[i].x, scalar[i].x) << config.name << " vertex " << i;
      ASSERT_EQ(native[i].y, scalar[i].y) << config.name << " vertex " << i;
    }
  }
}

// The degenerate-cache prefilter (m < 3) must actually fire: streams that
// never leave a point or a segment still reject their duplicates and
// interior points instead of running the full pipeline on every arrival.
TEST(SimdDifferentialTest, DegeneratePrefilterFires) {
  {
    auto engine = MakeEngine(EngineKind::kAdaptive, Opts(16));
    engine->InsertBatch(std::vector<Point2>(500, Point2{1, 2}));
    EXPECT_GT(engine->stats().batch_prefilter_rejections, 450u)
        << "m == 1 duplicate rejection";
    EXPECT_TRUE(engine->CheckConsistency().ok());
  }
  {
    std::vector<Point2> pts;
    for (int i = 0; i < 500; ++i) {
      pts.push_back(i % 2 == 0 ? Point2{0, 0} : Point2{6, 0});
    }
    auto engine = MakeEngine(EngineKind::kAdaptive, Opts(16));
    engine->InsertBatch(pts);
    EXPECT_GT(engine->stats().batch_prefilter_rejections, 400u)
        << "m == 2 duplicate rejection";
  }
  {
    std::vector<Point2> pts{{0, 1}, {8, 1}};
    Rng rng(12);
    for (int i = 0; i < 500; ++i) pts.push_back({rng.Uniform(0.1, 7.9), 1});
    auto engine = MakeEngine(EngineKind::kAdaptive, Opts(16));
    engine->InsertBatch(pts);
    EXPECT_GT(engine->stats().batch_prefilter_rejections, 400u)
        << "m == 2 axis-aligned strictly-between rejection";
    EXPECT_TRUE(engine->CheckConsistency().ok());
  }
}

// Tier counters: rejections split exactly between the SIMD and scalar
// tiers, and the SIMD tier only claims rejections when a lane ISA is
// actually dispatched.
TEST(SimdDifferentialTest, PrefilterTierCountersAreConsistent) {
  auto run = [](bool force_scalar) {
    std::unique_ptr<ScopedForcedIsa> forced;
    if (force_scalar) {
      forced = std::make_unique<ScopedForcedIsa>(SimdIsa::kScalar);
    }
    auto engine = MakeEngine(EngineKind::kAdaptive, Opts(64));
    CircleGenerator ring(31, 256);
    engine->InsertBatch(ring.Take(256));
    DiskGenerator inner(32, 0.3);
    engine->InsertBatch(inner.Take(4000));
    return engine->stats();
  };

  const AdaptiveHullStats native = run(false);
  EXPECT_EQ(native.batch_prefilter_rejections,
            native.batch_simd_rejections + native.batch_scalar_rejections);
  EXPECT_GT(native.batch_prefilter_rejections, 3000u);
  EXPECT_GT(native.batch_cache_refreshes, 0u);

  const AdaptiveHullStats scalar = run(true);
  EXPECT_EQ(scalar.batch_simd_rejections, 0u)
      << "scalar dispatch must not take the lane tier";
  EXPECT_EQ(scalar.batch_prefilter_rejections, scalar.batch_scalar_rejections);
  // The two certificates are different conservative subsets of strict
  // interiority, so the totals need not match exactly across ISAs — but
  // both must catch the deep-interior bulk, and both process every point.
  EXPECT_GT(scalar.batch_prefilter_rejections, 3000u);
  EXPECT_EQ(native.points_processed, scalar.points_processed);

  if (ActiveSimdIsa() != SimdIsa::kScalar) {
    EXPECT_GT(native.batch_simd_rejections, 2000u)
        << "a lane ISA is active; the SIMD tier should carry the bulk";
  }
}

}  // namespace
}  // namespace streamhull
