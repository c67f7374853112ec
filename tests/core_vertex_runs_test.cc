// Tests for the engine's searchable list: the flat CCW vertex-run arrays
// that FindVisibleChain, Polygon(), MergeFrom and the batch prefilter read,
// and that every accepted point splices. Each check goes through the public
// API against an independent reference: the run compression of the sample
// walk, the exact uniform-direction maxima of everything inserted, a twin
// engine fed one point at a time, and the certified slacks. Targeted cases
// drive the splice paths one at a time (a run wrapping past direction 0, a
// far point erasing many runs, refinement and unrefinement activating and
// deactivating directions inside runs, r = 1024); the randomized suite
// mixes them all under many seeds and engine configurations.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adaptive_hull.h"
#include "stream/generators.h"

namespace streamhull {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

AdaptiveHullOptions Opts(uint32_t r) {
  AdaptiveHullOptions o;
  o.r = r;
  return o;
}

// The polygon the sample walk implies: the sample points in CCW direction
// order, run-length compressed, starting at the first sample that begins a
// new run (the first change of owner at or after direction 0). That start
// is the run with the smallest first direction, so this is exactly the
// run array Polygon() returns.
std::vector<Point2> RunsFromSamples(const std::vector<HullSample>& samples) {
  const size_t s = samples.size();
  if (s == 0) return {};
  size_t start = 0;
  while (start < s &&
         samples[start].point == samples[(start + s - 1) % s].point) {
    ++start;
  }
  if (start == s) return {samples[0].point};  // One point owns everything.
  std::vector<Point2> runs;
  for (size_t i = 0; i < s; ++i) {
    const Point2 p = samples[(start + i) % s].point;
    if (runs.empty() || !(runs.back() == p)) runs.push_back(p);
  }
  return runs;
}

// The vertex runs agree with the sample walk: samples strictly CCW, one per
// active direction, and Polygon() is their run compression.
::testing::AssertionResult RunsMatchSamples(const AdaptiveHull& h) {
  const std::vector<HullSample> samples = h.Samples();
  if (samples.size() != h.num_directions()) {
    return ::testing::AssertionFailure()
           << samples.size() << " samples for " << h.num_directions()
           << " active directions";
  }
  for (size_t i = 1; i < samples.size(); ++i) {
    if (!(samples[i - 1].direction < samples[i].direction)) {
      return ::testing::AssertionFailure()
             << "samples out of CCW order at " << i;
    }
  }
  const std::vector<Point2> want = RunsFromSamples(samples);
  const std::vector<Point2> got = h.Polygon().vertices();
  if (got != want) {
    ::testing::AssertionResult fail = ::testing::AssertionFailure();
    fail << "Polygon() has " << got.size() << " vertices, the sample walk "
         << want.size();
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      if (!(got[i] == want[i])) {
        fail << "; first difference at " << i << ": " << got[i] << " vs "
             << want[i];
        break;
      }
    }
    return fail;
  }
  if (h.num_sample_points() > got.size()) {
    return ::testing::AssertionFailure()
           << h.num_sample_points() << " distinct sample points but only "
           << got.size() << " runs";
  }
  return ::testing::AssertionSuccess();
}

// Bit-identical sample lists: the same directions holding the same points.
::testing::AssertionResult SameSamples(const std::vector<HullSample>& a,
                                       const std::vector<HullSample>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " samples vs " << b.size();
  }
  for (size_t k = 0; k < a.size(); ++k) {
    if (!(a[k].direction == b[k].direction) || !(a[k].point == b[k].point)) {
      return ::testing::AssertionFailure()
             << "sample " << k << ": " << a[k].point << " at "
             << a[k].direction << " vs " << b[k].point << " at "
             << b[k].direction;
    }
  }
  return ::testing::AssertionSuccess();
}

// Every point inserted into an engine, with the exact maximum of each
// uniform direction over them (uniform directions are active from the first
// point, so their samples must be true maxima).
class StreamReference {
 public:
  explicit StreamReference(uint32_t r) {
    for (uint32_t j = 0; j < r; ++j) {
      dirs_.push_back(Direction::Uniform(j, r).ToVector());
    }
    best_.assign(r, -std::numeric_limits<double>::infinity());
  }

  void Add(Point2 p) {
    for (size_t j = 0; j < dirs_.size(); ++j) {
      best_[j] = std::max(best_[j], Dot(p, dirs_[j]));
    }
    max_abs_ = std::max({max_abs_, std::abs(p.x), std::abs(p.y)});
    seen_.emplace(p.x, p.y);
    all_.push_back(p);
  }

  // Rounding allowance for dot products of the points seen so far.
  double Tolerance() const { return 1e-9 * (1.0 + max_abs_); }

  // Every sample point was inserted, and each uniform direction's sample
  // attains that direction's maximum.
  ::testing::AssertionResult UniformSamplesAreMaxima(
      const std::vector<HullSample>& samples) const {
    size_t j = 0;
    for (const HullSample& s : samples) {
      if (seen_.count({s.point.x, s.point.y}) == 0) {
        return ::testing::AssertionFailure()
               << "sample " << s.point << " at " << s.direction
               << " was never inserted";
      }
      if (!s.direction.IsUniform()) continue;
      if (j >= dirs_.size()) {
        return ::testing::AssertionFailure() << "too many uniform samples";
      }
      const double mine = Dot(s.point, dirs_[j]);
      if (mine < best_[j] - Tolerance()) {
        return ::testing::AssertionFailure()
               << "uniform direction " << j << " holds " << s.point
               << " (dot " << mine << ") below the stream maximum "
               << best_[j];
      }
      ++j;
    }
    if (j != dirs_.size()) {
      return ::testing::AssertionFailure()
             << j << " uniform samples for r = " << dirs_.size();
    }
    return ::testing::AssertionSuccess();
  }

  // Lemma 5.3 containment: every inserted point lies within its slack of
  // each sample's supporting line.
  ::testing::AssertionResult SlacksCertify(
      const std::vector<HullSample>& samples,
      const std::vector<double>& slacks) const {
    if (slacks.size() != samples.size()) {
      return ::testing::AssertionFailure() << "slack count mismatch";
    }
    for (size_t k = 0; k < samples.size(); ++k) {
      const Point2 u = samples[k].direction.ToVector();
      const double bound = Dot(samples[k].point, u) + slacks[k];
      for (const Point2& q : all_) {
        if (Dot(q, u) > bound + Tolerance()) {
          return ::testing::AssertionFailure()
                 << q << " escapes direction " << samples[k].direction
                 << " by " << Dot(q, u) - bound;
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

 private:
  std::vector<Point2> dirs_;
  std::vector<double> best_;
  std::set<std::pair<double, double>> seen_;
  std::vector<Point2> all_;
  double max_abs_ = 0;
};

TEST(VertexRunsTest, SinglePointIsOneRunOwningEveryDirection) {
  for (const uint32_t r : {8u, 64u, 1024u}) {
    SCOPED_TRACE("r=" + std::to_string(r));
    AdaptiveHull h(Opts(r));
    const Point2 p{-3.5, 0.25};
    h.Insert(p);
    ASSERT_EQ(h.Polygon().vertices(), std::vector<Point2>{p});
    for (const HullSample& s : h.Samples()) ASSERT_EQ(s.point, p);
    ASSERT_TRUE(RunsMatchSamples(h));
    // The same point again beats no direction: nothing is spliced.
    for (int i = 0; i < 10; ++i) h.Insert(p);
    EXPECT_EQ(h.stats().points_discarded, 10u);
    EXPECT_EQ(h.stats().vertices_deleted, 0u);
    EXPECT_EQ(h.Polygon().vertices(), std::vector<Point2>{p});
    EXPECT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  }
}

TEST(VertexRunsTest, RunWrapsPastDirectionZero) {
  // a owns direction 0 and the last directions below it, so its run wraps
  // from the end of the array to its start. e then wins an arc on both
  // sides of direction 0: the erase covers the array's tail and its head.
  AdaptiveHull h(Opts(16));
  const Point2 a{1, 0.3};
  for (const Point2 p : {a, Point2{-1, 0}, Point2{0, 1}, Point2{0, -1}}) {
    h.Insert(p);
    ASSERT_TRUE(RunsMatchSamples(h));
    ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  }
  std::vector<HullSample> samples = h.Samples();
  ASSERT_EQ(samples.front().point, a);
  ASSERT_EQ(samples.back().point, a) << "the seam case must be exercised";
  EXPECT_EQ(h.Polygon().size(), 4u);

  const Point2 e{2, -0.1};
  h.Insert(e);
  ASSERT_TRUE(RunsMatchSamples(h));
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  samples = h.Samples();
  EXPECT_EQ(samples.front().point, e);
  EXPECT_EQ(samples.back().point, e);
  const std::vector<Point2> verts = h.Polygon().vertices();
  EXPECT_EQ(std::count(verts.begin(), verts.end(), a), 0);
  EXPECT_EQ(std::count(verts.begin(), verts.end(), e), 1);

  // A point exactly on the positive x axis takes direction 0 over.
  const Point2 f{3, 0};
  h.Insert(f);
  ASSERT_TRUE(RunsMatchSamples(h));
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  EXPECT_EQ(h.Samples().front().point, f);
}

TEST(VertexRunsTest, FarPointErasesManyRunsInOneSplice) {
  AdaptiveHull h(Opts(64));
  CircleGenerator ring(7, 512);
  for (int i = 0; i < 512; ++i) h.Insert(ring.Next());
  ASSERT_TRUE(RunsMatchSamples(h));
  const size_t before = h.Polygon().size();
  ASSERT_GE(before, 64u);

  // Wins every direction with a positive x component: about half the
  // runs go in one splice, on both sides of direction 0.
  uint64_t deleted = h.stats().vertices_deleted;
  h.Insert({1e6, 0});
  ASSERT_TRUE(RunsMatchSamples(h));
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  EXPECT_GE(h.stats().vertices_deleted - deleted, before / 2 - 2);
  const size_t after_east = h.Polygon().size();
  EXPECT_LE(after_east, before / 2 + 2);

  // The opposite side: the erased arc is now in the middle of the array.
  deleted = h.stats().vertices_deleted;
  h.Insert({-1e6, 1});
  ASSERT_TRUE(RunsMatchSamples(h));
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  EXPECT_GT(h.stats().vertices_deleted - deleted, 0u);
  EXPECT_LT(h.Polygon().size(), after_east);

  // Far above both: at most the two far points and the new one remain.
  h.Insert({0, 1e9});
  ASSERT_TRUE(RunsMatchSamples(h));
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
  EXPECT_LE(h.Polygon().size(), 4u);
}

TEST(VertexRunsTest, CollinearStreamKeepsTwoRuns) {
  // Points on the x axis: every direction's maximum is one of the two
  // endpoints, so the runs alternate between exactly two points however
  // the stream is ordered and however often it repeats itself.
  Rng rng(17);
  AdaptiveHull h(Opts(32));
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  std::vector<Point2> seen;
  for (int i = 0; i < 400; ++i) {
    Point2 p{static_cast<double>(rng.UniformInt(2001)) - 1000.0, 0.0};
    if (!seen.empty() && rng.UniformInt(4) == 0) {
      p = seen[rng.UniformInt(seen.size())];
    }
    seen.push_back(p);
    lo = std::min(lo, p.x);
    hi = std::max(hi, p.x);
    h.Insert(p);
    ASSERT_TRUE(RunsMatchSamples(h)) << "point " << i;
    ASSERT_TRUE(h.CheckConsistency().ok())
        << i << ": " << h.CheckConsistency().ToString();
  }
  ASSERT_LT(lo, hi);
  std::vector<Point2> verts = h.Polygon().vertices();
  std::sort(verts.begin(), verts.end(),
            [](Point2 a, Point2 b) { return a.x < b.x; });
  EXPECT_EQ(verts, (std::vector<Point2>{{lo, 0.0}, {hi, 0.0}}));
}

TEST(VertexRunsTest, RefinementAndUnrefinementKeepRunsInStep) {
  // A skinny ellipse activates bisector directions inside existing runs;
  // a huge disk then grows P and deactivates them again. The runs must
  // follow every activation and deactivation.
  AdaptiveHull h(Opts(16));
  EllipseGenerator skinny(41, 16.0, 0.0, /*semi_major=*/1.0);
  for (int i = 0; i < 800; ++i) {
    h.Insert(skinny.Next());
    ASSERT_TRUE(RunsMatchSamples(h)) << "skinny point " << i;
  }
  EXPECT_GT(h.stats().directions_refined, 0u);
  EXPECT_GT(h.num_directions(), 16u);
  DiskGenerator big(42, /*radius=*/500.0);
  for (int i = 0; i < 800; ++i) {
    h.Insert(big.Next());
    ASSERT_TRUE(RunsMatchSamples(h)) << "disk point " << i;
  }
  EXPECT_GT(h.stats().directions_unrefined, 0u);
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
}

TEST(VertexRunsTest, FixedSizeRebalanceKeepsRunsInStep) {
  // Fixed-size mode exchanges directions between edges whenever the shape
  // changes: a direction is deactivated in one run and another activated
  // elsewhere in the same insertion.
  AdaptiveHullOptions o = Opts(16);
  o.mode = SamplingMode::kFixedSize;
  AdaptiveHull h(o);
  ChangingEllipseGenerator gen(91, 1500, 0.1);
  for (int i = 0; i < 3000; ++i) {
    h.Insert(gen.Next());
    ASSERT_TRUE(RunsMatchSamples(h)) << "point " << i;
  }
  EXPECT_GT(h.stats().rebalance_exchanges + h.stats().directions_unrefined,
            0u);
  ASSERT_TRUE(h.CheckConsistency().ok()) << h.CheckConsistency().ToString();
}

TEST(VertexRunsTest, LargeRSplicesStayConsistent) {
  // At r = 1024 a splice moves up to 2r+1 entries. Every spiral point is a
  // hull vertex, so nearly every insertion splices.
  constexpr uint32_t kR = 1024;
  AdaptiveHull h(Opts(kR));
  SpiralGenerator spiral(3);
  StreamReference ref(kR);
  for (int i = 0; i < 4000; ++i) {
    const Point2 p = spiral.Next();
    h.Insert(p);
    ref.Add(p);
    if (i % 500 != 499) continue;
    ASSERT_TRUE(RunsMatchSamples(h)) << "point " << i;
    ASSERT_TRUE(h.CheckConsistency().ok())
        << i << ": " << h.CheckConsistency().ToString();
    ASSERT_TRUE(ref.UniformSamplesAreMaxima(h.Samples())) << "point " << i;
    ASSERT_LE(h.Polygon().size(), 2 * kR + 1);
  }
  EXPECT_GT(h.stats().vertices_deleted, 1000u);
}

TEST(VertexRunsTest, MergeReplaysTheRunArray) {
  // Uniform sampling keeps exact maxima, so replaying a summary's runs into
  // an empty engine reproduces it, and replaying them into the summary
  // itself (MergeFrom reads the array it may splice) changes nothing.
  AdaptiveHullOptions o = Opts(32);
  o.max_tree_height = 0;
  AdaptiveHull a(o);
  DriftWalkGenerator gen(23, 0.05);
  for (int i = 0; i < 5000; ++i) a.Insert(gen.Next());
  const std::vector<HullSample> want = a.Samples();

  AdaptiveHull b(o);
  b.MergeFrom(a);
  EXPECT_TRUE(SameSamples(b.Samples(), want));
  EXPECT_EQ(b.Polygon().vertices(), a.Polygon().vertices());
  EXPECT_TRUE(RunsMatchSamples(b));

  const uint64_t deleted = a.stats().vertices_deleted;
  a.MergeFrom(a);
  EXPECT_EQ(a.stats().vertices_deleted, deleted);
  EXPECT_TRUE(SameSamples(a.Samples(), want));
  EXPECT_TRUE(a.CheckConsistency().ok()) << a.CheckConsistency().ToString();
}

TEST(VertexRunsTest, ReserveDoesNotChangeTheSummary) {
  // Reserve() only sizes capacities: an engine reserved up front and again
  // mid-stream ends bit-identical to one that never was.
  AdaptiveHull reserved(Opts(32));
  AdaptiveHull plain(Opts(32));
  reserved.Reserve(100000);
  EllipseGenerator gen(5, 16.0, 0.2);
  for (int i = 0; i < 3000; ++i) {
    const Point2 p = gen.Next();
    reserved.Insert(p);
    plain.Insert(p);
    if (i == 1500) reserved.Reserve(100000);
  }
  EXPECT_TRUE(SameSamples(reserved.Samples(), plain.Samples()));
  EXPECT_EQ(reserved.SampleSlacks(), plain.SampleSlacks());
  EXPECT_TRUE(RunsMatchSamples(reserved));
}

// Randomized splices. Each seed picks an engine configuration and streams a
// mix chosen to hit every splice path: interior points (rejected), points
// near the hull (short splices), points straddling direction 0 (wrapping
// splices), far points (long splices that also grow P and unrefine), exact
// repeats, points on the line through a hull edge (degenerate
// orientations), batches, and merges of other summaries. After every step
// the engine must pass its own audit, agree with the sample walk, stay
// bit-identical to a twin fed one point at a time, and hold the true
// maximum in every uniform direction; the slacks must certify the stream
// wherever the weight invariant holds.
struct FuzzConfig {
  AdaptiveHullOptions options;
  bool certified;  // Invariant mode with the default tree height.
  double aspect;   // x stretch; skinny data drives refinement.
};

FuzzConfig ConfigFor(int seed) {
  static constexpr uint32_t kRs[] = {8, 16, 32, 64};
  FuzzConfig c{Opts(kRs[(seed / 5) % 4]), true, seed % 2 == 0 ? 1.0 : 12.0};
  switch (seed % 5) {
    case 0:
      break;
    case 1:
      c.options.queue_kind = ThresholdQueueKind::kBinaryHeap;
      break;
    case 2:
      c.options.max_tree_height = 0;  // Uniform sampling.
      break;
    case 3:
      c.options.mode = SamplingMode::kFixedSize;
      c.certified = false;
      break;
    default:
      c.options.max_tree_height = 2;
      c.certified = false;
      break;
  }
  return c;
}

class VertexRunsFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(VertexRunsFuzzTest, MatchesReferencesUnderRandomSplices) {
  const int seed = GetParam();
  const FuzzConfig config = ConfigFor(seed);
  const AdaptiveHullOptions& o = config.options;
  Rng rng(static_cast<uint64_t>(seed) * 6364136223846793005ULL + 42);
  AdaptiveHull h(o);     // Takes batches through InsertBatch.
  AdaptiveHull twin(o);  // Takes every point through Insert.
  StreamReference ref(o.r);
  std::vector<Point2> history;
  double scale = 1.0;

  auto draw = [&]() -> Point2 {
    const uint64_t kind = rng.UniformInt(100);
    const double a = rng.Uniform(0, kTwoPi);
    if (kind < 40) {  // Interior.
      const double rad = 0.5 * scale * std::sqrt(rng.NextDouble());
      return {config.aspect * rad * std::cos(a), rad * std::sin(a)};
    }
    if (kind < 65) {  // Near the hull.
      const double rad = scale * rng.Uniform(0.95, 1.05);
      return {config.aspect * rad * std::cos(a), rad * std::sin(a)};
    }
    if (kind < 77) {  // Straddling direction 0.
      return {config.aspect * scale * rng.Uniform(0.9, 1.1),
              scale * rng.Uniform(-1e-3, 1e-3)};
    }
    if (kind < 78) {  // Far: grows the hull, and with it P.
      scale *= rng.Uniform(1.1, 1.5);
      return {config.aspect * scale * std::cos(a), scale * std::sin(a)};
    }
    if (kind < 90 && !history.empty()) {  // Exact repeat.
      return history[rng.UniformInt(history.size())];
    }
    // On the line through a hull edge, inside or beyond it.
    const std::vector<Point2> verts = h.Polygon().vertices();
    if (verts.size() < 2) return {scale, scale};
    const size_t i = rng.UniformInt(verts.size());
    const Point2 p = verts[i];
    const Point2 q = verts[(i + 1) % verts.size()];
    return p + (q - p) * rng.Uniform(-0.5, 1.5);
  };
  auto offer = [&](Point2 p) {
    twin.Insert(p);
    ref.Add(p);
    history.push_back(p);
  };

  for (int step = 0; step < 1200; ++step) {
    const uint64_t op = rng.UniformInt(100);
    if (op < 8) {
      std::vector<Point2> batch(1 + rng.UniformInt(64));
      for (Point2& p : batch) p = draw();
      h.InsertBatch(batch);
      for (const Point2& p : batch) offer(p);
    } else if (op < 10) {
      AdaptiveHull donor(o);
      const Point2 center{scale * rng.Uniform(-1, 1),
                          scale * rng.Uniform(-1, 1)};
      const double rad = scale * rng.Uniform(0.2, 1.5);
      for (int i = 0; i < 40; ++i) {
        const double a = rng.Uniform(0, kTwoPi);
        donor.Insert(center + Point2{config.aspect * rad * std::cos(a),
                                     rad * std::sin(a)});
      }
      h.MergeFrom(donor);
      twin.MergeFrom(donor);
      // MergeFrom inserts the donor's runs, which are its distinct
      // polygon vertices.
      const ConvexPolygon runs = donor.Polygon();
      for (const Point2& p : runs.vertices()) {
        ref.Add(p);
        history.push_back(p);
      }
    } else {
      const Point2 p = draw();
      h.Insert(p);
      offer(p);
    }

    const Status st = h.CheckConsistency();
    ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
    ASSERT_TRUE(RunsMatchSamples(h)) << "step " << step;
    const std::vector<HullSample> samples = h.Samples();
    ASSERT_TRUE(SameSamples(samples, twin.Samples())) << "step " << step;
    ASSERT_EQ(h.SampleSlacks(), twin.SampleSlacks()) << "step " << step;
    ASSERT_TRUE(ref.UniformSamplesAreMaxima(samples)) << "step " << step;
    if (config.certified && (step % 300 == 299)) {
      ASSERT_TRUE(ref.SlacksCertify(samples, h.SampleSlacks()))
          << "step " << step;
    }
  }
  EXPECT_EQ(h.num_points(), twin.num_points());
  EXPECT_GT(h.stats().vertices_deleted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexRunsFuzzTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace streamhull
