// The parallel-ingestion determinism suite. The runtime's contract is not
// "approximately the same summary, faster" but *bit-identical* summaries:
// per-stream FIFO sharding means every engine sees exactly the batch
// sequence sequential ingestion would feed it, so the resulting
// EncodeView() bytes must match byte for byte — for every engine kind,
// stream count, and thread count, including thread counts far above the
// machine's core count. The suite also covers RegionPartitionedHull's
// parallel per-region ingestion/encoding and mixed sync/async usage.
//
// All of this runs under TSan in CI (the tsan job), which turns "the
// barrier happens to work" into "the barrier provably orders the reads".

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hull_engine.h"
#include "core/snapshot.h"
#include "core/static_adaptive.h"
#include "multi/region_hull.h"
#include "multi/stream_group.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "stream/generators.h"

namespace streamhull {
namespace {

EngineOptions Opts(uint32_t r = 32) {
  EngineOptions o;
  o.hull.r = r;
  return o;
}

std::string StreamName(size_t i) { return "s" + std::to_string(i); }

// A deterministic per-stream workload: stream i gets a different generator
// family so the differential covers interior-heavy, drifting, and
// adversarial streams at once.
std::vector<std::vector<Point2>> MakeStreams(size_t num_streams, size_t n) {
  std::vector<std::vector<Point2>> streams;
  streams.reserve(num_streams);
  for (size_t i = 0; i < num_streams; ++i) {
    const uint64_t seed = 1000 + i;
    switch (i % 4) {
      case 0:
        streams.push_back(DiskGenerator(seed).Take(n));
        break;
      case 1:
        streams.push_back(DriftWalkGenerator(seed).Take(n));
        break;
      case 2:
        streams.push_back(SpiralGenerator(seed).Take(n));
        break;
      default:
        streams.push_back(ClusterGenerator(seed, 5).Take(n));
        break;
    }
  }
  return streams;
}

struct ParallelCase {
  EngineKind kind;
  size_t num_streams;
  size_t num_threads;
};

std::string CaseName(const testing::TestParamInfo<ParallelCase>& info) {
  std::string name = std::string(EngineKindName(info.param.kind)) + "_s" +
                     std::to_string(info.param.num_streams) + "_t" +
                     std::to_string(info.param.num_threads);
  // Param names must be alphanumeric: "partially-adaptive" -> underscore.
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class ParallelDeterminismTest : public testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelDeterminismTest, AsyncIngestionIsBitIdenticalToSequential) {
  const ParallelCase& c = GetParam();
  const size_t kBatch = 512;
  const auto streams = MakeStreams(c.num_streams, 4000);

  // Sequential reference: plain InsertBatch, same batch boundaries.
  StreamGroup sequential(Opts(), c.kind);
  // Parallel subject: batches fan out across the pool, interleaved across
  // streams in every order the scheduler likes.
  StreamGroup parallel(Opts(), c.kind);
  parallel.SetParallelism(c.num_threads);

  for (size_t i = 0; i < c.num_streams; ++i) {
    ASSERT_TRUE(sequential.AddStream(StreamName(i)).ok());
    ASSERT_TRUE(parallel.AddStream(StreamName(i)).ok());
  }
  // Submit round-robin across streams (the realistic arrival pattern, and
  // the one that maximizes cross-stream concurrency in the subject).
  for (size_t off = 0; off < 4000; off += kBatch) {
    for (size_t i = 0; i < c.num_streams; ++i) {
      const auto& s = streams[i];
      const size_t len = std::min(kBatch, s.size() - off);
      std::vector<Point2> chunk(s.begin() + off, s.begin() + off + len);
      ASSERT_TRUE(
          sequential.InsertBatch(StreamName(i), chunk).ok());
      ASSERT_TRUE(
          parallel.InsertBatchAsync(StreamName(i), std::move(chunk)).ok());
    }
  }
  parallel.Flush();

  for (size_t i = 0; i < c.num_streams; ++i) {
    const HullEngine* seq_engine = sequential.Hull(StreamName(i));
    const HullEngine* par_engine = parallel.Hull(StreamName(i));
    ASSERT_NE(seq_engine, nullptr);
    ASSERT_NE(par_engine, nullptr);
    EXPECT_EQ(par_engine->num_points(), seq_engine->num_points());
    EXPECT_TRUE(par_engine->CheckConsistency().ok()) << StreamName(i);
    // The whole certified sandwich over the wire: samples, slacks,
    // metadata. Byte equality here is the determinism claim. (Both engines
    // are quiescent and sealed after the barrier, so the const encoder
    // serves the same bytes EncodeView() would.)
    EXPECT_EQ(EncodeSummaryView(*par_engine), EncodeSummaryView(*seq_engine))
        << EngineKindName(c.kind) << " stream " << StreamName(i);
  }
}

std::vector<ParallelCase> AllCases() {
  std::vector<ParallelCase> cases;
  for (EngineKind kind : AllEngineKinds()) {
    for (size_t streams : {1, 4, 16}) {
      for (size_t threads : {1, 2, 8}) {
        cases.push_back(ParallelCase{kind, streams, threads});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ParallelDeterminismTest,
                         testing::ValuesIn(AllCases()), CaseName);

TEST(StreamGroupParallelTest, MixedSyncAndAsyncIngestionStaysOrdered) {
  // Sync InsertBatch between async batches must observe the async ones
  // first (it flushes internally) — the combined sequence is still FIFO.
  const auto pts = DiskGenerator(7).Take(3000);
  StreamGroup parallel(Opts());
  parallel.SetParallelism(4);
  StreamGroup sequential(Opts());
  ASSERT_TRUE(parallel.AddStream("s").ok());
  ASSERT_TRUE(sequential.AddStream("s").ok());
  for (size_t off = 0; off < pts.size(); off += 500) {
    std::vector<Point2> chunk(pts.begin() + off, pts.begin() + off + 500);
    ASSERT_TRUE(sequential.InsertBatch("s", chunk).ok());
    if ((off / 500) % 2 == 0) {
      ASSERT_TRUE(parallel.InsertBatchAsync("s", std::move(chunk)).ok());
    } else {
      ASSERT_TRUE(parallel.InsertBatch("s", chunk).ok());
    }
  }
  parallel.Flush();
  EXPECT_EQ(EncodeSummaryView(*parallel.Hull("s")),
            EncodeSummaryView(*sequential.Hull("s")));
}

TEST(StreamGroupParallelTest, DestructionWithPendingBatchesIsSafe) {
  // Regression: dropping a group with async batches still queued must
  // drain them (engines outlive the runtime inside StreamGroup) instead
  // of deadlocking or running drains against freed strands.
  for (int round = 0; round < 20; ++round) {
    StreamGroup group(Opts());
    group.SetParallelism(4);
    ASSERT_TRUE(group.AddStream("a").ok());
    ASSERT_TRUE(group.AddStream("b").ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          group.InsertBatchAsync("a", DiskGenerator(i).Take(500)).ok());
      ASSERT_TRUE(
          group.InsertBatchAsync("b", DiskGenerator(100 + i).Take(500)).ok());
    }
    // No Flush(): the group's destructor must be the barrier.
  }
}

TEST(StreamGroupParallelTest, AsyncFallsBackWhenParallelismOff) {
  StreamGroup group(Opts());
  ASSERT_TRUE(group.AddStream("s").ok());
  EXPECT_FALSE(group.parallel());
  ASSERT_TRUE(group.InsertBatchAsync("s", DiskGenerator(3).Take(100)).ok());
  group.Flush();  // No-op.
  EXPECT_EQ(group.Hull("s")->num_points(), 100u);
}

TEST(StreamGroupParallelTest, AsyncValidatesNamesAndFlavors) {
  StreamGroup group(Opts());
  group.SetParallelism(2);
  ASSERT_TRUE(group.AddStream("local").ok());
  ASSERT_TRUE(group.AddRemoteStream("remote").ok());
  EXPECT_FALSE(group.InsertBatchAsync("nope", {{1, 2}}).ok());
  EXPECT_FALSE(group.InsertBatchAsync("remote", {{1, 2}}).ok());
  EXPECT_TRUE(group.InsertBatchAsync("local", {{1, 2}}).ok());
  group.Flush();
  EXPECT_EQ(group.Hull("local")->num_points(), 1u);
}

TEST(StreamGroupParallelTest, PollFlushesPendingBatchesFirst) {
  // Two streams start apart (separable), then stream "b" marches into
  // "a"'s territory via async batches; a Poll right after submission must
  // see the certified loss — proof it flushed before evaluating.
  StreamGroup group(Opts());
  group.SetParallelism(4);
  ASSERT_TRUE(group.AddStream("a").ok());
  ASSERT_TRUE(group.AddStream("b").ok());
  ASSERT_TRUE(group.WatchPair("a", "b").ok());
  ASSERT_TRUE(
      group.InsertBatchAsync("a", DiskGenerator(1, 1.0, {0, 0}).Take(400))
          .ok());
  ASSERT_TRUE(
      group.InsertBatchAsync("b", DiskGenerator(2, 1.0, {10, 0}).Take(400))
          .ok());
  (void)group.Poll();  // Baseline: separable.
  ASSERT_TRUE(
      group.InsertBatchAsync("b", DiskGenerator(3, 1.0, {0, 0}).Take(400))
          .ok());
  const auto events = group.Poll();
  bool lost = false;
  for (const PairEvent& e : events) {
    lost |= e.kind == PairEvent::Kind::kSeparabilityLost;
  }
  EXPECT_TRUE(lost);
}

TEST(EngineConstAccessTest, UnsealedStaticAdaptiveEncodesConcurrently) {
  // The HullEngine thread-compatibility contract: concurrent const access
  // is safe on every engine but WindowedHullEngine (its mutable merge
  // cache). An unsealed StaticAdaptiveHull rebuilds its sample into locals
  // on every const call, so encodes from four workers at once must race on
  // nothing (TSan) and match a sequential encode byte for byte.
  AdaptiveHullOptions opts;
  opts.r = 32;
  StaticAdaptiveHull engine(opts);
  for (const Point2& p : SpiralGenerator(7).Take(2000)) engine.Insert(p);
  ASSERT_FALSE(engine.sealed());
  const std::string sequential = EncodeSummaryView(engine);
  ASSERT_FALSE(sequential.empty());

  ThreadPool pool(4);
  std::vector<std::string> encoded(16);
  const StaticAdaptiveHull& shared = engine;
  ParallelFor(&pool, encoded.size(), /*min_chunk=*/1,
              [&](size_t i) { encoded[i] = EncodeSummaryView(shared); });
  EXPECT_FALSE(engine.sealed());
  for (size_t i = 0; i < encoded.size(); ++i) {
    EXPECT_EQ(encoded[i], sequential) << "encode " << i;
  }
}

TEST(RegionHullParallelTest, ParallelRegionIngestionIsBitIdentical) {
  // Three well-separated square regions plus outliers.
  auto square = [](double cx, double cy) {
    return ConvexPolygon({{cx - 1, cy - 1},
                          {cx + 1, cy - 1},
                          {cx + 1, cy + 1},
                          {cx - 1, cy + 1}});
  };
  std::vector<ConvexPolygon> regions = {square(0, 0), square(10, 0),
                                        square(0, 10)};
  AdaptiveHullOptions opts;
  opts.r = 32;
  Status st;
  auto sequential = RegionPartitionedHull::Create(regions, opts, &st);
  ASSERT_TRUE(st.ok());
  auto point_at_a_time = RegionPartitionedHull::Create(regions, opts, &st);
  ASSERT_TRUE(st.ok());
  auto parallel = RegionPartitionedHull::Create(regions, opts, &st);
  ASSERT_TRUE(st.ok());

  // Mix points for every region and some outliers, interleaved.
  std::vector<Point2> pts;
  DiskGenerator g0(1, 0.9, {0, 0}), g1(2, 0.9, {10, 0}), g2(3, 0.9, {0, 10});
  DiskGenerator gout(4, 0.5, {30, 30});
  for (int i = 0; i < 1500; ++i) {
    pts.push_back(g0.Next());
    pts.push_back(g1.Next());
    pts.push_back(g2.Next());
    if (i % 5 == 0) pts.push_back(gout.Next());
  }

  ThreadPool pool(4);
  const size_t kBatch = 777;  // Deliberately not a divisor of the total.
  for (size_t off = 0; off < pts.size(); off += kBatch) {
    const size_t len = std::min(kBatch, pts.size() - off);
    std::span<const Point2> chunk(&pts[off], len);
    sequential->InsertBatch(chunk);
    parallel->InsertBatch(chunk, &pool);
  }
  for (const Point2& p : pts) point_at_a_time->Insert(p);

  ASSERT_EQ(parallel->num_points(), pts.size());
  ASSERT_EQ(sequential->num_points(), pts.size());
  for (size_t i = 0; i <= parallel->OutlierIndex(); ++i) {
    EXPECT_EQ(parallel->EncodeRegionView(i), sequential->EncodeRegionView(i))
        << "region " << i;
    // Batched (and parallel-batched) region ingestion matches per-point
    // routing bit for bit, engine state included.
    EXPECT_EQ(parallel->EncodeRegionView(i),
              point_at_a_time->EncodeRegionView(i))
        << "region " << i;
  }

  // Parallel encode returns the same bytes as indexed encodes.
  const auto views = parallel->EncodeAllRegionViews(&pool);
  ASSERT_EQ(views.size(), parallel->OutlierIndex() + 1);
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], parallel->EncodeRegionView(i)) << "region " << i;
  }
  const auto views_seq = parallel->EncodeAllRegionViews();
  EXPECT_EQ(views, views_seq);
}

}  // namespace
}  // namespace streamhull
