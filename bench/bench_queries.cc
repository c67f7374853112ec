// Query costs on the summary (§6): the paper promises O(log r) or O(r) per
// query once the sampled hull is available. Benchmarks each query kind
// against summaries of increasing r.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/adaptive_hull.h"
#include "queries/queries.h"
#include "stream/generators.h"

namespace {

using namespace streamhull;

ConvexPolygon SummaryPolygon(uint32_t r, uint64_t seed, Point2 center) {
  AdaptiveHullOptions o;
  o.r = r;
  AdaptiveHull h(o);
  DiskGenerator gen(seed, 1.0, center);
  for (int i = 0; i < 30000; ++i) h.Insert(gen.Next());
  return h.Polygon();
}

void BM_Diameter(benchmark::State& state) {
  const auto poly = SummaryPolygon(static_cast<uint32_t>(state.range(0)), 1,
                                   {0, 0});
  for (auto _ : state) benchmark::DoNotOptimize(Diameter(poly).value);
  state.SetLabel(std::to_string(poly.size()) + " verts");
}

void BM_Width(benchmark::State& state) {
  const auto poly = SummaryPolygon(static_cast<uint32_t>(state.range(0)), 2,
                                   {0, 0});
  for (auto _ : state) benchmark::DoNotOptimize(Width(poly).value);
}

void BM_DirectionalExtent(benchmark::State& state) {
  const auto poly = SummaryPolygon(static_cast<uint32_t>(state.range(0)), 3,
                                   {0, 0});
  Rng rng(7);
  for (auto _ : state) {
    const Point2 dir = UnitVector(rng.Uniform(0, 6.28318));
    benchmark::DoNotOptimize(DirectionalExtent(poly, dir));
  }
}

void BM_Contains(benchmark::State& state) {
  const auto poly = SummaryPolygon(static_cast<uint32_t>(state.range(0)), 4,
                                   {0, 0});
  Rng rng(8);
  for (auto _ : state) {
    const Point2 q{rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5)};
    benchmark::DoNotOptimize(poly.Contains(q));
  }
}

void BM_Separation(benchmark::State& state) {
  const auto a = SummaryPolygon(static_cast<uint32_t>(state.range(0)), 5,
                                {0, 0});
  const auto b = SummaryPolygon(static_cast<uint32_t>(state.range(0)), 6,
                                {3, 0});
  for (auto _ : state) benchmark::DoNotOptimize(Separation(a, b).distance);
}

void BM_OverlapArea(benchmark::State& state) {
  const auto a = SummaryPolygon(static_cast<uint32_t>(state.range(0)), 7,
                                {0, 0});
  const auto b = SummaryPolygon(static_cast<uint32_t>(state.range(0)), 8,
                                {0.8, 0});
  for (auto _ : state) benchmark::DoNotOptimize(OverlapArea(a, b));
}

void BM_EnclosingCircle(benchmark::State& state) {
  const auto poly = SummaryPolygon(static_cast<uint32_t>(state.range(0)), 9,
                                   {0, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(SmallestEnclosingCircle(poly).radius);
  }
}

BENCHMARK(BM_Diameter)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Width)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_DirectionalExtent)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Contains)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Separation)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_OverlapArea)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_EnclosingCircle)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
