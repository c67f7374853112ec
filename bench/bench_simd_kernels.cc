// Microbenchmarks for the vectorized geometry kernel (geom/kernels.h),
// comparing the dispatched ISA against the forced-scalar path on the same
// inputs. CertifyInteriorBatch runs against a 16-edge coarse polygon —
// the exact shape the ingestion prefilter builds — over point sets at
// several interior fractions. items_per_second counts points.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geom/kernels.h"
#include "geom/soa.h"

namespace {

using namespace streamhull;

constexpr double kTwoPi = 6.283185307179586476925286766559;

// A regular 16-gon on the unit circle, the prefilter's coarse polygon.
PolygonEdgeSoA MakePolygon() {
  std::vector<Point2> verts;
  for (int i = 0; i < 16; ++i) {
    const double a = kTwoPi * i / 16.0;
    verts.push_back({std::cos(a), std::sin(a)});
  }
  PolygonEdgeSoA soa;
  soa.Build(verts, /*stride=*/1, /*coord_scale=*/1.0);
  return soa;
}

std::vector<Point2> MakePoints(size_t n, int interior_pct, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const bool interior =
        rng.NextDouble() * 100.0 < static_cast<double>(interior_pct);
    const double a = rng.Uniform(0, kTwoPi);
    const double rad =
        interior ? 0.5 * rng.NextDouble() : 1.02 + 0.02 * rng.NextDouble();
    pts.push_back({rad * std::cos(a), rad * std::sin(a)});
  }
  return pts;
}

void BM_CertifyInteriorBatch(benchmark::State& state) {
  const bool forced_scalar = state.range(0) != 0;
  const int interior_pct = static_cast<int>(state.range(1));
  const size_t n = 4096;
  const PolygonEdgeSoA poly = MakePolygon();
  const auto pts = MakePoints(n, interior_pct, 987654321);
  std::vector<uint8_t> mask(n);

  if (forced_scalar) ForceSimdIsa(SimdIsa::kScalar);
  for (auto _ : state) {
    CertifyInteriorBatch(poly, pts.data(), n, mask.data());
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
  }
  ClearForcedSimdIsa();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(forced_scalar ? "scalar" : SimdIsaName(ActiveSimdIsa()));
}

void CertifyArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"force_scalar", "interior%"});
  for (int scalar : {0, 1}) {
    for (int pct : {0, 90, 100}) b->Args({scalar, pct});
  }
}

BENCHMARK(BM_CertifyInteriorBatch)->Apply(CertifyArgs);

}  // namespace

BENCHMARK_MAIN();
