// Scalar kernel implementations and the runtime ISA dispatch.
//
// This TU is compiled with -ffp-contract=off (see CMakeLists.txt): the
// scalar kernels must evaluate the exact IEEE expression tree the
// intrinsic paths evaluate with explicit mul/add, and a contracted FMA
// would round differently. Do not "optimize" a*b + c*d here.

#include "geom/kernels.h"

#include <atomic>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace streamhull {

namespace internal {

void CertifyInteriorBatchScalar(const PolygonEdgeSoA& poly, const Point2* pts,
                                size_t n, uint8_t* out) {
  if (!poly.CanCertify()) {
    std::memset(out, 0, n);
    return;
  }
  const size_t m = poly.num_edges;
  for (size_t i = 0; i < n; ++i) {
    const double px = pts[i].x;
    const double py = pts[i].y;
    // O(1) fast accept: strictly inside the certified inscribed circle.
    // rin2 == 0 (tier disabled) never accepts; NaN coordinates compare
    // false. The vector kernels evaluate this identical expression tree,
    // so the 0/1 outputs stay bitwise equal across ISAs.
    const double ddx = px - poly.cx;
    const double ddy = py - poly.cy;
    if (ddx * ddx + ddy * ddy < poly.rin2) {
      out[i] = 1;
      continue;
    }
    double scale = poly.scale;
    if (std::abs(px) > scale) scale = std::abs(px);
    if (std::abs(py) > scale) scale = std::abs(py);
    bool inside = true;
    for (size_t e = 0; e < m; ++e) {
      const double t1 = poly.dx[e] * (py - poly.ay[e]);
      const double t2 = poly.dy[e] * (px - poly.ax[e]);
      const double margin =
          1e-12 * (std::abs(t1) + std::abs(t2) + scale * poly.sabs[e]);
      if (!(t1 - t2 > margin)) {
        inside = false;
        break;
      }
    }
    out[i] = inside ? 1 : 0;
  }
}

}  // namespace internal

namespace {

// Best ISA this binary + CPU pair supports, ignoring overrides.
SimdIsa DetectBestIsa() {
#if defined(STREAMHULL_HAVE_AVX2)
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
#endif
#endif
#if defined(STREAMHULL_HAVE_NEON)
#if defined(__aarch64__)
  return SimdIsa::kNeon;  // NEON is architecturally guaranteed on aarch64.
#endif
#endif
  return SimdIsa::kScalar;
}

// Resolved once per process from CPUID.
SimdIsa AutoIsa() {
  static const SimdIsa isa = DetectBestIsa();
  return isa;
}

// -1 = no override; otherwise the forced SimdIsa value. Relaxed ordering
// suffices: an override is set before any concurrent ingestion starts
// (test support), and every kernel call re-reads it.
std::atomic<int> g_forced_isa{-1};

}  // namespace

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar: return "scalar";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kNeon: return "neon";
  }
  return "unknown";
}

bool SimdIsaAvailable(SimdIsa isa) {
  if (isa == SimdIsa::kScalar) return true;
  return DetectBestIsa() == isa;
}

SimdIsa ActiveSimdIsa() {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdIsa>(forced);
  return AutoIsa();
}

void ForceSimdIsa(SimdIsa isa) {
  SH_CHECK(SimdIsaAvailable(isa) && "forced SimdIsa not available");
  g_forced_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void ClearForcedSimdIsa() {
  g_forced_isa.store(-1, std::memory_order_relaxed);
}

void CertifyInteriorBatch(const PolygonEdgeSoA& poly, const Point2* pts,
                          size_t n, uint8_t* out) {
  switch (ActiveSimdIsa()) {
#if defined(STREAMHULL_HAVE_AVX2)
    case SimdIsa::kAvx2:
      internal::CertifyInteriorBatchAvx2(poly, pts, n, out);
      return;
#endif
#if defined(STREAMHULL_HAVE_NEON)
    case SimdIsa::kNeon:
      internal::CertifyInteriorBatchNeon(poly, pts, n, out);
      return;
#endif
    default:
      internal::CertifyInteriorBatchScalar(poly, pts, n, out);
      return;
  }
}

}  // namespace streamhull
