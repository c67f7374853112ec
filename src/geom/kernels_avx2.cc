// AVX2 kernel implementations (x86-64). This TU is the only one compiled
// with -mavx2; it is listed in CMakeLists.txt only for x86-64 targets and
// only when STREAMHULL_DISABLE_SIMD is off, and its entry points run only
// after runtime CPUID dispatch confirms AVX2 (geom/kernels.cc).
//
// Bit-identity contract: every arithmetic step uses explicit mul/add —
// never FMA — and mirrors the expression tree of the scalar kernels in
// kernels.cc (whose TU pins -ffp-contract=off), so the dispatched ISA
// never changes a result bit.

#if defined(STREAMHULL_HAVE_AVX2)

#include <immintrin.h>

#include <cstring>

#include "geom/kernels.h"

namespace streamhull {
namespace internal {

namespace {

inline __m256d Abs(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

}  // namespace

void CertifyInteriorBatchAvx2(const PolygonEdgeSoA& poly, const Point2* pts,
                              size_t n, uint8_t* out) {
  if (!poly.CanCertify()) {
    std::memset(out, 0, n);
    return;
  }
  const size_t padded = poly.padded_edges();
  const __m256d veps = _mm256_set1_pd(1e-12);
  const __m256d vscale_base = _mm256_set1_pd(poly.scale);
  const __m256d vcx = _mm256_set1_pd(poly.cx);
  const __m256d vcy = _mm256_set1_pd(poly.cy);
  const __m256d vrin2 = _mm256_set1_pd(poly.rin2);

  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Deinterleave 4 AoS points into x/y lane vectors.
    const __m256d p01 = _mm256_loadu_pd(&pts[i].x);      // x0 y0 x1 y1
    const __m256d p23 = _mm256_loadu_pd(&pts[i + 2].x);  // x2 y2 x3 y3
    const __m256d xl = _mm256_unpacklo_pd(p01, p23);     // x0 x2 x1 x3
    const __m256d yl = _mm256_unpackhi_pd(p01, p23);     // y0 y2 y1 y3
    const __m256d px = _mm256_permute4x64_pd(xl, _MM_SHUFFLE(3, 1, 2, 0));
    const __m256d py = _mm256_permute4x64_pd(yl, _MM_SHUFFLE(3, 1, 2, 0));

    // O(1) fast accept (same expression tree as the scalar kernel): when
    // every lane sits strictly inside the certified inscribed circle the
    // whole block certifies without touching an edge — the dominant case
    // on interior-heavy streams.
    const __m256d ddx = _mm256_sub_pd(px, vcx);
    const __m256d ddy = _mm256_sub_pd(py, vcy);
    const __m256d d2 = _mm256_add_pd(_mm256_mul_pd(ddx, ddx),
                                     _mm256_mul_pd(ddy, ddy));
    const __m256d circ = _mm256_cmp_pd(d2, vrin2, _CMP_LT_OQ);
    const int circ_mask = _mm256_movemask_pd(circ);
    if (circ_mask == 0xF) {
      out[i + 0] = out[i + 1] = out[i + 2] = out[i + 3] = 1;
      continue;
    }

    const __m256d vscale =
        _mm256_max_pd(_mm256_max_pd(vscale_base, Abs(px)), Abs(py));

    __m256d inside = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (size_t e = 0; e < padded; e += 4) {
      // Four edges broadcast one at a time against the four points;
      // unrolled over the pad group to keep the FP pipes full.
      for (size_t k = 0; k < 4; ++k) {
        const size_t idx = e + k;
        const __m256d vax = _mm256_set1_pd(poly.ax[idx]);
        const __m256d vay = _mm256_set1_pd(poly.ay[idx]);
        const __m256d vdx = _mm256_set1_pd(poly.dx[idx]);
        const __m256d vdy = _mm256_set1_pd(poly.dy[idx]);
        const __m256d vsabs = _mm256_set1_pd(poly.sabs[idx]);
        const __m256d t1 = _mm256_mul_pd(vdx, _mm256_sub_pd(py, vay));
        const __m256d t2 = _mm256_mul_pd(vdy, _mm256_sub_pd(px, vax));
        const __m256d margin = _mm256_mul_pd(
            veps, _mm256_add_pd(_mm256_add_pd(Abs(t1), Abs(t2)),
                                _mm256_mul_pd(vscale, vsabs)));
        const __m256d ok =
            _mm256_cmp_pd(_mm256_sub_pd(t1, t2), margin, _CMP_GT_OQ);
        inside = _mm256_and_pd(inside, ok);
      }
      // All four lanes already failed: no further edge can resurrect them.
      if (_mm256_movemask_pd(inside) == 0) break;
    }
    // A circle-certified lane is inside no matter what the edge loop (run
    // for the other lanes) concluded about it — exactly the scalar kernel's
    // "circle accepts, skip the edges" per-point branch.
    const int mask = _mm256_movemask_pd(inside) | circ_mask;
    out[i + 0] = static_cast<uint8_t>(mask & 1);
    out[i + 1] = static_cast<uint8_t>((mask >> 1) & 1);
    out[i + 2] = static_cast<uint8_t>((mask >> 2) & 1);
    out[i + 3] = static_cast<uint8_t>((mask >> 3) & 1);
  }
  if (i < n) CertifyInteriorBatchScalar(poly, pts + i, n - i, out + i);
}

}  // namespace internal
}  // namespace streamhull

#endif  // STREAMHULL_HAVE_AVX2
