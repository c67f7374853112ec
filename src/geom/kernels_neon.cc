// NEON kernel implementations (aarch64). Compiled only on aarch64 targets
// with STREAMHULL_DISABLE_SIMD off; NEON is architecturally guaranteed
// there, so dispatch needs no runtime probe beyond the build gate.
//
// Bit-identity contract: explicit mul/add only — vfmaq is never used —
// mirroring the scalar expression tree in kernels.cc (compiled with
// -ffp-contract=off), so the dispatched ISA never changes a result bit.

#if defined(STREAMHULL_HAVE_NEON)

#include <arm_neon.h>

#include <cstring>

#include "geom/kernels.h"

namespace streamhull {
namespace internal {

void CertifyInteriorBatchNeon(const PolygonEdgeSoA& poly, const Point2* pts,
                              size_t n, uint8_t* out) {
  if (!poly.CanCertify()) {
    std::memset(out, 0, n);
    return;
  }
  const size_t padded = poly.padded_edges();
  const float64x2_t veps = vdupq_n_f64(1e-12);
  const float64x2_t vscale_base = vdupq_n_f64(poly.scale);
  const float64x2_t vcx = vdupq_n_f64(poly.cx);
  const float64x2_t vcy = vdupq_n_f64(poly.cy);
  const float64x2_t vrin2 = vdupq_n_f64(poly.rin2);

  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // vld2q deinterleaves {x0,y0,x1,y1} into x and y vectors directly.
    const float64x2x2_t xy = vld2q_f64(&pts[i].x);
    const float64x2_t px = xy.val[0];
    const float64x2_t py = xy.val[1];

    // O(1) fast accept (same expression tree as the scalar kernel): a
    // whole block strictly inside the certified inscribed circle skips
    // the edge loop entirely.
    const float64x2_t ddx = vsubq_f64(px, vcx);
    const float64x2_t ddy = vsubq_f64(py, vcy);
    const float64x2_t d2 =
        vaddq_f64(vmulq_f64(ddx, ddx), vmulq_f64(ddy, ddy));
    const uint64x2_t circ = vcltq_f64(d2, vrin2);
    if ((vgetq_lane_u64(circ, 0) & vgetq_lane_u64(circ, 1)) != 0) {
      out[i + 0] = 1;
      out[i + 1] = 1;
      continue;
    }

    const float64x2_t vscale =
        vmaxq_f64(vmaxq_f64(vscale_base, vabsq_f64(px)), vabsq_f64(py));

    uint64x2_t inside = vdupq_n_u64(~0ULL);
    for (size_t e = 0; e < padded; ++e) {
      const float64x2_t vax = vdupq_n_f64(poly.ax[e]);
      const float64x2_t vay = vdupq_n_f64(poly.ay[e]);
      const float64x2_t vdx = vdupq_n_f64(poly.dx[e]);
      const float64x2_t vdy = vdupq_n_f64(poly.dy[e]);
      const float64x2_t vsabs = vdupq_n_f64(poly.sabs[e]);
      const float64x2_t t1 = vmulq_f64(vdx, vsubq_f64(py, vay));
      const float64x2_t t2 = vmulq_f64(vdy, vsubq_f64(px, vax));
      const float64x2_t margin = vmulq_f64(
          veps, vaddq_f64(vaddq_f64(vabsq_f64(t1), vabsq_f64(t2)),
                          vmulq_f64(vscale, vsabs)));
      const uint64x2_t ok = vcgtq_f64(vsubq_f64(t1, t2), margin);
      inside = vandq_u64(inside, ok);
      if ((vgetq_lane_u64(inside, 0) | vgetq_lane_u64(inside, 1)) == 0) break;
    }
    // Circle-certified lanes are inside regardless of the edge loop —
    // the scalar kernel's per-point "circle accepts, skip edges" branch.
    out[i + 0] = (vgetq_lane_u64(inside, 0) | vgetq_lane_u64(circ, 0)) ? 1 : 0;
    out[i + 1] = (vgetq_lane_u64(inside, 1) | vgetq_lane_u64(circ, 1)) ? 1 : 0;
  }
  if (i < n) CertifyInteriorBatchScalar(poly, pts + i, n - i, out + i);
}

}  // namespace internal
}  // namespace streamhull

#endif  // STREAMHULL_HAVE_NEON
