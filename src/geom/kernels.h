// streamhull: vectorized geometry kernels with runtime ISA dispatch.
//
// The hottest loop in the library, the batched-ingestion interior
// prefilter (core/adaptive_hull.cc), is data-parallel over points. This
// module provides it as a lane kernel over the SoA layout of geom/soa.h,
// with three implementations selected once at runtime:
//
//   * kScalar — portable C++, compiled with FP contraction disabled so its
//     results are bit-identical to the intrinsic paths (the intrinsic
//     paths use explicit mul/add, never FMA, for the same reason);
//   * kAvx2   — x86-64 AVX2, 4 doubles per register (kernels_avx2.cc,
//     compiled with -mavx2 in its own TU, selected via CPUID);
//   * kNeon   — aarch64 NEON, 2 doubles per register (kernels_neon.cc).
//
// Dispatch policy, in priority order:
//   1. the STREAMHULL_DISABLE_SIMD CMake option removes the intrinsic TUs
//      entirely — only kScalar exists;
//   2. ForceSimdIsa() overrides the choice at runtime (test support);
//   3. otherwise the best ISA the CPU supports wins.
//
// Every implementation of a kernel computes the same IEEE expression tree,
// so the choice of ISA never changes a result bit — the differential
// suites (tests/geom_kernels_test.cc, tests/simd_differential_test.cc)
// pin this.

#ifndef STREAMHULL_GEOM_KERNELS_H_
#define STREAMHULL_GEOM_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "geom/point.h"
#include "geom/soa.h"

namespace streamhull {

/// \brief The instruction-set implementations a kernel can dispatch to.
enum class SimdIsa {
  kScalar,  ///< Portable fallback (always available).
  kAvx2,    ///< x86-64 AVX2 (4 doubles per lane group).
  kNeon,    ///< aarch64 NEON (2 doubles per lane group).
};

/// Stable lowercase identifier for an ISA ("scalar", "avx2", "neon").
const char* SimdIsaName(SimdIsa isa);

/// True when \p isa was compiled in *and* the running CPU supports it.
/// kScalar is always available.
bool SimdIsaAvailable(SimdIsa isa);

/// \brief The ISA the kernels currently dispatch to: the forced override
/// if one is set, otherwise the best available ISA. Thread-safe.
SimdIsa ActiveSimdIsa();

/// \brief Forces all kernels onto \p isa until ClearForcedSimdIsa()
/// (test support: the differential suites ingest the same stream under
/// kScalar and the native ISA and require byte-identical summaries).
/// CHECK-fails when \p isa is not available; see SimdIsaAvailable.
void ForceSimdIsa(SimdIsa isa);

/// Removes the ForceSimdIsa override, returning to automatic dispatch.
void ClearForcedSimdIsa();

/// \brief Margin-certified batch interior test — the SIMD tier of the
/// ingestion prefilter. For each of the \p n points, sets out[i] to 1 iff
/// the point is strictly to the left of every directed CCW edge of
/// \p poly by the certified margin
///
///     t1 - t2 > 1e-12 * (|t1| + |t2| + scale * (|dx| + |dy|)),
///     t1 = dx * (py - ay),  t2 = dy * (px - ax),
///     scale = max(poly.scale, |px|, |py|)
///
/// (the same certificate as the scalar wedge test; see DESIGN.md, "SIMD
/// kernels"). The test is *conservative*: 1 proves the point strictly
/// interior with clearance dominating every downstream predicate's
/// rounding error; 0 promises nothing — near-boundary, degenerate,
/// huge-coordinate (overflowing), and non-finite points all report 0 and
/// take the scalar path. A polygon with fewer than 3 edges certifies
/// nothing (all zeros).
void CertifyInteriorBatch(const PolygonEdgeSoA& poly, const Point2* pts,
                          size_t n, uint8_t* out);

namespace internal {

/// Portable implementations (always compiled; the intrinsic TUs call them
/// for remainders). Identical results to the dispatched kernels.
void CertifyInteriorBatchScalar(const PolygonEdgeSoA& poly, const Point2* pts,
                                size_t n, uint8_t* out);

#if defined(STREAMHULL_HAVE_AVX2)
void CertifyInteriorBatchAvx2(const PolygonEdgeSoA& poly, const Point2* pts,
                              size_t n, uint8_t* out);
#endif

#if defined(STREAMHULL_HAVE_NEON)
void CertifyInteriorBatchNeon(const PolygonEdgeSoA& poly, const Point2* pts,
                              size_t n, uint8_t* out);
#endif

}  // namespace internal

}  // namespace streamhull

#endif  // STREAMHULL_GEOM_KERNELS_H_
