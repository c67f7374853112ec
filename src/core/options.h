// streamhull: configuration for the streaming hull summaries.

#ifndef STREAMHULL_CORE_OPTIONS_H_
#define STREAMHULL_CORE_OPTIONS_H_

#include <cstdint>

#include "common/status.h"

namespace streamhull {

/// \brief How the adaptive hull spends its direction budget.
enum class SamplingMode {
  /// The paper's main algorithm (§5): keep every edge's sample weight at
  /// most 1; uses between r and 2r+1 sample directions, adapting the count
  /// to the data.
  kInvariant,
  /// The paper's experimental variant (§7): maintain exactly
  /// `fixed_directions` sample directions at all times, refining
  /// maximum-weight edges even when their weight is below the threshold.
  /// Used for the like-for-like comparison in Table 1.
  kFixedSize,
};

/// \brief Which priority-queue implementation backs unrefinement thresholds
/// (§5.3). kBucket is the paper's O(1) power-of-two scheme; kBinaryHeap is
/// the conventional O(log n) heap, kept for the ablation benchmark.
enum class ThresholdQueueKind { kBucket, kBinaryHeap };

/// \brief Options for AdaptiveHull. UniformHull (the uniformly sampled
/// hull) reads only `r`. An AdaptiveHull with max_tree_height == 0 stores
/// the same uniform summary; it is the flat engine's differential oracle.
struct AdaptiveHullOptions {
  /// Number of base (uniform) sample directions. Must be >= 8 and <= 2^20.
  /// The summary stores at most 2r+1 sample points (Theorem 5.4).
  uint32_t r = 16;

  /// Height cap on the refinement trees (§5.1): k = 0 disables adaptivity
  /// (pure uniform sampling); k = log2(r) is the paper's recommended value
  /// and the default (-1 selects it). Larger k refines flat regions further.
  int max_tree_height = -1;

  /// Budget policy; see SamplingMode.
  SamplingMode mode = SamplingMode::kInvariant;

  /// Target direction count for SamplingMode::kFixedSize; 0 selects the
  /// paper's choice of 2r. Must satisfy r <= fixed_directions <= r * 2^k.
  uint32_t fixed_directions = 0;

  /// Priority queue backing the unrefinement thresholds.
  ThresholdQueueKind queue_kind = ThresholdQueueKind::kBucket;

  /// Validates option consistency.
  Status Validate() const;

  /// The effective tree-height cap after resolving the -1 default.
  int EffectiveTreeHeight() const;

  /// The effective fixed-size direction target after resolving the 0
  /// default.
  uint32_t EffectiveFixedDirections() const {
    return fixed_directions == 0 ? 2 * r : fixed_directions;
  }
};

/// \brief Operation counters exposed by the streaming summaries. All values
/// are cumulative since construction.
struct AdaptiveHullStats {
  uint64_t points_processed = 0;   ///< Total stream points offered.
  uint64_t points_discarded = 0;   ///< Points that won no sample direction.
  uint64_t directions_refined = 0; ///< Refinement steps (directions added).
  uint64_t directions_unrefined = 0;  ///< Unrefinement steps.
  uint64_t vertices_deleted = 0;   ///< Sample vertices displaced by arrivals.
  uint64_t batches = 0;            ///< InsertBatch calls taking the fast path.
  /// Batched points rejected by the inner-polygon prefilter without
  /// touching the winning-set machinery. Always equals
  /// batch_simd_rejections + batch_scalar_rejections.
  uint64_t batch_prefilter_rejections = 0;
  /// Prefilter rejections certified by the SIMD lane kernel (the coarse
  /// sub-polygon test of geom/kernels.h). 0 in scalar-dispatch builds.
  uint64_t batch_simd_rejections = 0;
  /// Prefilter rejections certified by the scalar O(log r) wedge test
  /// (points the conservative SIMD tier declined to certify, or all
  /// rejections when SIMD dispatch is off).
  uint64_t batch_scalar_rejections = 0;
  /// Times the prefilter cache (and its SoA mirror) was rebuilt.
  uint64_t batch_cache_refreshes = 0;
  uint64_t rebuild_nodes_visited = 0;  ///< Refinement-tree nodes touched.
  uint64_t rebalance_exchanges = 0;    ///< Fixed-size mode migrations.
  /// Times the uniformly-sampled-hull perimeter measured *lower* than its
  /// running maximum (the paper argues this cannot happen; the implementation
  /// guards the invariant with a running max and counts any violation here).
  uint64_t perimeter_decreases = 0;

  /// Field-wise sum: how the windowed engine totals its buckets and a
  /// StreamGroup totals its streams.
  AdaptiveHullStats& operator+=(const AdaptiveHullStats& o) {
    points_processed += o.points_processed;
    points_discarded += o.points_discarded;
    directions_refined += o.directions_refined;
    directions_unrefined += o.directions_unrefined;
    vertices_deleted += o.vertices_deleted;
    batches += o.batches;
    batch_prefilter_rejections += o.batch_prefilter_rejections;
    batch_simd_rejections += o.batch_simd_rejections;
    batch_scalar_rejections += o.batch_scalar_rejections;
    batch_cache_refreshes += o.batch_cache_refreshes;
    rebuild_nodes_visited += o.rebuild_nodes_visited;
    rebalance_exchanges += o.rebalance_exchanges;
    perimeter_decreases += o.perimeter_decreases;
    return *this;
  }
};
static_assert(sizeof(AdaptiveHullStats) == 13 * sizeof(uint64_t),
              "AdaptiveHullStats changed: update operator+=");

}  // namespace streamhull

#endif  // STREAMHULL_CORE_OPTIONS_H_
