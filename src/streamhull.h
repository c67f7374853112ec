// streamhull: the stable public API, in one include.
//
//   #include "streamhull.h"
//
// pulls in every layer an application needs:
//
//   core/hull_engine.h      HullEngine, EngineKind, MakeEngine — the
//                           streaming summary behind a strategy enum
//   core/snapshot.h         the v1/v2/v3 snapshot wire formats: v2 ships
//                           any engine's certified sandwich so a sink
//                           answers certified queries off decoded views
//                           alone; v3 delta frames ship only the samples
//                           that moved since the last frame, with a
//                           generation-gap resync protocol
//   core/restore.h          live-engine restore: rebuild a summarizing
//                           engine from a decoded view (shard migration,
//                           crash recovery) with still-certified slacks
//   geom/convex_polygon.h   the polygon value type summaries materialize
//   queries/queries.h       raw extremal queries over one polygon
//   queries/certified.h     interval-valued certified queries over the
//                           [Polygon(), OuterPolygon()] sandwich
//   multi/stream_group.h    named multi-stream monitoring with certified
//                           tri-state transition events
//   multi/region_hull.h     the §8 region-partitioned shape summary
//   runtime/...             the concurrency runtime: ThreadPool with its
//                           per-key FIFO strands (behind
//                           StreamGroup::InsertBatchAsync and the server's
//                           tenants), ParallelFor (the fan-out barrier of
//                           the region-parallel and Poll paths), and
//                           failpoints
//   server/...              streamhulld: the session wire protocol,
//                           byte transports (in-process pipes and Unix
//                           sockets), the reusable DeltaSender producer
//                           state machine, and the multi-tenant
//                           ingest/query server core
//   geom/kernels.h          the vectorized geometry kernel behind the
//                           ingestion prefilter, with the runtime ISA
//                           dispatch controls (ActiveSimdIsa,
//                           ForceSimdIsa)
//   stream/generators.h     deterministic synthetic workloads
//
// Individual headers remain includable on their own; this umbrella exists
// so applications and examples track one include as the API grows. New
// code should prefer the certified query layer — the raw queries in
// queries/queries.h answer about the sampled polygon only, dropping the
// O(D/r^2) error bound the paper promises.

/// \file
/// \brief The stable public API, in one include. See the file's top comment
/// for the layer map; prefer the certified query layer for new code.

#ifndef STREAMHULL_STREAMHULL_H_
#define STREAMHULL_STREAMHULL_H_

#include "common/rng.h"
#include "common/status.h"
#include "core/adaptive_hull.h"
#include "core/checked_file.h"
#include "core/hull_engine.h"
#include "core/options.h"
#include "core/restore.h"
#include "core/snapshot.h"
#include "core/static_adaptive.h"
#include "core/windowed_hull.h"
#include "geom/convex_hull.h"
#include "geom/convex_polygon.h"
#include "geom/direction.h"
#include "geom/kernels.h"
#include "geom/point.h"
#include "geom/soa.h"
#include "multi/broad_phase.h"
#include "multi/region_hull.h"
#include "multi/stream_group.h"
#include "queries/certified.h"
#include "queries/queries.h"
#include "runtime/failpoint.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "server/delta_sender.h"
#include "server/producer_client.h"
#include "server/streamhulld.h"
#include "server/transport.h"
#include "server/wire.h"
#include "stream/generators.h"

#endif  // STREAMHULL_STREAMHULL_H_
