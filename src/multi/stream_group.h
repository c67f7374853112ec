// streamhull: multi-stream monitoring (§1, §6).
//
// The paper's query section is explicitly multi-stream: "track the minimum
// distance between the convex hulls of two data streams; report when data
// streams A and B are no longer linearly separable; ... report when points
// of data stream A become completely surrounded by points of data stream B.
// These queries are easily extended to more than two streams."
//
// StreamGroup manages a set of named summaries and watches registered pairs
// for state *transitions* — separability gained/lost, containment
// started/ended — so a monitoring application polls for events instead of
// re-deriving them from raw query values.
//
// The monitoring is built on the certified query layer (queries/
// certified.h): PairReport carries intervals bracketing the true-stream
// values, each watched predicate is tri-state (certified true / certified
// false / unknown), and Poll() emits a transition only when the predicate
// is *certified* to have flipped. While the truth sits inside the
// uncertainty band the watch reports kCertaintyLost once and then stays
// quiet — uncertified point values can never flap a predicate back and
// forth across a poll sequence.
//
// Each stream runs its own HullEngine: AddStream picks the maintenance
// strategy per stream (a sensor feed might afford the adaptive engine while
// a firehose runs uniform), and InsertBatch routes a whole chunk of points
// through the engine's batched fast path in one call.
//
// Streams come in two flavors. A *local* stream wraps a live engine fed by
// Insert/InsertBatch. A *remote* stream is the paper's distributed setting:
// the points live on another node, which ships its certified sandwich once
// as a full snapshot v2 message and from then on as snapshot v3 *delta*
// frames carrying only the samples that moved (core/snapshot.h); the group
// holds only the decoded view, patching it per delta and falling back to a
// full-frame resync whenever a generation gap shows a frame was lost. Remote and local streams mix freely in watches and
// reports — a sink holding nothing but decoded views still certifies
// pairwise separation, containment, and overlap.
//
// Ingestion can run in parallel: SetParallelism(n) attaches a worker pool
// (runtime/thread_pool.h) and InsertBatchAsync then shards batches by
// stream — each stream is a single-writer FIFO strand, so every engine
// still sees single-threaded access in submission order and the resulting
// summaries are bit-identical to sequential ingestion. Flush() is the
// barrier; Poll() and Report() flush implicitly. See DESIGN.md,
// "Concurrency model".
//
// Beyond explicit pairs, WatchAllPairs() turns the group into a *fleet
// watch*: every unordered pair of streams is monitored, but Poll() prunes
// the quadratic pair space through a broad-phase index over outer-hull
// bounding boxes (multi/broad_phase.h) and evaluates certified geometry
// only for candidate pairs. Pruning is answer-preserving, not heuristic:
// a pruned pair's boxes are strictly disjoint, which *certifies*
// separability true and containment false — exactly what brute force
// would compute — so fleet Poll events are identical to evaluating every
// pair. Candidate evaluation fans out over the ingestion
// ThreadPool when parallelism is enabled, with a deterministic merge that
// makes parallel Poll bit-identical to sequential. See DESIGN.md, "Fleet
// monitoring".

#ifndef STREAMHULL_MULTI_STREAM_GROUP_H_
#define STREAMHULL_MULTI_STREAM_GROUP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/hull_engine.h"
#include "core/snapshot.h"
#include "multi/broad_phase.h"
#include "queries/certified.h"
#include "queries/queries.h"
#include "runtime/thread_pool.h"

/// \file
/// \brief Named multi-stream monitoring with certified tri-state transition
/// events (§1, §6). Fallible operations return Status: InvalidArgument for
/// unknown/duplicate names and malformed snapshot bytes, FailedPrecondition
/// for operations on the wrong stream flavor (feeding a remote stream,
/// updating a local one) or on streams with no data yet.

namespace streamhull {

/// \brief Point-in-time certified relationship between two summarized
/// streams. Every field brackets or tri-states the corresponding property
/// of the *true* stream hulls, not the sampled polygons.
struct PairReport {
  /// Brackets the minimum distance between the two true hulls.
  Interval distance;
  /// Strict linear separability of the true hulls.
  Certainty separable = Certainty::kUnknown;
  /// Brackets the area of the true hulls' intersection.
  Interval overlap_area;
  /// Is B's true hull contained in A's?
  Certainty a_contains_b = Certainty::kUnknown;
  /// Is A's true hull contained in B's?
  Certainty b_contains_a = Certainty::kUnknown;
};

/// \brief A detected state transition on a watched pair.
struct PairEvent {
  enum class Kind {
    kSeparabilityLost,    ///< Certified: the true hulls are inseparable.
    kSeparabilityGained,  ///< Certified: the true hulls are separable.
    kContainmentStarted,  ///< Certified: `first` is contained in `second`.
    kContainmentEnded,    ///< Certified: `first` escaped `second`.
    /// The predicate's truth entered the uncertainty band: the summaries
    /// can no longer certify it either way. The watch keeps its last
    /// certified value and stays quiet until certainty returns.
    kCertaintyLost,
    /// The predicate became certified again, with the same value it had
    /// before certainty was lost (a changed value emits the corresponding
    /// transition event instead).
    kCertaintyGained,
  };
  /// Which watched predicate a kCertaintyLost/Gained event refers to (the
  /// four transition kinds imply it).
  enum class Predicate {
    kSeparability,  ///< The "streams are linearly separable" predicate.
    kContainment,   ///< The "`first` is contained in `second`" predicate.
  };
  Kind kind;  ///< The detected transition.
  /// The predicate a kCertaintyLost/Gained refers to.
  Predicate predicate = Predicate::kSeparability;
  std::string first;        ///< First stream of the watched pair.
  std::string second;       ///< Second stream of the watched pair.
  uint64_t poll_index = 0;  ///< Which Poll() call surfaced the event.
};

/// \brief Per-remote-stream ingest accounting, maintained by
/// UpdateRemoteStream. The protocol outcomes a sink operator needs are all
/// distinct counters — in particular a delta that fails to chain
/// (resyncs_needed, the FailedPrecondition outcome that obliges the caller
/// to fetch a full frame) is never conflated with a malformed frame
/// (rejected_frames, the InvalidArgument outcome that indicates corruption
/// or a bug, not ordinary loss).
struct RemoteStreamStats {
  uint64_t full_frames = 0;   ///< v2 frames decoded and installed.
  uint64_t delta_frames = 0;  ///< v3 frames successfully patched in.
  /// Frames refused because they do not chain onto the held view: a delta
  /// with a generation gap, or a delta arriving before any full frame.
  /// Each increment corresponds to one FailedPrecondition returned to the
  /// caller — i.e. one resync the producer owes this stream.
  uint64_t resyncs_needed = 0;
  /// Structurally malformed frames (InvalidArgument): truncated, bad
  /// magic, out-of-range fields. The held view survives untouched.
  uint64_t rejected_frames = 0;
  /// The generation (the producer engine's mutation epoch,
  /// HullEngine::Generation(); equals the stream length for insert-only
  /// producers) of the currently held view; 0 before the first successful
  /// update.
  uint64_t held_generation = 0;
};

/// \brief Which predicate families a fleet watch (WatchAllPairs) monitors.
/// Disabling a family skips its narrow-phase evaluation and suppresses its
/// events for every pair.
struct FleetWatchOptions {
  bool separability = true;  ///< Watch pairwise linear separability.
  bool containment = true;   ///< Watch containment in both directions.
};

/// \brief Telemetry for fleet polls (WatchAllPairs). The last_* fields
/// describe the most recent Poll(); the totals accumulate across polls.
/// The headline ratio last_candidates / last_possible_pairs is the
/// broad-phase pruning factor the fleet bench gates on.
struct FleetPollStats {
  uint64_t last_streams = 0;         ///< Indexed (non-empty) streams.
  uint64_t last_possible_pairs = 0;  ///< n*(n-1)/2 over indexed streams.
  uint64_t last_candidates = 0;      ///< Pairs surviving the broad phase.
  uint64_t last_pairs_evaluated = 0;  ///< Narrow-phase pair evaluations.
  uint64_t last_streams_refreshed = 0;  ///< Streams re-indexed this poll.
  uint64_t last_active_states = 0;   ///< Non-default pair states held.
  uint64_t last_events = 0;          ///< Fleet events emitted this poll.
  uint64_t total_candidates = 0;       ///< Sum of last_candidates.
  uint64_t total_pairs_evaluated = 0;  ///< Sum of last_pairs_evaluated.
  uint64_t total_events = 0;           ///< Sum of last_events.
  uint64_t fleet_polls = 0;            ///< Polls with the fleet watch on.
};

/// \brief Named collection of stream summaries with pairwise monitoring.
class StreamGroup {
 public:
  /// \param options configuration applied to every stream's engine.
  /// \param default_kind engine used by streams added without an explicit
  ///        kind.
  explicit StreamGroup(const EngineOptions& options,
                       EngineKind default_kind = EngineKind::kAdaptive)
      : options_(options), default_kind_(default_kind) {}

  /// Convenience: adaptive engines configured by \p options.
  explicit StreamGroup(const AdaptiveHullOptions& options)
      : StreamGroup(EngineOptions{.hull = options}) {}

  /// Registers a new local stream running the group's default engine kind.
  /// Fails if the name already exists or options are invalid.
  Status AddStream(const std::string& name);

  /// Registers a new local stream running the given engine kind.
  Status AddStream(const std::string& name, EngineKind kind);

  /// \brief Registers a remote stream: no engine runs here, the stream's
  /// certified sandwich arrives as snapshot v2 messages (and v3 deltas)
  /// via UpdateRemoteStream. Until the first update the stream is empty
  /// (watches hold their baseline, Report fails its non-empty
  /// precondition). Fails if the name already exists.
  Status AddRemoteStream(const std::string& name);

  /// \brief Installs a snapshot message as the named remote stream's
  /// current view, dispatching on the wire version: a v2 frame replaces
  /// the view wholesale, a v3 delta frame patches the held view in place
  /// (and invalidates the stream's generation-tagged view cache, like any
  /// update). Fails on unknown or local names and on malformed bytes; a
  /// delta that does not chain onto the held view — nothing decoded yet,
  /// or a generation gap from a dropped frame — fails FailedPrecondition,
  /// the signal to request a full v2 frame from the producer. The
  /// previous view is kept on every failure.
  Status UpdateRemoteStream(const std::string& name, std::string_view bytes);

  /// \brief The named remote stream's frame accounting (see
  /// RemoteStreamStats). Fails on unknown names and on local streams
  /// (which receive no frames).
  Status RemoteStats(const std::string& name, RemoteStreamStats* out) const;

  /// \brief Copies the named remote stream's currently held decoded view —
  /// what a persistence layer re-encodes (EncodeSummaryView) to survive a
  /// restart. Fails on unknown or local names, and FailedPrecondition
  /// before the first successful update (nothing held yet).
  Status RemoteView(const std::string& name, DecodedSummaryView* out) const;

  /// Feeds one point to the named stream. Fails on unknown names and on
  /// remote streams (their points live on the producer). With parallel
  /// ingestion enabled this flushes first (same ordering argument as
  /// InsertBatch); a high-rate caller should batch instead.
  Status Insert(const std::string& name, Point2 p);

  /// \brief Feeds a batch of points to the named stream through the
  /// engine's batched fast path. Equivalent to (but faster than) inserting
  /// the points one at a time. Fails on unknown names and remote streams.
  /// With parallel ingestion enabled, blocks until the stream's pending
  /// async batches have drained (per-stream FIFO would otherwise be
  /// violated), then ingests synchronously.
  Status InsertBatch(const std::string& name, std::span<const Point2> points);

  /// \brief Enables parallel ingestion with \p num_threads pool workers
  /// (0 selects the hardware concurrency) — each stream becomes a
  /// single-writer strand on the pool and InsertBatchAsync fans out
  /// across the pool. Call once, before the first InsertBatchAsync;
  /// CHECK-fails if parallelism is already enabled.
  void SetParallelism(size_t num_threads);

  /// True once SetParallelism has attached a worker pool.
  bool parallel() const { return pool_ != nullptr; }

  /// \brief Queues a batch for the named stream and returns immediately
  /// (the points are copied). Batches for one stream run FIFO in
  /// submission order on a single worker at a time; batches for different
  /// streams run concurrently. The summary each engine reaches is
  /// bit-identical to calling InsertBatch with the same batches in the
  /// same order. Falls back to synchronous InsertBatch when parallelism is
  /// off. Fails on unknown names and remote streams.
  ///
  /// Until the next Flush()/Poll()/Report(), the stream's engine may be
  /// mid-ingestion on a pool thread: do not touch Hull()/View() for it.
  Status InsertBatchAsync(const std::string& name, std::vector<Point2> points);

  /// \brief Barrier: returns once every queued async batch (all streams)
  /// has been ingested. After it returns, all engine state is visible to
  /// the calling thread and every accessor is safe again. No-op when
  /// parallelism is off.
  void Flush();

  /// The named stream's engine, or nullptr if unknown — remote streams
  /// included: they have no engine, only a view.
  const HullEngine* Hull(const std::string& name) const;

  /// True iff the named stream exists and is remote.
  bool IsRemote(const std::string& name) const;

  /// The named stream's inner/outer sandwich for ad-hoc certified queries
  /// (local: built from the live engine; remote: the last decoded view).
  /// Fails on unknown names.
  Status View(const std::string& name, SummaryView* out) const;

  /// Registered stream names, sorted.
  std::vector<std::string> StreamNames() const;

  /// \brief Element-wise sum of every local stream's operation counters
  /// (remote streams run no engine here and contribute nothing) — the
  /// group-level ingestion telemetry the benches export: prefilter
  /// rejections by tier, cache refreshes, points processed/discarded.
  /// Call only while the group is quiescent (after Flush()) — engines
  /// mid-async-batch are not safe to read.
  AdaptiveHullStats AggregateIngestStats() const;

  /// \brief Computes the current certified relationship of two streams.
  /// Fails on unknown names; both summaries must be non-empty (a local
  /// stream needs at least one point, a remote one at least one decoded
  /// view). Non-const: it seals local engines first so deferred-cache
  /// engines (static-adaptive) serve the whole report from one rebuild.
  Status Report(const std::string& a, const std::string& b, PairReport* out);

  /// Starts watching the (unordered) pair for transitions. Idempotent.
  Status WatchPair(const std::string& a, const std::string& b);

  /// \brief Turns on the fleet watch: every unordered pair of streams —
  /// present and future — is monitored for the predicate families enabled
  /// in \p options, with identical events (kinds, names, order) to
  /// registering an explicit WatchPair on each pair, but Poll() cost
  /// proportional to the broad-phase candidate set instead of n². Within a
  /// pair, event order follows the canonical orientation (lexicographically
  /// smaller name first). Idempotent; calling again replaces the predicate
  /// options. A pair that is also explicitly watched reports through both
  /// paths.
  Status WatchAllPairs(const FleetWatchOptions& options = {});

  /// True once WatchAllPairs() enabled the fleet watch.
  bool fleet_watch() const { return fleet_; }

  /// \brief Unregisters a stream: evicts it from the broad-phase index,
  /// drops its fleet pair states, and retires its explicit watches —
  /// without touching unrelated pairs, so a later Poll() sees no stale
  /// events from it. Flushes pending async batches first. Fails on unknown
  /// names. The name may be re-added later as a fresh stream.
  Status RemoveStream(const std::string& name);

  /// Fleet poll telemetry (zeros until WatchAllPairs is on and polled).
  const FleetPollStats& fleet_stats() const { return fleet_stats_; }

  /// The broad-phase index's operation counters (fleet bench telemetry).
  const BroadPhase::Stats& broad_phase_stats() const {
    return broad_phase_.stats();
  }

  /// \brief Test/bench support: when set, fleet polls evaluate every
  /// possible pair instead of only the broad-phase candidates. The events
  /// must be identical either way (pruning is answer-preserving) — the
  /// differential suite and bench_fleet_poll use this as the ground-truth
  /// control at stream counts where explicit WatchPair registration is
  /// infeasible.
  void set_fleet_force_all_candidates(bool force) {
    fleet_force_all_candidates_ = force;
  }

  /// \brief Re-evaluates every watched pair and returns the certified
  /// transitions since the previous poll. The first poll establishes
  /// baselines and reports transitions from the "separable, uncontained"
  /// initial state (both taken as certified). Flushes pending async
  /// batches first, so the events reflect every point submitted before
  /// the call; after the barrier all engines are quiescent and the poll
  /// itself needs no locks.
  std::vector<PairEvent> Poll();

  /// \brief Number of times a stream's sandwich was actually rebuilt from
  /// its engine (test support for the per-generation view cache: polls and
  /// reports over unchanged streams must not re-derive geometry).
  uint64_t view_materializations() const { return view_materializations_; }

 private:
  /// Tri-state tracking of one watched predicate: the last *certified*
  /// truth value plus whether the last poll could still certify it.
  struct PredicateState {
    bool last_certified;
    bool certain = true;
  };
  struct Watch {
    std::string a, b;
    PredicateState separable{true};
    PredicateState a_in_b{false};  ///< "a contained in b".
    PredicateState b_in_a{false};  ///< "b contained in a".
  };

  /// One registered stream: a live engine (local) or the last decoded
  /// snapshot state (remote; engine stays null — remoteness is derived
  /// from that, so the two flavors cannot get out of sync). Remote
  /// streams keep the raw DecodedSummaryView rather than a materialized
  /// sandwich because v3 delta frames patch it sample-by-sample; the
  /// sandwich geometry is derived per generation by the view cache below.
  /// Sentinel for "stream not in the broad-phase index".
  static constexpr BroadPhase::Id kNoSlot = ~BroadPhase::Id{0};
  /// Sentinel generation for "never refreshed into the index".
  static constexpr uint64_t kNeverRefreshed = ~uint64_t{0};

  struct StreamEntry {
    std::unique_ptr<HullEngine> engine;
    DecodedSummaryView remote_decoded;
    bool remote() const { return engine == nullptr; }

    /// Broad-phase slot (fleet watch only); kNoSlot while the stream has
    /// never had a non-empty summary.
    BroadPhase::Id bp_id = kNoSlot;
    /// Generation the broad-phase box was last refreshed at; unchanged
    /// streams are skipped entirely by RefreshFleetIndex.
    uint64_t bp_generation = kNeverRefreshed;

    /// Single-writer strand on the pool; assigned on first async batch.
    ThreadPool::StrandId strand = static_cast<size_t>(-1);

    /// Cached sandwich, valid while the generation below matches the
    /// stream's current state (local: the engine's mutation epoch; remote:
    /// update count). Every observable engine change — insert or expiry —
    /// bumps the epoch, so a matching generation proves the cache current
    /// even for windowed engines whose point count can stand still.
    SummaryView cached_view;
    uint64_t cached_generation = 0;
    bool cache_valid = false;
    uint64_t remote_updates = 0;  ///< Remote generation counter.
    RemoteStreamStats remote_stats;  ///< Frame accounting (remote only).
    uint64_t generation() const {
      return remote() ? remote_updates : engine->Generation();
    }
  };

  /// Advances one predicate's state machine and appends any event.
  void StepPredicate(PredicateState* state, Certainty now,
                     PairEvent::Predicate predicate, bool is_separability,
                     const std::string& first, const std::string& second,
                     uint64_t poll_index, std::vector<PairEvent>* events);

  /// \brief Returns the named stream's current sandwich, or nullptr for
  /// unknown names. Serves the entry's generation-tagged cache when the
  /// stream is unchanged since the last materialization; otherwise seals a
  /// local engine (no-op for most kinds), rebuilds the sandwich once, and
  /// re-tags the cache — so a poll over a watch set touching one stream in
  /// k pairs derives its geometry once, and quiescent polls derive nothing.
  /// A stream with no points / no decoded view yet yields an empty
  /// sandwich. The pointer is valid until the stream changes.
  const SummaryView* MaterializeView(const std::string& name);

  /// Same contract as MaterializeView but on an already-resolved entry;
  /// returns whether the sandwich was actually rebuilt (vs cache-served).
  bool MaterializeEntry(StreamEntry& entry);

  /// Fleet-watch state for one pair of broad-phase slots, keyed by
  /// lo<<32|hi. Only pairs that have *deviated* from the fleet default —
  /// separable certified-true, containment certified-false both ways —
  /// hold an entry; pruned pairs certify exactly the default, so a fleet
  /// of mutually distant streams carries no per-pair state at all.
  struct FleetPairState {
    PredicateState separable{true};
    PredicateState a_in_b{false};  ///< canonical-first contained in second.
    PredicateState b_in_a{false};  ///< canonical-second contained in first.
    /// Poll index at which this pair was last a broad-phase candidate —
    /// states not stamped this poll get the certified pruned-pair answer.
    uint64_t last_candidate_poll = 0;
    bool IsDefault(const FleetWatchOptions& opts) const {
      if (opts.separability &&
          !(separable.certain && separable.last_certified)) {
        return false;
      }
      if (opts.containment &&
          !(a_in_b.certain && !a_in_b.last_certified && b_in_a.certain &&
            !b_in_a.last_certified)) {
        return false;
      }
      return true;
    }
  };

  /// Broad-phase slot back-references: which stream owns slot i. Slots of
  /// removed streams are null until the broad phase reuses them.
  struct FleetSlot {
    const std::string* name = nullptr;
    StreamEntry* entry = nullptr;
  };

  /// Re-indexes streams whose generation moved since their last refresh
  /// (materializing views in parallel when a pool is attached) and
  /// returns how many were refreshed.
  uint64_t RefreshFleetIndex();

  /// The fleet-watch half of Poll(): refresh the index, evaluate candidate
  /// pairs (in parallel when a pool is attached), merge deterministically.
  void PollFleet(uint64_t poll_index, std::vector<PairEvent>* events);

  EngineOptions options_;
  EngineKind default_kind_;
  std::map<std::string, StreamEntry> streams_;
  std::vector<Watch> watches_;
  /// Canonical-ordered name pairs of watches_, for O(log n) WatchPair
  /// idempotence instead of a linear scan.
  std::set<std::pair<std::string, std::string>> watch_index_;
  uint64_t polls_ = 0;
  uint64_t view_materializations_ = 0;
  std::unique_ptr<ThreadPool> pool_;

  bool fleet_ = false;
  FleetWatchOptions fleet_options_;
  BroadPhase broad_phase_;
  std::vector<FleetSlot> fleet_slots_;
  std::map<uint64_t, FleetPairState> fleet_states_;
  FleetPollStats fleet_stats_;
  bool fleet_force_all_candidates_ = false;
};

}  // namespace streamhull

#endif  // STREAMHULL_MULTI_STREAM_GROUP_H_
