#include "multi/stream_group.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "runtime/parallel_for.h"

namespace streamhull {

Status StreamGroup::AddStream(const std::string& name) {
  return AddStream(name, default_kind_);
}

Status StreamGroup::AddStream(const std::string& name, EngineKind kind) {
  if (name.empty()) return Status::InvalidArgument("empty stream name");
  if (streams_.count(name) > 0) {
    return Status::InvalidArgument("stream '" + name + "' already exists");
  }
  STREAMHULL_RETURN_IF_ERROR(options_.Validate(kind));
  StreamEntry entry;
  entry.engine = MakeEngine(kind, options_);
  streams_.emplace(name, std::move(entry));
  return Status::OK();
}

Status StreamGroup::AddRemoteStream(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty stream name");
  if (streams_.count(name) > 0) {
    return Status::InvalidArgument("stream '" + name + "' already exists");
  }
  streams_.emplace(name, StreamEntry{});  // No engine: a remote stream.
  return Status::OK();
}

Status StreamGroup::UpdateRemoteStream(const std::string& name,
                                       std::string_view bytes) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::InvalidArgument("unknown stream '" + name + "'");
  }
  StreamEntry& entry = it->second;
  if (!entry.remote()) {
    return Status::FailedPrecondition("stream '" + name +
                                      "' is local; feed it points instead");
  }
  RemoteStreamStats& stats = entry.remote_stats;
  if (SnapshotVersion(bytes) == 3) {
    // Delta frame: patch the held view in place. ApplySummaryDelta is
    // atomic (the view survives any failure), and a generation gap comes
    // back as FailedPrecondition — the caller's cue to fetch a full frame.
    // Each protocol outcome lands in its own counter: a chain break is a
    // resync owed by the producer, a malformed frame is a rejection.
    if (entry.remote_updates == 0) {
      ++stats.resyncs_needed;
      return Status::FailedPrecondition(
          "stream '" + name +
          "' holds no view to patch; send a full v2 snapshot first");
    }
    Status st = ApplySummaryDelta(bytes, &entry.remote_decoded);
    if (!st.ok()) {
      if (st.code() == StatusCode::kFailedPrecondition) {
        ++stats.resyncs_needed;
      } else {
        ++stats.rejected_frames;
      }
      return st;
    }
    ++stats.delta_frames;
  } else {
    DecodedSummaryView decoded;
    Status st = DecodeSummaryView(bytes, &decoded);
    if (!st.ok()) {
      ++stats.rejected_frames;
      return st;
    }
    entry.remote_decoded = std::move(decoded);
    ++stats.full_frames;
  }
  stats.held_generation = entry.remote_decoded.generation;
  ++entry.remote_updates;  // Invalidates the generation-tagged cache.
  return Status::OK();
}

Status StreamGroup::RemoteStats(const std::string& name,
                                RemoteStreamStats* out) const {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::InvalidArgument("unknown stream '" + name + "'");
  }
  if (!it->second.remote()) {
    return Status::FailedPrecondition("stream '" + name +
                                      "' is local; it receives no frames");
  }
  *out = it->second.remote_stats;
  return Status::OK();
}

Status StreamGroup::RemoteView(const std::string& name,
                               DecodedSummaryView* out) const {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::InvalidArgument("unknown stream '" + name + "'");
  }
  if (!it->second.remote()) {
    return Status::FailedPrecondition("stream '" + name +
                                      "' is local; it holds no decoded view");
  }
  if (it->second.remote_updates == 0) {
    return Status::FailedPrecondition("stream '" + name +
                                      "' has not decoded a view yet");
  }
  *out = it->second.remote_decoded;
  return Status::OK();
}

Status StreamGroup::Insert(const std::string& name, Point2 p) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::InvalidArgument("unknown stream '" + name + "'");
  }
  if (it->second.remote()) {
    return Status::FailedPrecondition(
        "stream '" + name + "' is remote; its points live on the producer");
  }
  // A pool worker may be mid-batch inside this engine; the barrier restores
  // the single-writer invariant before the synchronous touch.
  Flush();
  it->second.engine->Insert(p);
  return Status::OK();
}

Status StreamGroup::InsertBatch(const std::string& name,
                                std::span<const Point2> points) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::InvalidArgument("unknown stream '" + name + "'");
  }
  if (it->second.remote()) {
    return Status::FailedPrecondition(
        "stream '" + name + "' is remote; its points live on the producer");
  }
  Flush();
  it->second.engine->InsertBatch(points);
  return Status::OK();
}

void StreamGroup::SetParallelism(size_t num_threads) {
  SH_CHECK(pool_ == nullptr && "parallelism already enabled");
  pool_ = std::make_unique<ThreadPool>(num_threads);
}

Status StreamGroup::InsertBatchAsync(const std::string& name,
                                     std::vector<Point2> points) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::InvalidArgument("unknown stream '" + name + "'");
  }
  StreamEntry& entry = it->second;
  if (entry.remote()) {
    return Status::FailedPrecondition(
        "stream '" + name + "' is remote; its points live on the producer");
  }
  if (pool_ == nullptr) {  // Parallelism off: plain batched ingestion.
    entry.engine->InsertBatch(points);
    return Status::OK();
  }
  if (entry.strand == static_cast<size_t>(-1)) {
    entry.strand = pool_->AddStrand();
  }
  // The engine pointer is stable (owned by the map node) and the strand is
  // its only writer until the next Flush(); the batch owns its points.
  HullEngine* engine = entry.engine.get();
  pool_->Post(entry.strand, [engine, pts = std::move(points)] {
    engine->InsertBatch(pts);
  });
  return Status::OK();
}

void StreamGroup::Flush() {
  if (pool_ != nullptr) pool_->WaitIdle();
}

const HullEngine* StreamGroup::Hull(const std::string& name) const {
  auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second.engine.get();
}

bool StreamGroup::IsRemote(const std::string& name) const {
  auto it = streams_.find(name);
  return it != streams_.end() && it->second.remote();
}

Status StreamGroup::View(const std::string& name, SummaryView* out) {
  const SummaryView* view = MaterializeView(name);
  if (view == nullptr) {
    return Status::InvalidArgument("unknown stream '" + name + "'");
  }
  *out = *view;
  return Status::OK();
}

std::vector<std::string> StreamGroup::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, entry] : streams_) names.push_back(name);
  return names;
}

AdaptiveHullStats StreamGroup::AggregateIngestStats() const {
  AdaptiveHullStats total;
  for (const auto& [name, entry] : streams_) {
    if (entry.remote()) continue;
    total += entry.engine->stats();
  }
  return total;
}

bool StreamGroup::MaterializeEntry(StreamEntry& entry) {
  const uint64_t generation = entry.generation();
  if (entry.cache_valid && entry.cached_generation == generation) {
    return false;
  }
  if (entry.remote()) {
    entry.cached_view = entry.remote_updates == 0
                            ? SummaryView()
                            : entry.remote_decoded.View();
  } else {
    HullEngine& engine = *entry.engine;
    engine.Seal();
    entry.cached_view = engine.empty() ? SummaryView() : SummaryView(engine);
  }
  entry.cached_generation = generation;
  entry.cache_valid = true;
  return true;
}

const SummaryView* StreamGroup::MaterializeView(const std::string& name) {
  auto it = streams_.find(name);
  if (it == streams_.end()) return nullptr;
  if (MaterializeEntry(it->second)) ++view_materializations_;
  return &it->second.cached_view;
}

Status StreamGroup::Report(const std::string& a, const std::string& b,
                           PairReport* out) {
  Flush();  // Quiesce async ingestion before reading engines.
  const SummaryView* va = MaterializeView(a);
  if (va == nullptr) {
    return Status::InvalidArgument("unknown stream '" + a + "'");
  }
  const SummaryView* vb = MaterializeView(b);
  if (vb == nullptr) {
    return Status::InvalidArgument("unknown stream '" + b + "'");
  }
  if (va->empty() || vb->empty()) {
    return Status::FailedPrecondition(
        "both streams need at least one point (or one decoded view)");
  }
  PairReport report;
  const CertifiedSeparationResult sep = CertifiedSeparation(*va, *vb);
  report.distance = sep.distance;
  report.separable = sep.separable;
  report.overlap_area = CertifiedOverlapArea(*va, *vb);
  report.a_contains_b = CertifiedContainment(*vb, *va).contained;
  report.b_contains_a = CertifiedContainment(*va, *vb).contained;
  *out = report;
  return Status::OK();
}

Status StreamGroup::WatchPair(const std::string& a, const std::string& b) {
  if (streams_.count(a) == 0) {
    return Status::InvalidArgument("unknown stream '" + a + "'");
  }
  if (streams_.count(b) == 0) {
    return Status::InvalidArgument("unknown stream '" + b + "'");
  }
  if (a == b) return Status::InvalidArgument("cannot watch a stream against itself");
  // Canonical-ordered set membership, not a scan of watches_ — registering
  // k watches is O(k log k), which is what lets the differential suite
  // build explicit all-pairs control groups at hundreds of streams.
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  if (!watch_index_.insert(std::move(key)).second) {
    return Status::OK();  // Idempotent.
  }
  watches_.push_back(Watch{a, b});
  return Status::OK();
}

Status StreamGroup::WatchAllPairs(const FleetWatchOptions& options) {
  if (!options.separability && !options.containment) {
    return Status::InvalidArgument(
        "a fleet watch needs at least one predicate family enabled");
  }
  fleet_ = true;
  fleet_options_ = options;
  return Status::OK();
}

Status StreamGroup::RemoveStream(const std::string& name) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::InvalidArgument("unknown stream '" + name + "'");
  }
  // The engine may be mid-batch on a pool worker; quiesce before tearing
  // it down. (The stream's strand, if any, simply stays idle — strands are
  // cheap and the pool has no strand retirement.)
  Flush();
  StreamEntry& entry = it->second;
  if (entry.bp_id != kNoSlot) {
    const BroadPhase::Id id = entry.bp_id;
    broad_phase_.Remove(id);
    fleet_slots_[id] = FleetSlot{};
    // Retire this slot's fleet pair states before the broad phase can ever
    // reuse the slot id — unrelated pairs keep their state untouched.
    for (auto s = fleet_states_.begin(); s != fleet_states_.end();) {
      const BroadPhase::Id lo = static_cast<BroadPhase::Id>(s->first >> 32);
      const BroadPhase::Id hi = static_cast<BroadPhase::Id>(s->first);
      if (lo == id || hi == id) {
        s = fleet_states_.erase(s);
      } else {
        ++s;
      }
    }
  }
  std::erase_if(watches_,
                [&](const Watch& w) { return w.a == name || w.b == name; });
  std::erase_if(watch_index_, [&](const std::pair<std::string, std::string>&
                                      p) { return p.first == name ||
                                                  p.second == name; });
  streams_.erase(it);
  return Status::OK();
}

void StreamGroup::StepPredicate(PredicateState* state, Certainty now,
                                PairEvent::Predicate predicate,
                                bool is_separability,
                                const std::string& first,
                                const std::string& second,
                                uint64_t poll_index,
                                std::vector<PairEvent>* events) {
  if (now == Certainty::kUnknown) {
    // Entered (or stayed in) the uncertainty band: report the loss once,
    // keep the last certified value, and never emit value transitions off
    // uncertified data — this is what eliminates flapping.
    if (state->certain) {
      events->push_back(PairEvent{PairEvent::Kind::kCertaintyLost, predicate,
                                  first, second, poll_index});
      state->certain = false;
    }
    return;
  }
  const bool value = now == Certainty::kTrue;
  const bool was_certain = state->certain;
  state->certain = true;
  if (value != state->last_certified) {
    state->last_certified = value;
    PairEvent::Kind kind;
    if (is_separability) {
      kind = value ? PairEvent::Kind::kSeparabilityGained
                   : PairEvent::Kind::kSeparabilityLost;
    } else {
      kind = value ? PairEvent::Kind::kContainmentStarted
                   : PairEvent::Kind::kContainmentEnded;
    }
    events->push_back(PairEvent{kind, predicate, first, second, poll_index});
  } else if (!was_certain) {
    events->push_back(PairEvent{PairEvent::Kind::kCertaintyGained, predicate,
                                first, second, poll_index});
  }
}

std::vector<PairEvent> StreamGroup::Poll() {
  Flush();  // Barrier: engines are quiescent for the whole poll, so the
            // per-stream view caches below need no locks.
  std::vector<PairEvent> events;
  const uint64_t poll_index = polls_++;
  // One sandwich per involved stream per *generation*, not per pair or even
  // per poll: MaterializeView serves the entry's generation-tagged cache,
  // so watches sharing a stream reuse its geometry and a poll over
  // unchanged streams re-derives nothing at all.
  auto view_of = [&](const std::string& name) -> const SummaryView* {
    const SummaryView* v = MaterializeView(name);
    return (v == nullptr || v->empty()) ? nullptr : v;
  };
  for (Watch& w : watches_) {
    // Only the three tri-state predicates feed the state machines; the
    // interval fields of a full Report are not computed here.
    const SummaryView* va = view_of(w.a);
    const SummaryView* vb = view_of(w.b);
    if (va == nullptr || vb == nullptr) continue;  // Streams still empty.
    StepPredicate(&w.separable, CertifiedSeparation(*va, *vb).separable,
                  PairEvent::Predicate::kSeparability,
                  /*is_separability=*/true, w.a, w.b, poll_index, &events);
    StepPredicate(&w.a_in_b, CertifiedContainment(*va, *vb).contained,
                  PairEvent::Predicate::kContainment,
                  /*is_separability=*/false, w.a, w.b, poll_index, &events);
    StepPredicate(&w.b_in_a, CertifiedContainment(*vb, *va).contained,
                  PairEvent::Predicate::kContainment,
                  /*is_separability=*/false, w.b, w.a, poll_index, &events);
  }
  if (fleet_) PollFleet(poll_index, &events);
  return events;
}

uint64_t StreamGroup::RefreshFleetIndex() {
  // Pass 1 (sequential): find the streams whose generation moved since
  // their last indexing — on a quiescent fleet this finds nothing and the
  // whole refresh is one counter comparison per stream.
  struct Pending {
    const std::string* name;
    StreamEntry* entry;
    uint64_t gen;
  };
  std::vector<Pending> pending;
  for (auto& [name, entry] : streams_) {
    const uint64_t gen = entry.generation();
    if (entry.bp_generation != gen) pending.push_back({&name, &entry, gen});
  }
  if (pending.empty()) return 0;

  // Pass 2 (parallel): materialize each changed stream's sandwich and its
  // outer-hull box. Distinct indices touch distinct entries, and every
  // write lands in an index-addressed slot, so the pass is deterministic
  // and the later sequential apply sees identical inputs at any thread
  // count. view_materializations_ is shared, hence the rebuilt[] relay.
  std::vector<Aabb> boxes(pending.size());
  std::vector<uint8_t> nonempty(pending.size());
  std::vector<uint8_t> rebuilt(pending.size());
  ParallelFor(pool_.get(), pending.size(), /*min_chunk=*/8, [&](size_t i) {
    StreamEntry& entry = *pending[i].entry;
    rebuilt[i] = MaterializeEntry(entry) ? 1 : 0;
    nonempty[i] = entry.cached_view.empty() ? 0 : 1;
    if (nonempty[i]) boxes[i] = BoundingBoxOf(entry.cached_view.outer());
  });

  // Pass 3 (sequential, name order): apply to the index. Slot assignment
  // order is deterministic because pending is in map (name) order.
  uint64_t refreshed = 0;
  for (size_t i = 0; i < pending.size(); ++i) {
    view_materializations_ += rebuilt[i];
    StreamEntry& entry = *pending[i].entry;
    if (nonempty[i]) {
      if (entry.bp_id == kNoSlot) {
        entry.bp_id = broad_phase_.Add(boxes[i]);
        if (entry.bp_id >= fleet_slots_.size()) {
          fleet_slots_.resize(entry.bp_id + 1);
        }
        fleet_slots_[entry.bp_id] = FleetSlot{pending[i].name, pending[i].entry};
      } else {
        broad_phase_.Update(entry.bp_id, boxes[i]);
      }
      ++refreshed;
    } else if (entry.bp_id != kNoSlot) {
      // Defensive: no engine shrinks back to empty today, but if one ever
      // does the index must not keep certifying from a stale box.
      broad_phase_.Remove(entry.bp_id);
      fleet_slots_[entry.bp_id] = FleetSlot{};
      entry.bp_id = kNoSlot;
    }
    entry.bp_generation = pending[i].gen;
  }
  return refreshed;
}

void StreamGroup::PollFleet(uint64_t poll_index,
                            std::vector<PairEvent>* events) {
  const size_t events_before = events->size();
  const uint64_t refreshed = RefreshFleetIndex();

  // The candidate pair set: normally the broad phase's sweep output; under
  // the force-all test hook, every live pair — the ground-truth control the
  // differential suite compares against.
  std::vector<std::pair<BroadPhase::Id, BroadPhase::Id>> forced;
  const std::vector<std::pair<BroadPhase::Id, BroadPhase::Id>>* candidates;
  if (fleet_force_all_candidates_) {
    const BroadPhase::Id end = static_cast<BroadPhase::Id>(fleet_slots_.size());
    for (BroadPhase::Id a = 0; a < end; ++a) {
      if (!broad_phase_.alive(a)) continue;
      for (BroadPhase::Id b = a + 1; b < end; ++b) {
        if (broad_phase_.alive(b)) forced.emplace_back(a, b);
      }
    }
    candidates = &forced;
  } else {
    candidates = &broad_phase_.Candidates();
  }

  // Narrow phase, fanned out over the runtime pool. Bodies only read
  // sandwiches RefreshFleetIndex already materialized and write their own
  // index-addressed outcome slot, so the outcome vector is bit-identical
  // at any thread count; all ordering below is sequential.
  struct Outcome {
    Certainty sep = Certainty::kUnknown;
    Certainty ab = Certainty::kUnknown;
    Certainty ba = Certainty::kUnknown;
  };
  std::vector<Outcome> outcomes(candidates->size());
  ParallelFor(pool_.get(), candidates->size(), /*min_chunk=*/32,
              [&](size_t i) {
    const auto [ia, ib] = (*candidates)[i];
    const FleetSlot& sa = fleet_slots_[ia];
    const FleetSlot& sb = fleet_slots_[ib];
    // Canonical orientation: lexicographically smaller name first, so a
    // pair's events match an explicit WatchPair(min_name, max_name).
    const bool a_first = *sa.name < *sb.name;
    const SummaryView& va =
        a_first ? sa.entry->cached_view : sb.entry->cached_view;
    const SummaryView& vb =
        a_first ? sb.entry->cached_view : sa.entry->cached_view;
    Outcome& o = outcomes[i];
    if (fleet_options_.separability) {
      o.sep = CertifiedSeparation(va, vb).separable;
    }
    if (fleet_options_.containment) {
      o.ab = CertifiedContainment(va, vb).contained;
      o.ba = CertifiedContainment(vb, va).contained;
    }
  });

  // Deterministic merge, stage 1: candidates in candidate order. The pair
  // state map is sparse — the fleet default (separable certified-true,
  // containment certified-false) holds no entry, so a candidate whose
  // outcome *is* the default and that holds no state steps nothing: a
  // default-initialized state machine fed its own value emits no event.
  const uint64_t stamp = poll_index + 1;  // 0 means "never a candidate".
  for (size_t i = 0; i < candidates->size(); ++i) {
    const auto [ia, ib] = (*candidates)[i];
    const Outcome& o = outcomes[i];
    const bool is_default =
        (!fleet_options_.separability || o.sep == Certainty::kTrue) &&
        (!fleet_options_.containment ||
         (o.ab == Certainty::kFalse && o.ba == Certainty::kFalse));
    const uint64_t key = (static_cast<uint64_t>(ia) << 32) | ib;
    auto it = fleet_states_.find(key);
    if (it == fleet_states_.end()) {
      if (is_default) continue;
      it = fleet_states_.emplace(key, FleetPairState{}).first;
    }
    FleetPairState& st = it->second;
    st.last_candidate_poll = stamp;
    const FleetSlot& sa = fleet_slots_[ia];
    const FleetSlot& sb = fleet_slots_[ib];
    const bool a_first = *sa.name < *sb.name;
    const std::string& na = a_first ? *sa.name : *sb.name;
    const std::string& nb = a_first ? *sb.name : *sa.name;
    if (fleet_options_.separability) {
      StepPredicate(&st.separable, o.sep, PairEvent::Predicate::kSeparability,
                    /*is_separability=*/true, na, nb, poll_index, events);
    }
    if (fleet_options_.containment) {
      StepPredicate(&st.a_in_b, o.ab, PairEvent::Predicate::kContainment,
                    /*is_separability=*/false, na, nb, poll_index, events);
      StepPredicate(&st.b_in_a, o.ba, PairEvent::Predicate::kContainment,
                    /*is_separability=*/false, nb, na, poll_index, events);
    }
    if (st.IsDefault(fleet_options_)) fleet_states_.erase(it);
  }

  // Deterministic merge, stage 2: active states the broad phase pruned
  // this poll. Pruning certified their exact answer — boxes strictly
  // disjoint beyond the margin force separable kTrue and containment
  // kFalse both ways (an outer-hull gap is a fortiori an inner/outer gap)
  // — so the state machines are fed that answer with zero geometry. This
  // is what makes pruning answer-identical to brute force rather than a
  // heuristic. One such step always lands the state back on the fleet
  // default, so the map self-cleans.
  const uint64_t active_states = fleet_states_.size();
  for (auto it = fleet_states_.begin(); it != fleet_states_.end();) {
    FleetPairState& st = it->second;
    if (st.last_candidate_poll == stamp) {
      ++it;
      continue;
    }
    const BroadPhase::Id ia = static_cast<BroadPhase::Id>(it->first >> 32);
    const BroadPhase::Id ib = static_cast<BroadPhase::Id>(it->first);
    const FleetSlot& sa = fleet_slots_[ia];
    const FleetSlot& sb = fleet_slots_[ib];
    const bool a_first = *sa.name < *sb.name;
    const std::string& na = a_first ? *sa.name : *sb.name;
    const std::string& nb = a_first ? *sb.name : *sa.name;
    if (fleet_options_.separability) {
      StepPredicate(&st.separable, Certainty::kTrue,
                    PairEvent::Predicate::kSeparability,
                    /*is_separability=*/true, na, nb, poll_index, events);
    }
    if (fleet_options_.containment) {
      StepPredicate(&st.a_in_b, Certainty::kFalse,
                    PairEvent::Predicate::kContainment,
                    /*is_separability=*/false, na, nb, poll_index, events);
      StepPredicate(&st.b_in_a, Certainty::kFalse,
                    PairEvent::Predicate::kContainment,
                    /*is_separability=*/false, nb, na, poll_index, events);
    }
    it = st.IsDefault(fleet_options_) ? fleet_states_.erase(it) : ++it;
  }

  const uint64_t n = broad_phase_.size();
  fleet_stats_.last_streams = n;
  fleet_stats_.last_possible_pairs = n * (n - 1) / 2;
  fleet_stats_.last_candidates = candidates->size();
  fleet_stats_.last_pairs_evaluated = candidates->size();
  fleet_stats_.last_streams_refreshed = refreshed;
  fleet_stats_.last_active_states = active_states;
  fleet_stats_.last_events = events->size() - events_before;
  fleet_stats_.total_candidates += fleet_stats_.last_candidates;
  fleet_stats_.total_pairs_evaluated += fleet_stats_.last_pairs_evaluated;
  fleet_stats_.total_events += fleet_stats_.last_events;
  ++fleet_stats_.fleet_polls;
}

}  // namespace streamhull
