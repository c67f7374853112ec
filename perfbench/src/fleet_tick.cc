// perfbench workload `fleet-tick`.
//
// Why: the SIMD batch prefilter, the `runtime` pool fan-out and Flush
// barrier, `broad_phase` and the fleet Poll do the work; the accept path
// does little. This is where thread-pool, prefilter and fleet/WatchPair
// changes show, and where an accept-path change must read "no change".
//
// Loop: closed, one tick after another. 2048 local adaptive (r = 16)
// streams on a 64 x 32 grid share one StreamGroup with WatchAllPairs() and
// SetParallelism(min(4, nproc)). Each tick gives every stream a 16-point
// batch from a disk around its own grid center — after the first ticks
// almost all interior. Every 64th stream is a "mover" whose center drifts
// each tick, so its hull grows and its box sweeps into its neighbours'.
// A tick is InsertBatchAsync for every stream, Flush(), then Poll(). A
// round is set-up (group, streams, watch, one priming tick) plus 100 ticks,
// run 25 ticks per timed step. Every round replays identical inputs, so
// tick i of every round does the same work: the tick percentiles are taken
// over the tick indices, each at its fastest round.
//
// Checks: every round's event stream hashes to the same value, and its
// first 30 ticks hash to what a SetParallelism(1) reference round gives
// (Poll is byte-identical at any thread count by design).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "multi/stream_group.h"
#include "trace.h"

namespace perfbench {

namespace {

using streamhull::EngineOptions;
using streamhull::PairEvent;
using streamhull::Point2;
using streamhull::StreamGroup;

constexpr int kGridW = 64;
constexpr int kGridH = 32;
constexpr int kStreams = kGridW * kGridH;
constexpr int kMoverEvery = 64;
constexpr int kBatch = 16;
constexpr int kVariants = 16;
constexpr int kTicksPerRound = 100;
constexpr int kTicksPerStep = 25;
constexpr int kRefTicks = 30;
constexpr double kSpacing = 1.0;
constexpr double kRadius = 0.3;
constexpr double kMoverStep = 0.015;

struct FleetInputs {
  std::vector<std::string> names;
  /// batches[s][i]: stream s's batch for tick i (movers: one per tick,
  /// priming tick included) or variant i % kVariants (everyone else).
  std::vector<std::vector<std::vector<Point2>>> batches;

  const std::vector<Point2>& Batch(int s, int tick) const {
    const auto& b = batches[static_cast<size_t>(s)];
    return b[static_cast<size_t>(tick) % b.size()];
  }
};

FleetInputs BuildInputs(uint64_t seed) {
  FleetInputs in;
  in.names.reserve(kStreams);
  in.batches.resize(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    char name[16];
    std::snprintf(name, sizeof(name), "s%04d", s);
    in.names.emplace_back(name);
    streamhull::Rng rng(seed * 0x9e3779b97f4a7c15ULL +
                        static_cast<uint64_t>(s));
    const Point2 center{(s % kGridW) * kSpacing, (s / kGridW) * kSpacing};
    const bool mover = s % kMoverEvery == kMoverEvery / 2;
    const double heading = rng.Uniform(0, 2 * M_PI);
    const Point2 step = streamhull::UnitVector(heading) * kMoverStep;
    const int count = mover ? kTicksPerRound + 1 : kVariants;
    auto& batches = in.batches[static_cast<size_t>(s)];
    batches.resize(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      const Point2 c = mover ? center + step * static_cast<double>(i) : center;
      auto& batch = batches[static_cast<size_t>(i)];
      batch.reserve(kBatch);
      for (int j = 0; j < kBatch; ++j) {
        // Uniform in the disk by rejection.
        Point2 p;
        do {
          p = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
        } while (p.SquaredNorm() > 1);
        batch.push_back(c + p * kRadius);
      }
    }
  }
  return in;
}

uint64_t HashEvents(uint64_t h, const std::vector<PairEvent>& events) {
  for (const PairEvent& e : events) {
    const int kinds[2] = {static_cast<int>(e.kind),
                          static_cast<int>(e.predicate)};
    h = Fnv1a(h, kinds, sizeof(kinds));
    h = Fnv1a(h, e.first.data(), e.first.size());
    h = Fnv1a(h, "|", 1);
    h = Fnv1a(h, e.second.data(), e.second.size());
    h = Fnv1a(h, &e.poll_index, sizeof(e.poll_index));
  }
  return h;
}

struct TickSample {
  double tick_ms = 0;
  double candidate_ratio = 0;
  uint64_t pairs_evaluated = 0, streams_refreshed = 0, events = 0;
};

struct RoundResult {
  double setup_s = 0;
  std::vector<TickSample> ticks;
  uint64_t hash_ref = 0;   ///< Event hash after the priming tick + kRefTicks.
  uint64_t hash_full = 0;  ///< Event hash over the whole round.
  uint64_t events = 0;
  // AggregateIngestStats() deltas over the timed ticks.
  uint64_t processed = 0, discarded = 0, prefilter = 0, simd = 0, refreshes = 0;
  // Broad-phase counter deltas over the timed ticks.
  uint64_t pairs_scanned = 0, sweeps = 0;
};

/// A round in progress: the group, its running event hash, and the counter
/// baselines taken after the priming tick.
struct Round {
  std::unique_ptr<StreamGroup> group;
  RoundResult result;
  uint64_t hash = kFnvOffset;
  int next_tick = 1;
  streamhull::AdaptiveHullStats st0;
  streamhull::BroadPhase::Stats bp0;
};

/// Set-up: the group, its streams, the fleet watch, and one priming tick.
std::unique_ptr<Round> StartRound(const FleetInputs& in, size_t threads) {
  auto round = std::make_unique<Round>();
  const int64_t setup_start = NowNs();
  EngineOptions options;
  options.hull.r = 16;
  round->group = std::make_unique<StreamGroup>(options);
  StreamGroup& group = *round->group;
  group.SetParallelism(threads);
  for (const std::string& name : in.names) (void)group.AddStream(name);
  (void)group.WatchAllPairs();
  for (int s = 0; s < kStreams; ++s) {
    (void)group.InsertBatchAsync(in.names[static_cast<size_t>(s)],
                                 in.Batch(s, 0));
  }
  const std::vector<PairEvent> events = group.Poll();
  round->hash = HashEvents(round->hash, events);
  round->result.events += events.size();
  round->result.setup_s = SecondsSince(setup_start);
  round->st0 = group.AggregateIngestStats();
  round->bp0 = group.broad_phase_stats();
  round->result.ticks.reserve(kTicksPerRound);
  return round;
}

/// Runs the round's next \p n ticks.
void RunTicks(const FleetInputs& in, Round* round, int n) {
  StreamGroup& group = *round->group;
  RoundResult& out = round->result;
  for (int i = 0; i < n; ++i) {
    const int t = round->next_tick++;
    const int64_t t0 = NowNs();
    {
      Span s("multi.insert_async", static_cast<uint64_t>(t));
      for (int j = 0; j < kStreams; ++j) {
        (void)group.InsertBatchAsync(in.names[static_cast<size_t>(j)],
                                     in.Batch(j, t));
      }
    }
    {
      Span s("runtime.flush", static_cast<uint64_t>(t));
      group.Flush();
    }
    std::vector<PairEvent> events;
    {
      Span s("multi.poll", static_cast<uint64_t>(t));
      events = group.Poll();
    }
    TickSample sample;
    sample.tick_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    const streamhull::FleetPollStats& fs = group.fleet_stats();
    sample.candidate_ratio =
        fs.last_possible_pairs
            ? static_cast<double>(fs.last_candidates) /
                  static_cast<double>(fs.last_possible_pairs)
            : 0;
    sample.pairs_evaluated = fs.last_pairs_evaluated;
    sample.streams_refreshed = fs.last_streams_refreshed;
    sample.events = events.size();
    out.ticks.push_back(sample);
    out.events += events.size();
    round->hash = HashEvents(round->hash, events);
    if (t == kRefTicks) out.hash_ref = round->hash;
  }
}

/// Final hash and counter deltas; tears the group down.
RoundResult CloseRound(std::unique_ptr<Round> round) {
  StreamGroup& group = *round->group;
  RoundResult out = std::move(round->result);
  out.hash_full = round->hash;
  const streamhull::AdaptiveHullStats st1 = group.AggregateIngestStats();
  const streamhull::BroadPhase::Stats bp1 = group.broad_phase_stats();
  const auto& st0 = round->st0;
  const auto& bp0 = round->bp0;
  out.processed = st1.points_processed - st0.points_processed;
  out.discarded = st1.points_discarded - st0.points_discarded;
  out.prefilter =
      st1.batch_prefilter_rejections - st0.batch_prefilter_rejections;
  out.simd = st1.batch_simd_rejections - st0.batch_simd_rejections;
  out.refreshes = st1.batch_cache_refreshes - st0.batch_cache_refreshes;
  out.pairs_scanned = bp1.pairs_scanned - bp0.pairs_scanned;
  out.sweeps = bp1.sweeps - bp0.sweeps;
  return out;
}

RoundResult RunRound(const FleetInputs& in, size_t threads, int ticks) {
  std::unique_ptr<Round> round = StartRound(in, threads);
  RunTicks(in, round.get(), ticks);
  return CloseRound(std::move(round));
}

std::vector<double> TickMs(const std::vector<RoundResult>& rounds) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) {
    for (const TickSample& t : r.ticks) v.push_back(t.tick_ms);
  }
  return v;
}

class FleetTick final : public Loop {
 public:
  FleetTick(const RunSettings& settings, Report* report)
      : settings_(settings),
        report_(report),
        threads_(std::min<size_t>(
            4, std::max<unsigned>(1, std::thread::hardware_concurrency()))) {}

  void Prepare() override {
    in_ = BuildInputs(settings_.seed);
    // The single-threaded reference: its event hash is the correctness
    // oracle, its tick time the runtime.serial_tick_ms baseline.
    ref_ = RunRound(in_, 1, kRefTicks);
  }

  /// One step is kTicksPerStep ticks; a round's set-up runs in the step
  /// that starts it (timed separately as set-up).
  void Step() override {
    if (current_ == nullptr) {
      current_ = StartRound(in_, threads_);
      setup_s_.push_back(current_->result.setup_s);
    }
    RunTicks(in_, current_.get(), kTicksPerStep);
    if (current_->next_tick > kTicksPerRound) {
      rounds_.push_back(CloseRound(std::move(current_)));
    }
  }

  bool Enough() const override {
    return current_ == nullptr && rounds_.size() >= 3;
  }

  void Finish() override;
  void Trace() override;

 private:
  const RunSettings& settings_;
  Report* report_;
  const size_t threads_;
  FleetInputs in_;
  RoundResult ref_;
  std::unique_ptr<Round> current_;
  std::vector<RoundResult> rounds_;
};

void FleetTick::Finish() {
  Report* report = report_;
  const std::vector<RoundResult>& rounds = rounds_;
  const RoundResult& ref = ref_;
  for (const RoundResult& r : rounds) {
    report->attempted += r.ticks.size();
    if (r.hash_ref != ref.hash_full) {
      report->Violation(
          "fleet-tick: parallel Poll events differ from the SetParallelism(1) "
          "reference over the first ticks");
    }
    if (r.hash_full != rounds.front().hash_full ||
        r.processed != rounds.front().processed) {
      report->Violation("fleet-tick: rounds on identical inputs disagree");
    }
  }
  const std::vector<double> ticks = TickMs(rounds);
  // The host only ever slows a tick down, so each tick index at its
  // fastest round is the program's own time for that tick; the slow ticks
  // that remain are the ones the inputs make slow (movers' events). Pooled
  // percentiles over all ticks moved with the host's slow spells instead:
  // the same code read p95 23 ms in one run and 51 ms in the next.
  std::vector<double> fastest(rounds.front().ticks.size());
  for (size_t i = 0; i < fastest.size(); ++i) {
    fastest[i] = rounds.front().ticks[i].tick_ms;
    for (const RoundResult& r : rounds) {
      fastest[i] = std::min(fastest[i], r.ticks[i].tick_ms);
    }
  }
  report->E2e("tick_p50_ms", Quantile(fastest, 0.50), "ms");
  report->E2e("tick_p95_ms", Quantile(fastest, 0.95), "ms");
  std::printf("fleet-tick: %zu rounds, %zu ticks (%zu beyond p95), %llu "
              "events/round, %zu threads\n",
              rounds.size(), ticks.size(), ticks.size() / 20,
              static_cast<unsigned long long>(rounds.front().events), threads_);
  std::printf("fleet-tick: all ticks pooled: p50 %.2f ms, p95 %.2f ms\n",
              Quantile(ticks, 0.50), Quantile(ticks, 0.95));
  std::printf("counts: fleet events/round=%llu accepted/round=%llu\n",
              static_cast<unsigned long long>(rounds.front().events),
              static_cast<unsigned long long>(rounds.front().processed -
                                              rounds.front().discarded));
  if (ticks.size() / 20 < 10) {
    report->Violation("fleet-tick: fewer than 10 ticks beyond p95");
  }
}

void FleetTick::Trace() {
  Report* report = report_;
  const std::vector<RoundResult>& rounds = rounds_;
  const RoundResult& ref = ref_;
  const FleetInputs& in = in_;
  const size_t threads = threads_;
  const std::vector<double> ticks = TickMs(rounds);
  Tracer& tracer = Tracer::Get();
  tracer.ResetAggregates();
  tracer.set_enabled(true);
  const int64_t traced_start = NowNs();
  RoundResult traced;
  {
    Span s("fleet.round");
    traced = RunRound(in, threads, kTicksPerRound);
  }
  const double traced_wall = SecondsSince(traced_start) - traced.setup_s;
  tracer.set_enabled(false);
  if (traced.hash_full != rounds.front().hash_full ||
      traced.processed != rounds.front().processed) {
    report->Violation(
        "fleet-tick: traced round disagrees with untraced counts");
  }

  const double n = static_cast<double>(traced.ticks.size());
  report->Layer("multi.insert_async.post_us",
                tracer.Of("multi.insert_async").mean_us(), "us");
  report->Layer("runtime.flush.wait_ms",
                tracer.Of("runtime.flush").mean_us() * 1e-3, "ms");
  report->Layer("multi.poll.ms", tracer.Of("multi.poll").mean_us() * 1e-3,
                "ms");
  const double processed = static_cast<double>(traced.processed);
  report->Layer("core.prefilter_reject_ratio",
                processed > 0
                    ? static_cast<double>(traced.prefilter) / processed
                    : 0,
                "ratio");
  report->Layer("geom.simd_reject_share",
                traced.prefilter ? static_cast<double>(traced.simd) /
                                       static_cast<double>(traced.prefilter)
                                 : 0,
                "ratio");
  report->Layer("core.cache_refreshes_per_tick",
                static_cast<double>(traced.refreshes) / n, "count");
  double cand = 0, evals = 0, refreshed = 0, events = 0;
  for (const TickSample& t : traced.ticks) {
    cand += t.candidate_ratio;
    evals += static_cast<double>(t.pairs_evaluated);
    refreshed += static_cast<double>(t.streams_refreshed);
    events += static_cast<double>(t.events);
  }
  report->Layer("multi.poll.candidate_ratio", cand / n, "ratio");
  report->Layer("multi.poll.pairs_evaluated", evals / n, "count");
  report->Layer("multi.poll.streams_refreshed", refreshed / n, "count");
  report->Layer("multi.poll.events", events / n, "count");
  report->Layer("multi.broad_phase.pairs_scanned_per_tick",
                static_cast<double>(traced.pairs_scanned) / n, "count");
  report->Layer("multi.broad_phase.sweeps",
                static_cast<double>(traced.sweeps) / n, "count");
  std::vector<double> ref_ticks;
  for (const TickSample& t : ref.ticks) ref_ticks.push_back(t.tick_ms);
  report->Layer("runtime.serial_tick_ms", Median(ref_ticks), "ms");

  double untraced_sum = 0;
  for (double t : ticks) untraced_sum += t;
  const double untraced_mean = untraced_sum / static_cast<double>(ticks.size());
  const double traced_mean = traced_wall * 1e3 / n;
  report->Layer("fleet.trace_overhead", traced_mean / untraced_mean - 1.0,
                "ratio");
  const double spans_ms = tracer.Of("multi.insert_async").total_ms() +
                          tracer.Of("runtime.flush").total_ms() +
                          tracer.Of("multi.poll").total_ms();
  report->Layer("fleet.span_share", spans_ms / (traced_wall * 1e3), "ratio");
  std::printf("fleet-tick traced: overhead %.3f, layer spans explain %.3f of "
              "tick wall time\n",
              traced_mean / untraced_mean - 1.0,
              spans_ms / (traced_wall * 1e3));
}

}  // namespace

std::unique_ptr<Loop> MakeFleetTick(const RunSettings& settings,
                                    Report* report) {
  return std::make_unique<FleetTick>(settings, report);
}

}  // namespace perfbench
