// perfbench workload `ingest-accept`.
//
// Why: the accept path does nearly all the work here — refinement, the
// skip list, the bucket queue, per-accept allocations and windowed bucket
// warm-up — while the SIMD prefilter, `multi` and `server` do none. This is
// where the flat-uniform, accept-path and windowed ROADMAP items must show.
//
// Loop: one thread, a fixed point corpus materialized in set-up
// (one 4000-point SpiralGenerator stream: every point is a hull vertex;
// four 2000-point DriftWalkGenerator streams: the hull keeps growing).
// The walks have fixed shapes that the seed rotates and shifts: different
// walks per seed changed the accepted points, and with them the
// throughput, by up to 15% between seeds; rotated ones by under 0.5%.
// Engines of kind uniform, adaptive and windowed (inner adaptive, count
// window of 1000 points in 8 buckets, so buckets roll over many times) at
// r in {16, 64} each ingest every corpus stream, alternating 500-point
// chunks of per-point Insert and one InsertBatch.
// A round (one timed step) feeds all 30 engine/stream pairs; throughput
// takes each pair's every chunk at its fastest round, after one untimed
// warm-up round.
//
// cert_diam_rel_width averages the certified diameter's relative width over
// the spiral's checkpoints (every kind, both r): the drift walks' widths
// swing with the shape each walk takes, so they are reported per layer.
//
// Checks: every 1000 points, the certified extents in 16 fixed directions
// must bracket the exact extents of the points the summary covers (the
// whole prefix, or for windowed the last 1000 points), computed from the
// corpus in set-up; and every round must reproduce the first round's
// certified-diameter widths exactly.

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/hull_engine.h"
#include "queries/certified.h"
#include "stream/generators.h"
#include "trace.h"

namespace perfbench {

namespace {

using streamhull::CertifiedDiameter;
using streamhull::CertifiedExtent;
using streamhull::EngineKind;
using streamhull::EngineOptions;
using streamhull::HullEngine;
using streamhull::Point2;
using streamhull::SummaryView;

constexpr size_t kSpiralPoints = 4000;
constexpr size_t kDriftPoints = 2000;
constexpr int kDriftWalks = 4;
constexpr size_t kChunk = 500;
constexpr size_t kCheckpointEvery = 1000;
constexpr uint64_t kWindowPoints = 1000;
constexpr int kDirections = 16;
constexpr uint32_t kRs[] = {16, 64};
constexpr EngineKind kKinds[] = {EngineKind::kUniform, EngineKind::kAdaptive,
                                 EngineKind::kWindowed};
constexpr int kNumKinds = 3;
constexpr int kSetupRepeats = 3;

using Extents = std::array<double, kDirections>;

Point2 CheckDirection(int d) {
  // Offset from the engines' sample directions, so the inner and outer
  // extents genuinely differ.
  return streamhull::UnitVector((d + 0.37) * 2 * M_PI / kDirections);
}

/// One corpus stream plus the exact extents at every checkpoint.
struct Corpus {
  std::vector<Point2> points;
  std::vector<Extents> prefix;  ///< Extent of points [0, i) per checkpoint.
  std::vector<Extents> window;  ///< Extent of the last kWindowPoints.
};

Extents ExtentsOf(std::span<const Point2> pts) {
  Extents out{};
  for (int d = 0; d < kDirections; ++d) {
    const Point2 u = CheckDirection(d).Normalized();
    double lo = INFINITY, hi = -INFINITY;
    for (const Point2& p : pts) {
      const double v = streamhull::Dot(p, u);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    out[static_cast<size_t>(d)] = hi - lo;
  }
  return out;
}

Corpus BuildCorpus(std::vector<Point2> points) {
  Corpus c;
  c.points = std::move(points);
  for (size_t end = kCheckpointEvery; end <= c.points.size();
       end += kCheckpointEvery) {
    const std::span<const Point2> all(c.points);
    c.prefix.push_back(ExtentsOf(all.first(end)));
    c.window.push_back(
        ExtentsOf(all.subspan(end - kWindowPoints, kWindowPoints)));
  }
  return c;
}

std::vector<Corpus> BuildCorpora(uint64_t seed) {
  std::vector<Corpus> out;
  streamhull::SpiralGenerator spiral(seed ^ 0x5a17ULL);
  out.push_back(BuildCorpus(spiral.Take(kSpiralPoints)));
  // Several walks of fixed shapes, each rotated and shifted by the seed.
  streamhull::Rng rng(seed * 0x9e3779b97f4a7c15ULL);
  for (int w = 0; w < kDriftWalks; ++w) {
    streamhull::DriftWalkGenerator drift(0xd51f7ULL + static_cast<uint64_t>(w));
    const Point2 shift{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    const Point2 u = streamhull::UnitVector(rng.Uniform(0, 2 * M_PI));
    std::vector<Point2> points = drift.Take(kDriftPoints);
    for (Point2& p : points) {
      p = Point2{u.x * p.x - u.y * p.y, u.y * p.x + u.x * p.y} + shift;
    }
    out.push_back(BuildCorpus(std::move(points)));
  }
  return out;
}

EngineOptions OptionsFor(EngineKind kind, uint32_t r) {
  EngineOptions o;
  o.hull.r = r;
  if (kind == EngineKind::kWindowed) {
    o.window_points = kWindowPoints;
    o.window_buckets = 8;
    o.window_inner_kind = EngineKind::kAdaptive;
  }
  return o;
}

struct KindTotals {
  uint64_t points = 0;
  int64_t ns = 0;  ///< Wall time inside Insert/InsertBatch.
  uint64_t processed = 0, discarded = 0, deleted = 0, refined = 0;
  uint64_t allocs = 0;
};

struct RoundResult {
  std::array<KindTotals, kNumKinds> kinds;
  /// Wall time inside Insert/InsertBatch per chunk of every engine/stream
  /// pair, in the round's fixed order, and the kind index of each.
  std::vector<int64_t> chunk_ns;
  std::vector<int> chunk_kind;
  std::vector<double> rel_widths;  ///< (hi-lo)/hi per spiral checkpoint.
  std::vector<double> drift_rel_widths;  ///< The same on the drift walks.
  double wall_s = 0;
};

const char* kInsertSpan[] = {"core.insert.uniform", "core.insert.adaptive",
                             "core.insert.windowed"};
const char* kBatchSpan[] = {"core.insert_batch.uniform",
                            "core.insert_batch.adaptive",
                            "core.insert_batch.windowed"};

void Checkpoint(const HullEngine& engine, bool windowed, bool spiral,
                const Corpus& corpus, size_t index, RoundResult* round,
                Report* report) {
  SummaryView view;
  {
    Span s("core.summary_view");
    view = SummaryView(engine);
  }
  streamhull::CertifiedScalar diam;
  {
    Span s("queries.cert_diameter");
    diam = CertifiedDiameter(view);
  }
  const double hi = diam.value.hi;
  (spiral ? round->rel_widths : round->drift_rel_widths)
      .push_back(hi > 0 ? (hi - diam.value.lo) / hi : 0);
  const Extents& exact =
      windowed ? corpus.window[index] : corpus.prefix[index];
  for (int d = 0; d < kDirections; ++d) {
    streamhull::Interval got;
    {
      Span s("queries.cert_extent");
      got = CertifiedExtent(view, CheckDirection(d));
    }
    const double truth = exact[static_cast<size_t>(d)];
    const double eps = 1e-9 * std::max(1.0, std::abs(truth));
    ++report->attempted;
    if (!(got.lo <= truth + eps && truth - eps <= got.hi)) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "ingest-accept: %s r=%u checkpoint %zu dir %d: extent "
                    "[%.17g, %.17g] misses exact %.17g",
                    streamhull::EngineKindName(engine.kind()), engine.r(),
                    index, d, got.lo, got.hi, truth);
      report->Violation(buf);
    }
  }
}

RoundResult RunRound(const std::vector<Corpus>& corpora, bool traced,
                     Report* report) {
  RoundResult round;
  const int64_t start = NowNs();
  for (const Corpus& corpus : corpora) {
    for (uint32_t r : kRs) {
      for (int k = 0; k < kNumKinds; ++k) {
        const EngineKind kind = kKinds[k];
        std::unique_ptr<HullEngine> engine;
        {
          Span s("core.make_engine");
          engine = streamhull::MakeEngine(kind, OptionsFor(kind, r));
        }
        KindTotals& tot = round.kinds[static_cast<size_t>(k)];
        const std::span<const Point2> pts(corpus.points);
        for (size_t begin = 0, chunk = 0; begin < pts.size();
             begin += kChunk, ++chunk) {
          const std::span<const Point2> part = pts.subspan(begin, kChunk);
          const bool batched = chunk % 2 == 1;
          if (traced) SetAllocCounting(true);
          const int64_t t0 = NowNs();
          if (batched) {
            Span s(kBatchSpan[k]);
            engine->InsertBatch(part);
          } else {
            Span s(kInsertSpan[k]);
            for (const Point2& p : part) engine->Insert(p);
          }
          const int64_t chunk_ns = NowNs() - t0;
          tot.ns += chunk_ns;
          round.chunk_ns.push_back(chunk_ns);
          round.chunk_kind.push_back(k);
          if (traced) {
            tot.allocs += AllocCount();
            SetAllocCounting(false);
          }
          tot.points += part.size();
          const size_t end = begin + part.size();
          if (end % kCheckpointEvery == 0) {
            Checkpoint(*engine, kind == EngineKind::kWindowed,
                       &corpus == &corpora.front(), corpus,
                       end / kCheckpointEvery - 1, &round, report);
          }
        }
        const streamhull::AdaptiveHullStats& st = engine->stats();
        tot.processed += st.points_processed;
        tot.discarded += st.points_discarded;
        tot.deleted += st.vertices_deleted;
        tot.refined += st.directions_refined;
      }
    }
  }
  round.wall_s = SecondsSince(start);
  return round;
}

uint64_t Accepted(const KindTotals& t) { return t.processed - t.discarded; }

double PtsPerSec(const KindTotals& t) {
  return t.ns > 0 ? static_cast<double>(t.points) * 1e9 /
                        static_cast<double>(t.ns)
                  : 0;
}

class IngestAccept final : public Loop {
 public:
  IngestAccept(const RunSettings& settings, Report* report)
      : settings_(settings), report_(report) {}

  void Prepare() override {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const int64_t t0 = NowNs();
      corpora_ = BuildCorpora(settings_.seed);
      setup_s_.push_back(SecondsSince(t0));
    }
    // Warm-up: the first round pays for cold caches and a growing heap.
    (void)RunRound(corpora_, /*traced=*/false, report_);
  }

  void Step() override {
    rounds_.push_back(RunRound(corpora_, /*traced=*/false, report_));
  }

  bool Enough() const override { return rounds_.size() >= 3; }

  void Finish() override;
  void Trace() override;

 private:
  const RunSettings& settings_;
  Report* report_;
  std::vector<Corpus> corpora_;
  std::vector<RoundResult> rounds_;  ///< Untraced rounds.
};

void IngestAccept::Finish() {
  Report* report = report_;
  const std::vector<RoundResult>& rounds = rounds_;
  double timed_s = 0;
  for (const RoundResult& r : rounds) timed_s += r.wall_s;
  for (const RoundResult& r : rounds) {
    if (r.rel_widths != rounds.front().rel_widths ||
        r.drift_rel_widths != rounds.front().drift_rel_widths) {
      report->Violation(
          "ingest-accept: certified diameter widths differ between rounds "
          "of the same corpus");
      break;
    }
  }
  static const char* kE2e[] = {"uniform_pts_per_s", "adaptive_pts_per_s",
                               "windowed_pts_per_s"};
  std::printf("ingest-accept: %zu rounds in %.2f s, %zu checkpoints/round\n",
              rounds.size(), timed_s,
              rounds.front().rel_widths.size() +
                  rounds.front().drift_rel_widths.size());
  for (int k = 0; k < kNumKinds; ++k) {
    // Every round feeds each engine/stream pair identical points, so a
    // chunk's times differ between rounds only by what the host took from
    // them; its fastest round is the program's own speed. A kind's rate is
    // its points over the sum of its chunks' fastest times. On a shared
    // 4-vCPU VM the median round of same-seed runs read from 0.7x to 1x of
    // each other, as slow spells came and went; the host's fast spells are
    // short, so a 1-6 ms chunk catches one more often than a whole pair.
    int64_t fastest_ns = 0;
    const RoundResult& first = rounds.front();
    for (size_t i = 0; i < first.chunk_ns.size(); ++i) {
      if (first.chunk_kind[i] != k) continue;
      int64_t best = first.chunk_ns[i];
      for (const RoundResult& r : rounds) best = std::min(best, r.chunk_ns[i]);
      fastest_ns += best;
    }
    KindTotals fastest = rounds.front().kinds[static_cast<size_t>(k)];
    fastest.ns = fastest_ns;
    report->E2e(kE2e[k], PtsPerSec(fastest), "pts/s");
    std::vector<double> rates;
    for (const RoundResult& r : rounds) {
      rates.push_back(PtsPerSec(r.kinds[static_cast<size_t>(k)]));
    }
    std::printf("  %-20s fastest chunks %.0f; rounds: fastest %.0f, median "
                "%.0f, slowest %.0f\n",
                kE2e[k], PtsPerSec(fastest),
                *std::max_element(rates.begin(), rates.end()), Median(rates),
                *std::min_element(rates.begin(), rates.end()));
  }
  report->E2e("cert_diam_rel_width", Mean(rounds.front().rel_widths), "ratio");

  const auto& first = rounds.front().kinds;
  std::printf("counts: ingest accepted/round uniform=%llu adaptive=%llu "
              "windowed=%llu\n",
              static_cast<unsigned long long>(Accepted(first[0])),
              static_cast<unsigned long long>(Accepted(first[1])),
              static_cast<unsigned long long>(Accepted(first[2])));
}

void IngestAccept::Trace() {
  Report* report = report_;
  const std::vector<RoundResult>& rounds = rounds_;
  const std::vector<Corpus>& corpora = corpora_;
  // Traced rounds: per-layer self times, allocation counts, coverage.
  Tracer& tracer = Tracer::Get();
  tracer.ResetAggregates();
  tracer.set_enabled(true);
  const size_t traced_rounds = std::min<size_t>(rounds.size(), 3);
  std::vector<RoundResult> traced;
  for (size_t i = 0; i < traced_rounds; ++i) {
    Span s("ingest.round", i);
    traced.push_back(RunRound(corpora, /*traced=*/true, report));
  }
  tracer.set_enabled(false);
  for (const RoundResult& r : traced) {
    for (int k = 0; k < kNumKinds; ++k) {
      if (Accepted(r.kinds[static_cast<size_t>(k)]) !=
          Accepted(rounds.front().kinds[static_cast<size_t>(k)])) {
        report->Violation("ingest-accept: traced round accepted other points");
      }
    }
  }

  static const char* kName[] = {"uniform", "adaptive", "windowed"};
  KindTotals sum[kNumKinds];
  double traced_wall = 0;
  for (const RoundResult& r : traced) {
    traced_wall += r.wall_s;
    for (int k = 0; k < kNumKinds; ++k) {
      const KindTotals& t = r.kinds[static_cast<size_t>(k)];
      sum[k].points += t.points;
      sum[k].processed += t.processed;
      sum[k].discarded += t.discarded;
      sum[k].deleted += t.deleted;
      sum[k].refined += t.refined;
      sum[k].allocs += t.allocs;
    }
  }
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string kind = kName[k];
    const SpanAggregate& ins = tracer.Of(kInsertSpan[k]);
    const SpanAggregate& bat = tracer.Of(kBatchSpan[k]);
    // Each span covers one kChunk-point chunk.
    const double chunk_pts = static_cast<double>(kChunk);
    report->Layer("core.insert.ns_per_pt." + kind,
                  ins.count ? static_cast<double>(ins.self_ns) /
                                  (chunk_pts * static_cast<double>(ins.count))
                            : 0,
                  "ns/pt");
    report->Layer("core.insert_batch.ns_per_pt." + kind,
                  bat.count ? static_cast<double>(bat.self_ns) /
                                  (chunk_pts * static_cast<double>(bat.count))
                            : 0,
                  "ns/pt");
    const double processed = static_cast<double>(sum[k].processed);
    report->Layer("core.accept_ratio." + kind,
                  processed > 0
                      ? 1.0 - static_cast<double>(sum[k].discarded) / processed
                      : 0,
                  "ratio");
    report->Layer("core.allocs_per_pt." + kind,
                  sum[k].points ? static_cast<double>(sum[k].allocs) /
                                      static_cast<double>(sum[k].points)
                                : 0,
                  "allocs/pt");
    if (kKinds[k] == EngineKind::kAdaptive) {
      report->Layer("core.vertices_deleted_per_pt",
                    processed > 0
                        ? static_cast<double>(sum[k].deleted) / processed
                        : 0,
                    "count/pt");
      report->Layer("core.directions_refined_per_pt",
                    processed > 0
                        ? static_cast<double>(sum[k].refined) / processed
                        : 0,
                    "count/pt");
    }
  }
  report->Layer("queries.cert_diam_rel_width.drift",
                Mean(rounds.front().drift_rel_widths), "ratio");
  report->Layer("queries.cert_diameter_us",
                tracer.Of("queries.cert_diameter").mean_us(), "us");

  double untraced_wall = 0;
  for (const RoundResult& r : rounds) untraced_wall += r.wall_s;
  const double untraced_mean =
      untraced_wall / static_cast<double>(rounds.size());
  const double traced_mean = traced_wall / static_cast<double>(traced.size());
  report->Layer("ingest.trace_overhead", traced_mean / untraced_mean - 1.0,
                "ratio");
  int64_t layer_ns = 0;
  for (const auto& [name, agg] : tracer.aggregates()) {
    if (name.rfind("core.", 0) == 0 || name.rfind("queries.", 0) == 0) {
      layer_ns += agg.self_ns;
    }
  }
  report->Layer("ingest.span_share",
                static_cast<double>(layer_ns) * 1e-9 / traced_wall, "ratio");
  std::printf("ingest-accept traced: %zu rounds, overhead %.3f, layer spans "
              "explain %.3f of round wall time\n",
              traced.size(), traced_mean / untraced_mean - 1.0,
              static_cast<double>(layer_ns) * 1e-9 / traced_wall);
}


}  // namespace

std::unique_ptr<Loop> MakeIngestAccept(const RunSettings& settings,
                                       Report* report) {
  return std::make_unique<IngestAccept>(settings, report);
}

}  // namespace perfbench
