#include "core/adaptive_hull.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "common/check.h"
#include "core/snapshot.h"  // InvariantOffset (defined below).
#include "geom/convex_view.h"
#include "geom/kernels.h"

namespace streamhull {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Prefix sums of sum_{j=1..i} j / 2^j (converges to 2), used by the
// invariant-line offsets d_i of §5.3.
double LevelSeriesPrefix(uint32_t i) {
  static const std::vector<double> kPrefix = [] {
    std::vector<double> v(65, 0.0);
    for (uint32_t j = 1; j <= 64; ++j) {
      v[j] = v[j - 1] +
             static_cast<double>(j) * std::ldexp(1.0, -static_cast<int>(j));
    }
    return v;
  }();
  return kPrefix[std::min<uint32_t>(i, 64)];
}

}  // namespace

AdaptiveHull::AdaptiveHull(const AdaptiveHullOptions& options)
    : options_(options) {
  Status st = options.Validate();
  SH_CHECK(st.ok() && "invalid AdaptiveHullOptions");
  cap_ = static_cast<uint32_t>(options_.EffectiveTreeHeight());
  fixed_target_ = options_.EffectiveFixedDirections();
  roots_.assign(options_.r, -1);
  uniform_ext_.assign(options_.r, Point2{});
  leaf_heaps_.resize(cap_ + 1);
  internal_heaps_.resize(cap_ + 1);
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

int32_t AdaptiveHull::AllocNode() {
  if (!free_nodes_.empty()) {
    int32_t idx = free_nodes_.back();
    free_nodes_.pop_back();
    RefNode& n = nodes_[static_cast<size_t>(idx)];
    const uint32_t gen = n.pq_gen;
    n = RefNode{};
    n.pq_gen = gen + 1;  // Invalidate any queued entries for the old tenant.
    n.allocated = true;
    return idx;
  }
  nodes_.emplace_back();
  nodes_.back().allocated = true;
  return static_cast<int32_t>(nodes_.size() - 1);
}

void AdaptiveHull::FreeNode(int32_t idx) {
  RefNode& n = N(idx);
  SH_DCHECK(n.allocated);
  n.allocated = false;
  n.pq_gen++;
  free_nodes_.push_back(idx);
}

// ---------------------------------------------------------------------------
// Geometry helpers
// ---------------------------------------------------------------------------

double AdaptiveHull::ComputeLTilde(const Direction& lo, const Direction& hi,
                                   Point2 a, Point2 b) const {
  if (a == b) return 0.0;
  const double ab = Distance(a, b);
  const double gap = lo.CcwGapTo(hi).Radians(options_.r);
  const Point2 ua = lo.ToVector();
  const Point2 ub = hi.ToVector();
  Point2 apex;
  double lt;
  if (LineIntersection(a, a + ua.PerpCcw(), b, b + ub.PerpCcw(), &apex)) {
    lt = Distance(a, apex) + Distance(apex, b);
  } else {
    lt = ab;  // Parallel supporting lines (gap numerically 0).
  }
  // ltilde lies in [ab, ab / cos(gap/2)]; clamp against numerical blowup
  // when the supporting lines are nearly parallel.
  const double cos_half = std::cos(0.5 * gap);
  const double upper = ab / std::max(0.25, cos_half);
  if (lt < ab) lt = ab;
  if (lt > upper) lt = upper;
  return lt;
}

double AdaptiveHull::Weight(const RefNode& n) const {
  if (p_used_ <= 0) return -static_cast<double>(n.depth);
  return static_cast<double>(options_.r) * n.ltilde / p_used_ -
         static_cast<double>(n.depth);
}

double AdaptiveHull::UnrefineThreshold(const RefNode& n) const {
  // The value of P above which Weight(n) < 1.
  return static_cast<double>(options_.r) * n.ltilde /
         (1.0 + static_cast<double>(n.depth));
}

// ---------------------------------------------------------------------------
// Interval helpers (closed CCW circular intervals)
// ---------------------------------------------------------------------------

bool AdaptiveHull::InCcwInterval(const Direction& x, const Direction& lo,
                                 const Direction& hi) const {
  if (lo == hi) return x == lo;
  if (lo < hi) return !(x < lo) && !(hi < x);
  return !(x < lo) || !(hi < x);  // Wrapping interval.
}

bool AdaptiveHull::CcwIntervalsIntersect(const Direction& lo,
                                         const Direction& hi,
                                         const Direction& wf,
                                         const Direction& wl) const {
  return InCcwInterval(wf, lo, hi) || InCcwInterval(lo, wf, wl);
}

// ---------------------------------------------------------------------------
// Sample access (in the refinement trees) and run splices
// ---------------------------------------------------------------------------

AdaptiveHull::SampleRef AdaptiveHull::NextSample(SampleRef s) const {
  const uint32_t next_edge = (s.edge + 1) % options_.r;
  int32_t x;
  if (s.node < 0) {
    x = roots_[s.edge];
  } else if (N(N(s.node).right).IsInternal()) {
    x = N(s.node).right;
  } else {
    // The nearest ancestor holding s in its left subtree, if any.
    const Direction& d = N(s.node).mid;
    int32_t succ = -1;
    for (int32_t a = roots_[s.edge]; a != s.node;) {
      if (d < N(a).mid) {
        succ = a;
        a = N(a).left;
      } else {
        a = N(a).right;
      }
    }
    return succ >= 0 ? SampleRef{s.edge, succ} : SampleRef{next_edge, -1};
  }
  if (!N(x).IsInternal()) return SampleRef{next_edge, -1};
  while (N(N(x).left).IsInternal()) x = N(x).left;
  return SampleRef{s.edge, x};
}

AdaptiveHull::SampleRef AdaptiveHull::PrevSample(SampleRef s) const {
  uint32_t edge = s.edge;
  int32_t x;
  if (s.node < 0) {
    edge = (s.edge + options_.r - 1) % options_.r;
    x = roots_[edge];
  } else if (N(N(s.node).left).IsInternal()) {
    x = N(s.node).left;
  } else {
    // The nearest ancestor holding s in its right subtree, if any.
    const Direction& d = N(s.node).mid;
    int32_t pred = -1;
    for (int32_t a = roots_[s.edge]; a != s.node;) {
      if (N(a).mid < d) {
        pred = a;
        a = N(a).right;
      } else {
        a = N(a).left;
      }
    }
    return SampleRef{s.edge, pred};
  }
  if (!N(x).IsInternal()) return SampleRef{edge, -1};
  while (N(N(x).right).IsInternal()) x = N(x).right;
  return SampleRef{edge, x};
}

bool AdaptiveHull::FindSample(const Direction& d, SampleRef* out) const {
  if (d.IsUniform()) {
    *out = SampleRef{static_cast<uint32_t>(d.num()), -1};
    return true;
  }
  const uint32_t edge = static_cast<uint32_t>(d.num() >> d.level());
  for (int32_t x = roots_[edge]; N(x).IsInternal();) {
    const Direction& m = N(x).mid;
    if (d == m) {
      *out = SampleRef{edge, x};
      return true;
    }
    x = d < m ? N(x).left : N(x).right;
  }
  return false;
}

size_t AdaptiveHull::RunLowerBound(const Direction& d) const {
  return static_cast<size_t>(
      std::lower_bound(run_dir_.begin(), run_dir_.end(), d) -
      run_dir_.begin());
}

size_t AdaptiveHull::RunUpperBound(const Direction& d) const {
  return static_cast<size_t>(
      std::upper_bound(run_dir_.begin(), run_dir_.end(), d) -
      run_dir_.begin());
}

void AdaptiveHull::InsertRun(size_t k, const Direction& d, Point2 pt) {
  run_dir_.insert(run_dir_.begin() + static_cast<std::ptrdiff_t>(k), d);
  run_pt_.insert(run_pt_.begin() + static_cast<std::ptrdiff_t>(k), pt);
}

void AdaptiveHull::EraseRuns(size_t first, size_t last) {
  const auto f = static_cast<std::ptrdiff_t>(first);
  const auto l = static_cast<std::ptrdiff_t>(last);
  run_dir_.erase(run_dir_.begin() + f, run_dir_.begin() + l);
  run_pt_.erase(run_pt_.begin() + f, run_pt_.begin() + l);
}

// ---------------------------------------------------------------------------
// Initialization
// ---------------------------------------------------------------------------

void AdaptiveHull::InitializeWith(Point2 p) {
  const uint32_t r = options_.r;
  // Every uniform direction springs into existence: whatever wire
  // baseline may exist (a restarted summary cannot have one, but stay
  // defensive), per-direction tracking is meaningless now.
  wire_dirty_all_ = true;
  wire_dirty_.clear();
  num_directions_ = r;
  for (uint32_t j = 0; j < r; ++j) uniform_ext_[j] = p;
  run_dir_.assign(1, Direction::Uniform(0, r));
  run_pt_.assign(1, p);
  uniform_runs_.assign(1, 0);
  p_raw_ = 0;
  p_used_ = 0;
  for (uint32_t j = 0; j < r; ++j) {
    int32_t idx = AllocNode();
    RefNode& n = N(idx);
    n.lo = Direction::Uniform(j, r);
    n.hi = Direction::Uniform((j + 1) % r, r);
    n.pa = p;
    n.pb = p;
    n.depth = 0;
    n.ltilde = 0;
    roots_[j] = idx;
  }
}

// ---------------------------------------------------------------------------
// Winning-set computation
// ---------------------------------------------------------------------------

AdaptiveHull::WonArc AdaptiveHull::ComputeWinningSetBrute(Point2 p) {
  const size_t s = num_directions_;
  brute_refs_.clear();
  brute_won_.clear();
  size_t num_won = 0;
  SampleRef it;
  for (size_t i = 0; i < s; ++i, it = NextSample(it)) {
    const bool w = Beats(p, DirOf(it), PointOf(it));
    brute_refs_.push_back(it);
    brute_won_.push_back(w ? 1 : 0);
    num_won += w ? 1 : 0;
  }
  if (num_won == 0) return WonArc{};
  if (num_won == s) return WonArc{brute_refs_[0], brute_refs_[s - 1], s};
  // Start at a won direction whose circular predecessor is not won.
  size_t start = s;
  for (size_t i = 0; i < s; ++i) {
    if (brute_won_[i] && !brute_won_[(i + s - 1) % s]) {
      start = i;
      break;
    }
  }
  SH_DCHECK(start < s);
  size_t count = 0;
  while (count < s && brute_won_[(start + count) % s]) ++count;
  return WonArc{brute_refs_[start], brute_refs_[(start + count - 1) % s],
                count};
}

AdaptiveHull::WonArc AdaptiveHull::ComputeWinningSet(Point2 p) {
  const size_t m = run_pt_.size();
  if (m <= 16) return ComputeWinningSetBrute(p);

  const auto chain = FindVisibleChain(run_pt_, p);
  if (!chain.has_value()) return WonArc{};

  const size_t s = num_directions_;
  auto beats = [&](SampleRef x) { return Beats(p, DirOf(x), PointOf(x)); };
  // First direction owned by the vertex after the right tangent, and the
  // left tangent vertex's first direction.
  SampleRef i0, l_ref;
  const bool found =
      FindSample(run_dir_[(chain->first_edge + 1) % m], &i0) &&
      FindSample(run_dir_[(chain->last_edge + 1) % m], &l_ref);
  SH_CHECK(found);

  // Right boundary: walk CW from just before the chain interior, absorbing
  // every direction the new point beats. This resolves the tangent vertex's
  // split cone exactly and tolerates an off-by-one tangent.
  WonArc won{i0, PrevSample(i0), 0};
  for (SampleRef it = won.last; won.count < s && beats(it);
       it = PrevSample(it)) {
    won.first = it;
    ++won.count;
  }
  // Interior: directions owned by vertices strictly inside the chain. These
  // are all won in exact arithmetic; with floating-point noise the chain
  // boundary can overshoot by a near-collinear vertex, so the walk stays
  // predicate-driven and stops at the first direction the point fails to
  // win (keeping the collected set one contiguous arc).
  bool middle_complete = true;
  SampleRef it = i0;
  for (size_t steps = 0; it != l_ref && steps++ < s; it = NextSample(it)) {
    if (!beats(it)) {
      middle_complete = false;
      break;
    }
    won.last = it;
    ++won.count;
  }
  // Left boundary: walk CCW from the left tangent vertex's first direction
  // (where the interior walk stopped), within the directions not yet won.
  if (middle_complete && won.count < s) {
    const size_t budget = s - won.count;
    for (size_t taken = 0; taken < budget && beats(it); ++taken) {
      won.last = it;
      ++won.count;
      it = NextSample(it);
    }
  }
  return won;
}

// ---------------------------------------------------------------------------
// Applying a win: samples, vertex runs, uniform extrema, perimeter
// ---------------------------------------------------------------------------

void AdaptiveHull::ApplyWin(Point2 p, const WonArc& won) {
  SH_DCHECK(won.count > 0);
  const Direction wf = DirOf(won.first);
  const Direction wl = DirOf(won.last);
  const bool all_won = won.count == num_directions_;

  // Capture the run re-anchor for the direction just past the won interval
  // *before* mutating anything.
  const SampleRef after_ref = NextSample(won.last);
  const Direction after = DirOf(after_ref);
  const Point2 after_pt = PointOf(after_ref);

  // Update the stored extremum for every won direction; the uniform ones
  // (a contiguous range [jf, jl]) are updated by UpdateUniform below.
  bool any_uniform = false;
  uint32_t jf = 0, jl = 0;
  SampleRef it = won.first;
  for (size_t t = 0; t < won.count; ++t, it = NextSample(it)) {
    MarkWireDirty(DirOf(it));
    if (it.node >= 0) {
      N(it.node).pm = p;
      continue;
    }
    if (!any_uniform) jf = it.edge;
    jl = it.edge;
    any_uniform = true;
  }

  // Erase vertex runs whose first direction lies in [wf, wl] (circular).
  const size_t lo = RunLowerBound(wf);
  const size_t hi = RunUpperBound(wl);
  if (!(wl < wf)) {
    EraseRuns(lo, hi);
    stats_.vertices_deleted += hi - lo;
  } else {
    stats_.vertices_deleted += run_dir_.size() - lo + hi;
    EraseRuns(lo, run_dir_.size());
    EraseRuns(0, hi);
  }

  // The new point's run, plus the re-anchored run for the surviving owner
  // just past the interval.
  InsertRun(RunLowerBound(wf), wf, p);
  if (!all_won) {
    const size_t a = RunLowerBound(after);
    if (a == run_dir_.size() || run_dir_[a] != after) {
      InsertRun(a, after, after_pt);
    }
    // Run-length compression: if the re-anchored run's circular successor
    // holds the same point (typically across the 0-direction wrap), the two
    // runs are one contiguous ownership range; drop the later key.
    const size_t succ = (a + 1) % run_dir_.size();
    if (succ != a && run_pt_[succ] == run_pt_[a]) EraseRuns(succ, succ + 1);
  }

  if (any_uniform) UpdateUniform(p, jf, jl);
}

double AdaptiveHull::RecomputeUniformPerimeter() const {
  const size_t k = uniform_runs_.size();
  if (k <= 1) return 0.0;
  double sum = 0.0;
  for (size_t i = 1; i < k; ++i) {
    sum += Distance(uniform_ext_[uniform_runs_[i - 1]],
                    uniform_ext_[uniform_runs_[i]]);
  }
  sum += Distance(uniform_ext_[uniform_runs_[k - 1]],
                  uniform_ext_[uniform_runs_[0]]);
  return sum;
}

void AdaptiveHull::UpdateUniform(Point2 p, uint32_t jf, uint32_t jl) {
  const uint32_t r = options_.r;
  std::vector<uint32_t>& runs = uniform_runs_;
  const size_t won_count = (jl + r - jf) % r + 1;  // |[jf, jl]|, circular.
  const double old_p_raw = p_raw_;
  auto in_interval = [&](uint32_t j) {
    if (jf <= jl) return j >= jf && j <= jl;
    return j >= jf || j <= jl;
  };

  // Run starts inside [jf, jl] occupy [lo, hi) (wrapping: [lo, end) and
  // [0, hi)). Everything read here is the extrema as they were, so it
  // precedes the update below.
  const size_t k = runs.size();
  const size_t lo = static_cast<size_t>(
      std::lower_bound(runs.begin(), runs.end(), jf) - runs.begin());
  const size_t hi = static_cast<size_t>(
      std::upper_bound(runs.begin(), runs.end(), jl) - runs.begin());

  // Decide between the incremental perimeter update and a full recompute.
  bool incremental = k > 4 && won_count < r;
  Point2 a_pt{}, b_pt{};
  uint32_t b_key = 0;
  if (incremental) {
    const uint32_t a_key = runs[(lo + k - 1) % k];  // Largest < jf, circular.
    b_key = runs[hi % k];                           // Smallest > jl, circular.
    if (in_interval(a_key) || in_interval(b_key)) {
      incremental = false;
    } else {
      a_pt = uniform_ext_[a_key];
      b_pt = uniform_ext_[b_key];
    }
  }

  // Erase run starts inside the interval, remembering their points in CCW
  // order from jf.
  std::vector<Point2>& erased_pts = uu_pts_scratch_;
  erased_pts.clear();
  const auto erase = [&](size_t first, size_t last) {
    for (size_t i = first; i < last; ++i) {
      erased_pts.push_back(uniform_ext_[runs[i]]);
    }
    runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(first),
               runs.begin() + static_cast<std::ptrdiff_t>(last));
  };
  if (jf <= jl) {
    erase(lo, hi);
  } else {
    erase(lo, k);
    erase(0, hi);
  }

  // Update per-direction extrema over the (circular) range [jf, jl].
  for (uint32_t j = jf;; j = (j + 1) % r) {
    uniform_ext_[j] = p;
    if (j == jl) break;
  }

  runs.insert(std::lower_bound(runs.begin(), runs.end(), jf), jf);
  const uint32_t jnext = (jl + 1) % r;
  bool inserted_jnext = false;
  if (won_count < r) {
    const auto it = std::lower_bound(runs.begin(), runs.end(), jnext);
    if (it == runs.end() || *it != jnext) {
      runs.insert(it, jnext);
      inserted_jnext = true;
    }
  }

  if (!incremental) {
    p_raw_ = RecomputeUniformPerimeter();
  } else {
    // Old local path a -> erased runs -> b; new local path a -> p [-> the
    // re-anchored owner at jnext] -> b.
    double old_len;
    if (erased_pts.empty()) {
      old_len = Distance(a_pt, b_pt);
    } else {
      old_len = Distance(a_pt, erased_pts.front());
      for (size_t i = 0; i + 1 < erased_pts.size(); ++i) {
        old_len += Distance(erased_pts[i], erased_pts[i + 1]);
      }
      old_len += Distance(erased_pts.back(), b_pt);
    }
    double new_len = Distance(a_pt, p);
    if (inserted_jnext && jnext != b_key) {
      new_len += Distance(p, uniform_ext_[jnext]) +
                 Distance(uniform_ext_[jnext], b_pt);
    } else {
      new_len += Distance(p, b_pt);
    }
    p_raw_ = old_p_raw + (new_len - old_len);
  }

  if (p_raw_ > p_used_) {
    p_used_ = p_raw_;
  }
  if (p_raw_ < old_p_raw - 1e-9 * std::max(1.0, old_p_raw)) {
    ++stats_.perimeter_decreases;
  }
}

// ---------------------------------------------------------------------------
// Direction activation / deactivation (refinement bookkeeping)
// ---------------------------------------------------------------------------

void AdaptiveHull::ActivateDirection(const Direction& d, Point2 pt,
                                     const Direction& next_dir) {
  ++num_directions_;
  MarkWireDirty(d);
  // The refined leaf's interval contains no other active direction, so d
  // is adjacent to the runs of both endpoint samples.
  const size_t k = RunUpperBound(d);
  const size_t owner = (k == 0 ? run_dir_.size() : k) - 1;
  if (run_pt_[owner] == pt) return;  // Merges into the predecessor's run.
  // Otherwise pt is next_dir's point: its run starts exactly at the leaf's
  // hi endpoint; extend it backward to d.
  const size_t succ = RunLowerBound(next_dir);
  const bool succ_found = succ < run_dir_.size() && run_dir_[succ] == next_dir;
  SH_DCHECK(succ_found && run_pt_[succ] == pt);
  if (succ_found && succ == k) {
    run_dir_[k] = d;  // No wrap: the run keeps its slot.
    return;
  }
  if (succ_found) EraseRuns(succ, succ + 1);
  InsertRun(RunLowerBound(d), d, pt);
}

void AdaptiveHull::DeactivateDirection(const Direction& d,
                                       const Direction& next_dir) {
  --num_directions_;
  MarkWireDirty(d);
  const size_t k = RunLowerBound(d);
  if (k == run_dir_.size() || run_dir_[k] != d) return;  // Inside a run.
  // Does d's run own more directions? It does iff next_dir starts no run
  // of its own: run keys are active directions, so no other run can start
  // between d and next_dir.
  if (run_dir_[(k + 1) % run_dir_.size()] != next_dir) {
    if (d < next_dir) {
      run_dir_[k] = next_dir;  // No wrap: the run keeps its slot.
      return;
    }
    const Point2 pt = run_pt_[k];
    EraseRuns(k, k + 1);
    InsertRun(RunLowerBound(next_dir), next_dir, pt);
    return;
  }
  // The run vanished; merge its neighbors if they now repeat a point.
  EraseRuns(k, k + 1);
  const size_t m = run_dir_.size();
  if (m >= 2) {
    const size_t succ = k % m;
    const size_t pred = (k + m - 1) % m;
    if (run_pt_[pred] == run_pt_[succ]) EraseRuns(succ, succ + 1);
  }
}

// ---------------------------------------------------------------------------
// Refinement / unrefinement
// ---------------------------------------------------------------------------

void AdaptiveHull::EnqueueThreshold(int32_t idx) {
  RefNode& n = N(idx);
  SH_DCHECK(n.IsInternal());
  n.pq_gen++;
  const double thresh = UnrefineThreshold(n);
  if (thresh <= 0) return;
  QueueEntry e{idx, n.pq_gen};
  if (options_.queue_kind == ThresholdQueueKind::kBucket) {
    // Round down to a power of two (§5.3). If the rounded bucket would pop
    // immediately even though the exact threshold is still above P (churn),
    // round *up* instead — at most 2x-late unrefinement.
    int exp = PowerOfTwoExponent(thresh);
    if (p_used_ > 0 && std::ldexp(1.0, exp) < p_used_) {
      exp = PowerOfTwoExponent(p_used_) + 1;
    }
    bucket_queue_.PushExponent(exp, e);
  } else {
    heap_queue_.Push(thresh, e);
  }
}

void AdaptiveHull::ProcessUnrefinements() {
  std::vector<QueueEntry>& ready = ready_scratch_;
  ready.clear();
  if (options_.queue_kind == ThresholdQueueKind::kBucket) {
    bucket_queue_.PopBelow(p_used_, &ready);
  } else {
    heap_queue_.PopBelow(p_used_, &ready);
  }
  collapsed_scratch_.clear();
  for (const QueueEntry& e : ready) {
    const RefNode& n = N(e.node);
    if (!n.allocated || n.pq_gen != e.gen || !n.IsInternal()) continue;
    Unrefine(e.node);
    // The collapse may have been early (power-of-two rounding); the caller
    // re-checks the resulting leaf's weight after the rebuild pass.
    collapsed_scratch_.push_back(QueueEntry{e.node, N(e.node).pq_gen});
  }
}

bool AdaptiveHull::RefineOnce(int32_t idx) {
  {
    RefNode& n0 = N(idx);
    if (n0.IsInternal() || n0.depth >= cap_ || n0.pa == n0.pb) return false;
  }
  const Direction lo = N(idx).lo;
  const Direction hi = N(idx).hi;
  const Point2 pa = N(idx).pa;
  const Point2 pb = N(idx).pb;
  const uint32_t depth = N(idx).depth;
  const Direction mid = Direction::Midpoint(lo, hi);
  const Point2 um = mid.ToVector();
  // The extremum in the bisecting direction among the stored samples is one
  // of the two endpoints (their normal cones cover the leaf's interval).
  const Point2 winner = Dot(pb, um) > Dot(pa, um) ? pb : pa;
  ActivateDirection(mid, winner, hi);

  const int32_t li = AllocNode();
  const int32_t ri = AllocNode();
  RefNode& n = N(idx);  // Re-acquire: AllocNode may grow the arena.
  RefNode& l = N(li);
  RefNode& r = N(ri);
  l.lo = lo;
  l.hi = mid;
  l.pa = pa;
  l.pb = winner;
  l.depth = depth + 1;
  l.ltilde = ComputeLTilde(l.lo, l.hi, l.pa, l.pb);
  r.lo = mid;
  r.hi = hi;
  r.pa = winner;
  r.pb = pb;
  r.depth = depth + 1;
  r.ltilde = ComputeLTilde(r.lo, r.hi, r.pa, r.pb);
  n.left = li;
  n.right = ri;
  n.mid = mid;
  n.pm = winner;
  // The certified slack uses the post-insertion P: refinement runs after
  // ApplyWin, the only place P changes.
  n.slack = OffsetForLevel(mid.level());
  ++stats_.directions_refined;
  if (options_.mode == SamplingMode::kFixedSize) {
    PushHeapEntry(li);
    PushHeapEntry(ri);
    PushHeapEntry(idx);
  }
  return true;
}

void AdaptiveHull::RefineToWeight(int32_t idx) {
  {
    RefNode& n = N(idx);
    if (n.IsInternal()) return;
    if (n.depth >= cap_ || n.pa == n.pb || Weight(n) <= 1.0) return;
  }
  if (!RefineOnce(idx)) return;
  EnqueueThreshold(idx);
  RefineToWeight(N(idx).left);
  RefineToWeight(N(idx).right);
}

void AdaptiveHull::Unrefine(int32_t idx) {
  RefNode& n = N(idx);
  SH_CHECK(n.IsInternal());
  if (N(n.left).IsInternal()) Unrefine(n.left);
  if (N(n.right).IsInternal()) Unrefine(n.right);
  DeactivateDirection(n.mid, n.hi);
  FreeNode(n.left);
  FreeNode(n.right);
  n.left = -1;
  n.right = -1;
  n.pq_gen++;
  ++stats_.directions_unrefined;
  if (options_.mode == SamplingMode::kFixedSize) PushHeapEntry(idx);
}

// ---------------------------------------------------------------------------
// Rebuild after an insertion
// ---------------------------------------------------------------------------

void AdaptiveHull::RebuildRange(const Direction& won_first,
                                const Direction& won_last) {
  const uint32_t r = options_.r;
  auto edge_of = [&](const Direction& d, bool left_side) -> uint32_t {
    if (d.IsUniform()) {
      const uint32_t j = static_cast<uint32_t>(d.num());
      return left_side ? (j + r - 1) % r : j;
    }
    return static_cast<uint32_t>(d.num() >> d.level());
  };
  const uint32_t e_first = edge_of(won_first, /*left_side=*/true);
  const uint32_t e_last = edge_of(won_last, /*left_side=*/false);
  uint32_t e = e_first;
  while (true) {
    const Direction lo = Direction::Uniform(e, r);
    const Direction hi = Direction::Uniform((e + 1) % r, r);
    RebuildNode(roots_[e], lo, hi, uniform_ext_[e], uniform_ext_[(e + 1) % r],
                0, won_first, won_last);
    if (e == e_last) break;
    e = (e + 1) % r;
  }
}

int32_t AdaptiveHull::RebuildNode(int32_t idx, const Direction& lo,
                                  const Direction& hi, Point2 a, Point2 b,
                                  uint32_t depth, const Direction& won_first,
                                  const Direction& won_last) {
  ++stats_.rebuild_nodes_visited;
  {
    RefNode& n = N(idx);
    SH_DCHECK(n.lo == lo && n.hi == hi && n.depth == depth);
    const bool endpoint_change = !(n.pa == a) || !(n.pb == b);
    if (!n.IsInternal()) {
      if (endpoint_change) {
        n.pa = a;
        n.pb = b;
        n.ltilde = ComputeLTilde(lo, hi, a, b);
        if (options_.mode == SamplingMode::kFixedSize && !frozen_) {
          PushHeapEntry(idx);
        }
      }
      if (!frozen_ && options_.mode == SamplingMode::kInvariant) {
        RefineToWeight(idx);
      }
      return idx;
    }
  }

  const Direction mid = N(idx).mid;
  const Point2 pm = N(idx).pm;
  const Point2 old_pm = N(N(idx).left).pb;
  const bool mid_changed = !(old_pm == pm);
  const bool endpoint_change = !(N(idx).pa == a) || !(N(idx).pb == b);

  const bool left_touched = !(N(idx).pa == a) || mid_changed ||
                            CcwIntervalsIntersect(lo, mid, won_first, won_last);
  const bool right_touched =
      mid_changed || !(N(idx).pb == b) ||
      CcwIntervalsIntersect(mid, hi, won_first, won_last);
  if (left_touched) {
    RebuildNode(N(idx).left, lo, mid, a, pm, depth + 1, won_first, won_last);
  }
  if (right_touched) {
    RebuildNode(N(idx).right, mid, hi, pm, b, depth + 1, won_first, won_last);
  }
  RefNode& n = N(idx);
  n.pa = a;
  n.pb = b;
  n.ltilde = ComputeLTilde(lo, hi, a, b);
  if (!frozen_) {
    if (options_.mode == SamplingMode::kInvariant) {
      if (Weight(n) <= 1.0) {
        Unrefine(idx);  // Now a leaf with weight <= 1: nothing more to do.
      } else if (endpoint_change || mid_changed) {
        EnqueueThreshold(idx);
      }
    } else {
      PushHeapEntry(idx);
    }
  }
  return idx;
}

// ---------------------------------------------------------------------------
// Fixed-size mode: lazy per-depth heaps and the rebalance loop
// ---------------------------------------------------------------------------

void AdaptiveHull::PushHeapEntry(int32_t idx) {
  SH_DCHECK(options_.mode == SamplingMode::kFixedSize);
  RefNode& n = N(idx);
  if (n.depth > cap_) return;
  // Fixed-size mode never uses the threshold queue, so pq_gen is free to
  // version heap entries: bumping it invalidates all earlier entries for
  // this node, keeping at most one live entry per node.
  n.pq_gen++;
  HeapEntry e{n.ltilde, idx, n.pq_gen};
  if (n.IsInternal()) {
    internal_heaps_[n.depth].push_back(e);
  } else {
    leaf_heaps_[n.depth].push_back(e);
  }
}

int32_t AdaptiveHull::PopBestLeaf() { return BestLeaf(nullptr); }

int32_t AdaptiveHull::BestLeaf(double* weight_out) {
  int32_t best = -1;
  double best_w = -std::numeric_limits<double>::infinity();
  for (uint32_t d = 0; d <= cap_; ++d) {
    auto& h = leaf_heaps_[d];
    // Compact permanently-stale entries; track the best refinable leaf.
    size_t write = 0;
    int32_t local = -1;
    double local_lt = -1.0;
    for (size_t i = 0; i < h.size(); ++i) {
      const HeapEntry& e = h[i];
      const RefNode& n = N(e.node);
      const bool live = n.allocated && !n.IsInternal() && n.depth == d &&
                        n.pq_gen == e.gen;
      if (!live) continue;
      h[write++] = e;
      const bool refinable = !(n.pa == n.pb) && n.depth < cap_;
      if (refinable && e.ltilde > local_lt) {
        local_lt = e.ltilde;
        local = e.node;
      }
    }
    h.resize(write);
    if (local < 0) continue;
    const double w =
        (p_used_ > 0
             ? static_cast<double>(options_.r) * local_lt / p_used_
             : local_lt) -
        static_cast<double>(d);
    if (w > best_w) {
      best_w = w;
      best = local;
    }
  }
  if (weight_out != nullptr) *weight_out = best_w;
  return best;
}

int32_t AdaptiveHull::PopWorstInternal() { return WorstInternal(nullptr); }

int32_t AdaptiveHull::WorstInternal(double* weight_out) {
  int32_t best = -1;
  double best_w = std::numeric_limits<double>::infinity();
  for (uint32_t d = 0; d <= cap_; ++d) {
    auto& h = internal_heaps_[d];
    size_t write = 0;
    int32_t local = -1;
    double local_lt = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < h.size(); ++i) {
      const HeapEntry& e = h[i];
      const RefNode& n = N(e.node);
      const bool live = n.allocated && n.IsInternal() && n.depth == d &&
                        n.pq_gen == e.gen;
      if (!live) continue;
      h[write++] = e;
      // Collapsible only when both children are leaves (transient property;
      // the entry stays queued either way).
      if (N(n.left).IsInternal() || N(n.right).IsInternal()) continue;
      if (e.ltilde < local_lt) {
        local_lt = e.ltilde;
        local = e.node;
      }
    }
    h.resize(write);
    if (local < 0) continue;
    const double w =
        (p_used_ > 0
             ? static_cast<double>(options_.r) * local_lt / p_used_
             : local_lt) -
        static_cast<double>(d);
    if (w < best_w) {
      best_w = w;
      best = local;
    }
  }
  if (weight_out != nullptr) *weight_out = best_w;
  return best;
}

void AdaptiveHull::Rebalance() {
  if (frozen_) return;
  const size_t target = fixed_target_;
  int guard = static_cast<int>(8 * options_.r + 64);

  // Pad: spend unused budget on the heaviest edges (§7: refine even when
  // w <= 1 until 2r directions are in use).
  while (num_directions_ < target && guard-- > 0) {
    const int32_t leaf = PopBestLeaf();
    if (leaf < 0) break;
    if (!RefineOnce(leaf)) continue;
  }
  // Trim: give back over-budget directions from the lightest edges.
  while (num_directions_ > target && guard-- > 0) {
    const int32_t node = PopWorstInternal();
    if (node < 0) break;
    Unrefine(node);
  }
  // Exchange: migrate budget from the lightest collapsible refinement to the
  // heaviest unrefined edge while doing so reduces the maximum weight. This
  // is what lets the fixed-size variant track changing distributions
  // (Table 1, "changing ellipse").
  while (guard-- > 0) {
    double w_leaf = 0, w_int = 0;
    const int32_t leaf = BestLeaf(&w_leaf);
    const int32_t internal = WorstInternal(&w_int);
    if (leaf < 0 || internal < 0) break;
    if (w_leaf <= w_int + 1.0 + 1e-9) break;
    {
      const RefNode& ni = N(internal);
      if (ni.left == leaf || ni.right == leaf) break;  // Degenerate.
    }
    Unrefine(internal);
    {
      const RefNode& nl = N(leaf);
      if (!nl.allocated || nl.IsInternal()) break;  // Paranoia.
    }
    if (!RefineOnce(leaf)) break;
    ++stats_.rebalance_exchanges;
  }
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

void AdaptiveHull::Insert(Point2 p) {
  ++stats_.points_processed;
  if (num_points_++ == 0) {
    InitializeWith(p);
    return;
  }
  InsertNonEmpty(p);
}

bool AdaptiveHull::InsertNonEmpty(Point2 p) {
  const WonArc won = ComputeWinningSet(p);
  if (won.count == 0) {
    ++stats_.points_discarded;
    return false;
  }
  // The won interval's endpoints, read before the rebuild pass frees and
  // reuses refinement nodes.
  const Direction won_first = DirOf(won.first);
  const Direction won_last = DirOf(won.last);
  ApplyWin(p, won);
  collapsed_scratch_.clear();
  if (!frozen_ && options_.mode == SamplingMode::kInvariant) {
    ProcessUnrefinements();
  }
  RebuildRange(won_first, won_last);
  // Power-of-two rounding can unrefine early; restore the weight invariant
  // on any collapsed node the rebuild did not already revisit.
  for (const QueueEntry& e : collapsed_scratch_) {
    const RefNode& n = N(e.node);
    if (n.allocated && n.pq_gen == e.gen && !n.IsInternal()) {
      RefineToWeight(e.node);
    }
  }
  if (!frozen_ && options_.mode == SamplingMode::kFixedSize) {
    Rebalance();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Wire-delta change tracking (snapshot v3; see HullEngine)
// ---------------------------------------------------------------------------

void AdaptiveHull::MarkWireDirty(const Direction& d) {
  if (wire_dirty_all_) return;
  // The touched set is only useful while it is small relative to the
  // sample budget; a producer that lets many updates pile up between
  // encodes is re-shipping most directions anyway, so fall back to the
  // encoder's full diff instead of growing without bound.
  if (wire_dirty_.size() >= 8u * static_cast<size_t>(options_.r) + 8u) {
    wire_dirty_all_ = true;
    wire_dirty_.clear();
    return;
  }
  wire_dirty_.push_back(d);
}

bool AdaptiveHull::ChangedDirectionsSinceBaseline(
    std::vector<Direction>* changed) const {
  if (wire_dirty_all_) return false;
  changed->assign(wire_dirty_.begin(), wire_dirty_.end());
  return true;
}

void AdaptiveHull::OnWireBaselineCaptured() {
  wire_dirty_all_ = false;
  wire_dirty_.clear();
  // Delta tracking starts here, so this is where the marking buffer is
  // worth its memory (engines that never encode pay nothing); the cap in
  // MarkWireDirty bounds it, so one reserve covers the engine's lifetime.
  wire_dirty_.reserve(8 * static_cast<size_t>(options_.r) + 8);
}

// ---------------------------------------------------------------------------
// Batched ingestion
// ---------------------------------------------------------------------------

void AdaptiveHull::RefreshBatchCache() {
  // run_pt_ already is the distinct CCW polygon the prefilter tests
  // against; only its coordinate scale and SoA mirror are derived here.
  double scale = 0;
  for (const Point2& v : run_pt_) {
    scale = std::max({scale, std::abs(v.x), std::abs(v.y)});
  }
  batch_cache_scale_ = scale;
  ++stats_.batch_cache_refreshes;
  // SoA mirror for the SIMD tier: a coarse sub-polygon of every stride-th
  // vertex, capped at kBatchSoaMaxEdges edges. Any vertex subset of a
  // convex polygon spans a convex polygon contained in it, so certifying
  // strict interiority against the subset certifies it against the full
  // polygon — and the lane kernel's cost stays O(1) per point no matter
  // how large r makes the polygon.
  const size_t m = run_pt_.size();
  const size_t stride = (m + kBatchSoaMaxEdges - 1) / kBatchSoaMaxEdges;
  if (m >= 3) {
    batch_soa_.Build(run_pt_, stride, batch_cache_scale_);
  } else {
    batch_soa_.Clear();
  }
}

namespace {

// Strict left-of-segment test with a certified margin: returns true only
// when Orient(a, b, p) is positive in exact arithmetic AND p is at least
// ~1e-12 * scale away from the supporting line. The first summand covers
// the rounding error of the determinant itself (Shewchuk's A-estimate has
// constant ~3.3e-16; 1e-12 gives >1000x slack), the second converts the
// required Euclidean clearance into determinant units via |b - a|_1.
bool StrictlyLeftByMargin(Point2 a, Point2 b, Point2 p, double scale) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double t1 = dx * (p.y - a.y);
  const double t2 = dy * (p.x - a.x);
  const double margin =
      1e-12 * (std::abs(t1) + std::abs(t2) +
               scale * (std::abs(dx) + std::abs(dy)));
  return t1 - t2 > margin;
}

}  // namespace

bool AdaptiveHull::BatchCacheRejects(Point2 p) const {
  const std::vector<Point2>& v = run_pt_;
  const size_t m = v.size();
  if (m < 3) {
    // Degenerate caches (a repeated-point or collinear-start stream) still
    // prefilter, but only where a certificate exists. An exact duplicate of
    // a stored vertex evaluates every Beats() dot product to the identical
    // float, so the strict > can never fire: provably a no-op. (NaN
    // coordinates fail == and fall through to the full path.)
    if (m == 1) return p == v[0];
    if (m == 2) {
      if (p == v[0] || p == v[1]) return true;
      // Axis-aligned collinear and strictly between the endpoints: with
      // the off-axis coordinate exactly shared, every Beats() comparison
      // reduces to fl(c*t + k) vs fl(c*t' + k) with t strictly between t'
      // of the endpoints — rounding a monotone function keeps it weakly
      // monotone, and a cache this small means incumbents came from the
      // brute winning-set path (FP running maxima), so the duplicate-free
      // strict > cannot fire. General-slope collinearity has no such
      // certificate and takes the full path.
      const Point2 a = v[0];
      const Point2 b = v[1];
      if (a.y == b.y && p.y == a.y) {
        return p.x > std::min(a.x, b.x) && p.x < std::max(a.x, b.x);
      }
      if (a.x == b.x && p.x == a.x) {
        return p.y > std::min(a.y, b.y) && p.y < std::max(a.y, b.y);
      }
      return false;
    }
    return false;
  }
  const double scale =
      std::max({batch_cache_scale_, std::abs(p.x), std::abs(p.y)});
  // Wedge binary search from v[0] (plain predicates; a wrong wedge near a
  // degeneracy only makes the final margin tests fail, never misreject).
  const Point2 v0 = v[0];
  if (Orient(v0, v[1], p) < 0 || Orient(v0, v[m - 1], p) > 0) return false;
  size_t lo = 1, hi = m - 1;
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Orient(v0, v[mid], p) >= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // p must be strictly inside triangle (v0, v[lo], v[hi]) by the certified
  // margin. The triangle is contained in the sampled polygon, so clearance
  // from its sides lower-bounds clearance from the polygon boundary, which
  // in turn dominates the dot-product noise of every Beats() predicate: the
  // point provably wins no sample direction (see DESIGN.md).
  return StrictlyLeftByMargin(v0, v[lo], p, scale) &&
         StrictlyLeftByMargin(v[lo], v[hi], p, scale) &&
         StrictlyLeftByMargin(v[hi], v0, p, scale);
}

void AdaptiveHull::Reserve(size_t expected_points) {
  (void)expected_points;  // All summary state is O(r); capacities come
                          // from r, not from the stream length.
  const size_t dirs = 2 * static_cast<size_t>(options_.r) + 2;
  run_dir_.reserve(dirs);
  run_pt_.reserve(dirs);
  uniform_runs_.reserve(options_.r);
  // Arena: r roots plus 2 children per internal node, at most r+1 internal
  // nodes live at once (Theorem 5.4); churn reuses the free list.
  nodes_.reserve(3 * static_cast<size_t>(options_.r) + 4);
  free_nodes_.reserve(dirs);
  batch_soa_.Reserve(kBatchSoaMaxEdges);
  brute_refs_.reserve(dirs);
  brute_won_.reserve(dirs);
  uu_pts_scratch_.reserve(dirs);
  ready_scratch_.reserve(dirs);
  collapsed_scratch_.reserve(dirs);
  if (options_.mode == SamplingMode::kFixedSize) {
    for (auto& h : leaf_heaps_) h.reserve(dirs);
    for (auto& h : internal_heaps_) h.reserve(dirs);
  }
}

void AdaptiveHull::InsertBatch(std::span<const Point2> points) {
  Reserve(points.size());
  size_t i = 0;
  if (num_points_ == 0) {
    if (points.empty()) return;
    Insert(points[0]);
    i = 1;
  }
  ++stats_.batches;
  bool cache_valid = false;
  // Each accepted point invalidates the cache; rebuilding it costs O(r).
  // The cooldown makes the next rebuild wait for ~vertices/divisor offered
  // points (which meanwhile take the plain Insert path), so accept-heavy
  // streams pay O(1) amortized refresh work per point instead of O(r),
  // while interior-heavy streams — where accepts are rare — still spend
  // almost the whole batch in the prefilter. The wait is sized from the
  // polygon the cache was built from, before the accept changed it.
  size_t cooldown = 0;
  size_t cooldown_after_accept = 0;
  // The SIMD tier only pays off when a lane kernel actually backs it;
  // under scalar dispatch the wedge test alone is the faster filter.
  const bool use_lanes = ActiveSimdIsa() != SimdIsa::kScalar;
  while (i < points.size()) {
    if (!cache_valid) {
      const Point2 p = points[i];
      ++stats_.points_processed;
      ++num_points_;
      ++i;
      if (cooldown > 0) {
        --cooldown;
        InsertNonEmpty(p);
        continue;
      }
      RefreshBatchCache();
      cache_valid = true;
      cooldown_after_accept = run_pt_.size() / kBatchCooldownDivisor;
      // Fall through: p must still be offered against the fresh cache.
      if (BatchCacheRejects(p)) {
        ++stats_.points_discarded;
        ++stats_.batch_prefilter_rejections;
        ++stats_.batch_scalar_rejections;
        continue;
      }
      if (InsertNonEmpty(p)) {
        cache_valid = false;
        cooldown = cooldown_after_accept;
      }
      continue;
    }
    if (use_lanes && batch_soa_.CanCertify()) {
      // SIMD tier: certify a block of points against the coarse
      // sub-polygon in one branch-free sweep, then walk the mask. An
      // accepted point invalidates the cache mid-block; the remaining
      // mask entries are discarded (they were certified against the
      // now-stale polygon).
      const size_t block = std::min(kPrefilterBlock, points.size() - i);
      CertifyInteriorBatch(batch_soa_, points.data() + i, block,
                           prefilter_mask_.data());
      // Counters accumulate in locals and flush once per block: the
      // member RMWs alias the (char-typed) mask array in the compiler's
      // eyes, so per-point increments would re-load the mask every
      // iteration. InsertNonEmpty never reads num_points_ or the
      // ingestion counters, so deferring the flush is unobservable.
      size_t j = 0;
      uint64_t lane_rejects = 0;
      uint64_t wedge_rejects = 0;
      for (; j < block; ++j) {
        if (prefilter_mask_[j]) {
          ++lane_rejects;
          continue;
        }
        const Point2 p = points[i + j];
        if (BatchCacheRejects(p)) {
          ++wedge_rejects;
          continue;
        }
        if (InsertNonEmpty(p)) {
          cache_valid = false;
          cooldown = cooldown_after_accept;
          ++j;
          break;
        }
      }
      i += j;
      stats_.points_processed += j;
      num_points_ += j;
      stats_.points_discarded += lane_rejects + wedge_rejects;
      stats_.batch_prefilter_rejections += lane_rejects + wedge_rejects;
      stats_.batch_simd_rejections += lane_rejects;
      stats_.batch_scalar_rejections += wedge_rejects;
      continue;
    }
    // Scalar tier: the O(log r) wedge test, one point at a time.
    const Point2 p = points[i];
    ++stats_.points_processed;
    ++num_points_;
    ++i;
    if (BatchCacheRejects(p)) {
      ++stats_.points_discarded;
      ++stats_.batch_prefilter_rejections;
      ++stats_.batch_scalar_rejections;
      continue;
    }
    // Full per-point pipeline; identical to Insert().
    if (InsertNonEmpty(p)) {
      cache_valid = false;
      cooldown = cooldown_after_accept;
    }
  }
}

void AdaptiveHull::MergeFrom(const AdaptiveHull& other) {
  // A copy: inserting may splice run_pt_, and other may be *this.
  const std::vector<Point2> donors = other.run_pt_;
  InsertDeduped(donors);
}

uint64_t AdaptiveHull::InsertDeduped(std::span<const Point2> points) {
  Point2 last{};
  bool have_last = false;
  uint64_t inserted = 0;
  for (const Point2& p : points) {
    if (have_last && p == last) continue;
    Insert(p);
    last = p;
    have_last = true;
    ++inserted;
  }
  return inserted;
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

size_t AdaptiveHull::num_sample_points() const {
  std::set<std::pair<double, double>> pts;
  for (const Point2& v : run_pt_) pts.emplace(v.x, v.y);
  return pts.size();
}

ConvexPolygon AdaptiveHull::Polygon() const {
  // The runs are already distinct; the shared compression keeps a decoded
  // snapshot's inner polygon structurally equal to this one.
  return ConvexPolygon(CompressClosedRuns(run_pt_));
}

std::vector<HullSample> AdaptiveHull::Samples() const {
  std::vector<HullSample> out;
  out.reserve(num_directions_);
  SampleRef s;
  for (size_t i = 0; i < num_directions_; ++i, s = NextSample(s)) {
    out.push_back(HullSample{DirOf(s), PointOf(s)});
  }
  return out;
}

void AdaptiveHull::CollectLeaves(int32_t idx,
                                 std::vector<int32_t>* out) const {
  const RefNode& n = N(idx);
  if (!n.IsInternal()) {
    out->push_back(idx);
    return;
  }
  CollectLeaves(n.left, out);
  CollectLeaves(n.right, out);
}

std::vector<UncertaintyTriangle> AdaptiveHull::Triangles() const {
  std::vector<UncertaintyTriangle> out;
  if (num_points_ == 0) return out;
  std::vector<int32_t> leaves;
  for (uint32_t e = 0; e < options_.r; ++e) CollectLeaves(roots_[e], &leaves);
  out.reserve(leaves.size());
  for (int32_t idx : leaves) {
    const RefNode& n = N(idx);
    if (n.pa == n.pb) continue;
    UncertaintyTriangle t;
    t.a = n.pa;
    t.b = n.pb;
    t.dir_a = n.lo;
    t.dir_b = n.hi;
    const Point2 ua = n.lo.ToVector();
    const Point2 ub = n.hi.ToVector();
    if (!LineIntersection(n.pa, n.pa + ua.PerpCcw(), n.pb, n.pb + ub.PerpCcw(),
                          &t.apex)) {
      t.apex = (n.pa + n.pb) * 0.5;
    }
    t.height = DistanceToLine(t.apex, n.pa, n.pb);
    out.push_back(t);
  }
  return out;
}

std::vector<double> AdaptiveHull::SampleSlacks() const {
  std::vector<double> slacks;
  slacks.reserve(num_directions_);
  SampleRef s;
  for (size_t i = 0; i < num_directions_; ++i, s = NextSample(s)) {
    if (s.node < 0) {
      slacks.push_back(0.0);
      continue;
    }
    // The per-level formula with the current P is always valid (Lemma 5.3
    // as stated); the activation-time capture is at most that, and P's
    // monotonicity keeps it valid. Take the min as a floating-point guard.
    const RefNode& n = N(s.node);
    slacks.push_back(std::min(n.slack, OffsetForLevel(n.mid.level())));
  }
  return slacks;
}

double AdaptiveHull::ErrorBound() const {
  const double r = static_cast<double>(options_.r);
  return 16.0 * kPi * p_used_ / (r * r);
}

double AdaptiveHull::OffsetForLevel(uint32_t level) const {
  return InvariantOffset(p_used_, options_.r, level);
}

// Declared in core/snapshot.h (it is part of the wire-format contract: v1
// receivers certify with it), defined here next to the series table so the
// engine's OffsetForLevel and the spec-level formula are one function.
double InvariantOffset(double perimeter, uint32_t r, uint32_t level) {
  const double rd = static_cast<double>(r);
  return (8.0 * kPi * perimeter / (rd * rd)) * LevelSeriesPrefix(level);
}

// ---------------------------------------------------------------------------
// Consistency checking (test support)
// ---------------------------------------------------------------------------

namespace {
Status Fail(const std::string& what) { return Status::Internal(what); }
}  // namespace

Status AdaptiveHull::CheckConsistency() const {
  if (num_points_ == 0) return Status::OK();
  const uint32_t r = options_.r;

  // Samples: the CCW walk visits every active direction once, in strictly
  // increasing order, and returns to the start.
  SampleRef it;
  for (size_t i = 0; i < num_directions_; ++i) {
    const SampleRef next = NextSample(it);
    if (i + 1 < num_directions_ && !(DirOf(it) < DirOf(next))) {
      return Fail("samples out of CCW order");
    }
    if (PrevSample(next) != it) return Fail("sample walk not reversible");
    it = next;
  }
  if (it != SampleRef{}) return Fail("sample walk does not close");
  if (uniform_runs_.empty()) return Fail("no uniform runs");
  for (size_t i = 0; i < uniform_runs_.size(); ++i) {
    if (uniform_runs_[i] >= r ||
        (i > 0 && uniform_runs_[i - 1] >= uniform_runs_[i])) {
      return Fail("uniform run starts not sorted directions");
    }
  }

  // Vertex runs: keys CCW-sorted and active, values match the samples,
  // adjacent runs (circularly) distinct.
  {
    const size_t m = run_dir_.size();
    if (m == 0) return Fail("no vertex runs");
    if (run_pt_.size() != m) return Fail("run arrays out of step");
    for (size_t k = 0; k < m; ++k) {
      if (k > 0 && !(run_dir_[k - 1] < run_dir_[k])) {
        return Fail("run keys out of CCW order");
      }
      SampleRef s;
      if (!FindSample(run_dir_[k], &s)) {
        return Fail("run key not an active direction");
      }
      if (!(PointOf(s) == run_pt_[k])) return Fail("run value mismatch");
      if (m > 1 && run_pt_[(k + m - 1) % m] == run_pt_[k]) {
        return Fail("adjacent runs with identical points");
      }
    }
  }

  // Ownership: owner-by-runs equals the stored sample for every active
  // direction; the stored sample is a (possibly tied) argmax.
  const std::vector<HullSample> samples = Samples();
  for (const HullSample& s : samples) {
    const size_t k = RunUpperBound(s.direction);
    const size_t owner = (k == 0 ? run_dir_.size() : k) - 1;
    if (!(run_pt_[owner] == s.point)) return Fail("run ownership mismatch");
  }
  if (samples.size() <= 300) {
    for (const HullSample& s : samples) {
      const Point2 u = s.direction.ToVector();
      const double mine = Dot(s.point, u);
      for (const HullSample& other : samples) {
        if (Dot(other.point, u) > mine + 1e-9 * std::max(1.0, std::abs(mine))) {
          return Fail("stored sample is not the argmax in its direction");
        }
      }
    }
  }

  // Perimeter bookkeeping.
  {
    const double recomputed = RecomputeUniformPerimeter();
    if (std::abs(recomputed - p_raw_) >
        1e-6 * std::max(1.0, std::abs(recomputed))) {
      return Fail("incremental perimeter diverged from recomputation");
    }
    if (p_used_ + 1e-12 < p_raw_) return Fail("p_used below p_raw");
  }

  // Trees: structure, endpoint consistency, weights, direction census.
  size_t internal_count = 0;
  struct Frame {
    int32_t idx;
    Direction lo, hi;
    uint32_t depth;
  };
  std::vector<Frame> stack;
  for (uint32_t e = 0; e < r; ++e) {
    stack.push_back(Frame{roots_[e], Direction::Uniform(e, r),
                          Direction::Uniform((e + 1) % r, r), 0});
  }
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const RefNode& n = N(f.idx);
    if (!n.allocated) return Fail("tree references a freed node");
    if (!(n.lo == f.lo) || !(n.hi == f.hi) || n.depth != f.depth) {
      return Fail("node interval/depth mismatch");
    }
    SampleRef alo, ahi;
    if (!FindSample(n.lo, &alo) || !FindSample(n.hi, &ahi)) {
      return Fail("node endpoint direction inactive");
    }
    if (!(n.pa == PointOf(alo)) || !(n.pb == PointOf(ahi))) {
      return Fail("node endpoint point stale");
    }
    const double lt = ComputeLTilde(n.lo, n.hi, n.pa, n.pb);
    if (std::abs(lt - n.ltilde) > 1e-6 * std::max(1.0, lt)) {
      return Fail("node ltilde stale");
    }
    if (n.depth > cap_) return Fail("node beyond depth cap");
    if (n.IsInternal()) {
      ++internal_count;
      // The captured activation offset lies in [0, OffsetForLevel(level)].
      if (!(n.slack >= 0) ||
          n.slack > OffsetForLevel(n.mid.level()) * (1.0 + 1e-9) + 1e-300) {
        return Fail("slack outside [0, OffsetForLevel]");
      }
      stack.push_back(Frame{n.left, n.lo, n.mid, n.depth + 1});
      stack.push_back(Frame{n.right, n.mid, n.hi, n.depth + 1});
    } else if (!frozen_ && options_.mode == SamplingMode::kInvariant &&
               n.depth < cap_ && !(n.pa == n.pb)) {
      if (Weight(n) > 1.0 + 1e-9) return Fail("leaf weight above 1");
    }
  }
  if (num_directions_ != static_cast<size_t>(r) + internal_count) {
    return Fail("active direction census mismatch");
  }
  if (!frozen_ && options_.mode == SamplingMode::kInvariant &&
      num_directions_ > 2 * static_cast<size_t>(r) + 1) {
    return Fail("more than 2r+1 sample directions");
  }
  if (options_.mode == SamplingMode::kFixedSize && !frozen_ &&
      num_directions_ > fixed_target_) {
    return Fail("fixed-size mode exceeded its direction budget");
  }
  return Status::OK();
}

}  // namespace streamhull
