#include "core/uniform_hull.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.h"
#include "geom/convex_view.h"

namespace streamhull {

// ---------------------------------------------------------------------------
// The uniform layer
// ---------------------------------------------------------------------------

void UniformLayer::Initialize(Point2 p) {
  for (Point2& e : ext_) e = p;
  runs_.assign(1, 0);
  p_raw_ = 0;
  p_used_ = 0;
}

double UniformLayer::RecomputePerimeter() const {
  const size_t k = runs_.size();
  if (k <= 1) return 0.0;
  double sum = 0.0;
  for (size_t i = 1; i < k; ++i) {
    sum += Distance(ext_[runs_[i - 1]], ext_[runs_[i]]);
  }
  sum += Distance(ext_[runs_[k - 1]], ext_[runs_[0]]);
  return sum;
}

bool UniformLayer::Update(Point2 p, uint32_t jf, uint32_t jl,
                          std::vector<Point2>* erased) {
  const uint32_t r = this->r();
  std::vector<uint32_t>& runs = runs_;
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
      a_pt = ext_[a_key];
      b_pt = ext_[b_key];
    }
  }

  // Erase run starts inside the interval, remembering their points in CCW
  // order from jf.
  std::vector<Point2>& erased_pts = *erased;
  erased_pts.clear();
  const auto erase = [&](size_t first, size_t last) {
    for (size_t i = first; i < last; ++i) {
      erased_pts.push_back(ext_[runs[i]]);
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
    ext_[j] = p;
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
    p_raw_ = RecomputePerimeter();
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
      new_len += Distance(p, ext_[jnext]) + Distance(ext_[jnext], b_pt);
    } else {
      new_len += Distance(p, b_pt);
    }
    p_raw_ = old_p_raw + (new_len - old_len);
  }

  if (p_raw_ > p_used_) {
    p_used_ = p_raw_;
  }
  return p_raw_ < old_p_raw - 1e-9 * std::max(1.0, old_p_raw);
}

Status UniformLayer::CheckConsistency() const {
  if (runs_.empty()) return Status::Internal("no uniform runs");
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i] >= r() || (i > 0 && runs_[i - 1] >= runs_[i])) {
      return Status::Internal("uniform run starts not sorted directions");
    }
  }
  const double recomputed = RecomputePerimeter();
  if (std::abs(recomputed - p_raw_) >
      1e-6 * std::max(1.0, std::abs(recomputed))) {
    return Status::Internal(
        "incremental perimeter diverged from recomputation");
  }
  if (p_used_ + 1e-12 < p_raw_) return Status::Internal("p_used below p_raw");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// UniformHull
// ---------------------------------------------------------------------------

namespace {

uint32_t ValidatedR(uint32_t r) {
  AdaptiveHullOptions o;
  o.r = r;
  o.max_tree_height = 0;
  SH_CHECK(o.Validate().ok() && "invalid UniformHull r");
  return r;
}

}  // namespace

UniformHull::UniformHull(uint32_t r)
    : r_(ValidatedR(r)), u_(r), uniform_(r), won_scratch_(r) {
  for (uint32_t j = 0; j < r; ++j) {
    u_[j] = Direction::Uniform(j, r).ToVector();
  }
  uniform_.Reserve();
  erased_scratch_.reserve(r);
  // Every run starts at its own direction, so there are at most r.
  run_dir_.reserve(r);
  run_pt_.reserve(r);
  prefilter_.Reserve();
}

void UniformHull::InitializeWith(Point2 p) {
  uniform_.Initialize(p);
  run_dir_.assign(1, 0);
  run_pt_.assign(1, p);
}

void UniformHull::Insert(Point2 p) {
  ++stats_.points_processed;
  if (num_points_++ == 0) {
    InitializeWith(p);
    return;
  }
  InsertNonEmpty(p);
}

void UniformHull::InsertBatch(std::span<const Point2> points) {
  size_t i = 0;
  if (num_points_ == 0) {
    if (points.empty()) return;
    Insert(points[0]);
    i = 1;
  }
  prefilter_.Run(points.subspan(i), run_pt_, &num_points_, &stats_,
                 [this](Point2 p) { return InsertNonEmpty(p); });
}

bool UniformHull::InsertNonEmpty(Point2 p) {
  const WonArc won = ComputeWinningSet(p);
  if (won.count == 0) {
    ++stats_.points_discarded;
    return false;
  }
  ApplyWin(p, won);
  return true;
}

// ---------------------------------------------------------------------------
// Winning-set computation (AdaptiveHull's procedure over index arithmetic)
// ---------------------------------------------------------------------------

UniformHull::WonArc UniformHull::ComputeWinningSetBrute(Point2 p) {
  const uint32_t s = r_;
  uint32_t num_won = 0;
  for (uint32_t j = 0; j < s; ++j) {
    const bool w = Beats(p, j);
    won_scratch_[j] = w ? 1 : 0;
    num_won += w ? 1 : 0;
  }
  if (num_won == 0) return WonArc{};
  if (num_won == s) return WonArc{0, s - 1, s};
  // Start at a won direction whose circular predecessor is not won.
  uint32_t start = s;
  for (uint32_t j = 0; j < s; ++j) {
    if (won_scratch_[j] && !won_scratch_[Prev(j)]) {
      start = j;
      break;
    }
  }
  SH_DCHECK(start < s);
  uint32_t count = 0;
  while (count < s && won_scratch_[(start + count) % s]) ++count;
  return WonArc{start, (start + count - 1) % s, count};
}

UniformHull::WonArc UniformHull::ComputeWinningSet(Point2 p) {
  const size_t m = run_pt_.size();
  if (m <= 16) return ComputeWinningSetBrute(p);

  const auto chain = FindVisibleChain(run_pt_, p);
  if (!chain.has_value()) return WonArc{};

  const uint32_t s = r_;
  // First direction owned by the vertex after the right tangent, and the
  // left tangent vertex's first direction.
  const uint32_t i0 = run_dir_[(chain->first_edge + 1) % m];
  const uint32_t l_dir = run_dir_[(chain->last_edge + 1) % m];

  // Right boundary: walk CW from just before the chain interior, absorbing
  // every direction the new point beats. This resolves the tangent vertex's
  // split cone exactly and tolerates an off-by-one tangent.
  WonArc won{i0, Prev(i0), 0};
  for (uint32_t it = won.last; won.count < s && Beats(p, it); it = Prev(it)) {
    won.first = it;
    ++won.count;
  }
  // Interior: directions owned by vertices strictly inside the chain. These
  // are all won in exact arithmetic; with floating-point noise the chain
  // boundary can overshoot by a near-collinear vertex, so the walk stays
  // predicate-driven and stops at the first direction the point fails to
  // win (keeping the collected set one contiguous arc).
  bool middle_complete = true;
  uint32_t it = i0;
  for (uint32_t steps = 0; it != l_dir && steps++ < s; it = Next(it)) {
    if (!Beats(p, it)) {
      middle_complete = false;
      break;
    }
    won.last = it;
    ++won.count;
  }
  // Left boundary: walk CCW from the left tangent vertex's first direction
  // (where the interior walk stopped), within the directions not yet won.
  if (middle_complete && won.count < s) {
    const uint32_t budget = s - won.count;
    for (uint32_t taken = 0; taken < budget && Beats(p, it); ++taken) {
      won.last = it;
      ++won.count;
      it = Next(it);
    }
  }
  return won;
}

// ---------------------------------------------------------------------------
// Applying a win
// ---------------------------------------------------------------------------

void UniformHull::ApplyWin(Point2 p, const WonArc& won) {
  SH_DCHECK(won.count > 0);
  const uint32_t wf = won.first;
  const uint32_t wl = won.last;
  const bool all_won = won.count == r_;

  // Capture the run re-anchor for the direction just past the won interval
  // *before* mutating anything.
  const uint32_t after = Next(wl);
  const Point2 after_pt = uniform_.extremum(after);

  // Erase vertex runs whose first direction lies in [wf, wl] (circular).
  auto lower = [&](uint32_t d) {
    return static_cast<size_t>(
        std::lower_bound(run_dir_.begin(), run_dir_.end(), d) -
        run_dir_.begin());
  };
  auto insert_run = [&](size_t k, uint32_t d, Point2 pt) {
    run_dir_.insert(run_dir_.begin() + static_cast<std::ptrdiff_t>(k), d);
    run_pt_.insert(run_pt_.begin() + static_cast<std::ptrdiff_t>(k), pt);
  };
  auto erase_runs = [&](size_t first, size_t last) {
    const auto f = static_cast<std::ptrdiff_t>(first);
    const auto l = static_cast<std::ptrdiff_t>(last);
    run_dir_.erase(run_dir_.begin() + f, run_dir_.begin() + l);
    run_pt_.erase(run_pt_.begin() + f, run_pt_.begin() + l);
  };
  const size_t lo = lower(wf);
  const size_t hi = static_cast<size_t>(
      std::upper_bound(run_dir_.begin(), run_dir_.end(), wl) -
      run_dir_.begin());
  if (wf <= wl) {
    erase_runs(lo, hi);
    stats_.vertices_deleted += hi - lo;
  } else {
    stats_.vertices_deleted += run_dir_.size() - lo + hi;
    erase_runs(lo, run_dir_.size());
    erase_runs(0, hi);
  }

  // The new point's run, plus the re-anchored run for the surviving owner
  // just past the interval.
  insert_run(lower(wf), wf, p);
  if (!all_won) {
    const size_t a = lower(after);
    if (a == run_dir_.size() || run_dir_[a] != after) {
      insert_run(a, after, after_pt);
    }
    // Run-length compression: if the re-anchored run's circular successor
    // holds the same point (typically across the 0-direction wrap), the two
    // runs are one contiguous ownership range; drop the later key.
    const size_t succ = (a + 1) % run_dir_.size();
    if (succ != a && run_pt_[succ] == run_pt_[a]) erase_runs(succ, succ + 1);
  }

  if (uniform_.Update(p, wf, wl, &erased_scratch_)) {
    ++stats_.perimeter_decreases;
  }
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

ConvexPolygon UniformHull::Polygon() const {
  // The runs are already distinct; the shared compression keeps a decoded
  // snapshot's inner polygon structurally equal to this one.
  return ConvexPolygon(CompressClosedRuns(run_pt_));
}

std::vector<HullSample> UniformHull::Samples() const {
  std::vector<HullSample> out;
  if (num_points_ == 0) return out;
  out.reserve(r_);
  for (uint32_t j = 0; j < r_; ++j) {
    out.push_back({Direction::Uniform(j, r_), uniform_.extremum(j)});
  }
  return out;
}

std::vector<double> UniformHull::SampleSlacks() const {
  return std::vector<double>(num_points_ == 0 ? 0 : r_, 0.0);
}

std::vector<UncertaintyTriangle> UniformHull::Triangles() const {
  std::vector<UncertaintyTriangle> out;
  if (num_points_ == 0) return out;
  out.reserve(r_);
  for (uint32_t j = 0; j < r_; ++j) {
    const uint32_t k = Next(j);
    const Point2 a = uniform_.extremum(j);
    const Point2 b = uniform_.extremum(k);
    if (a == b) continue;
    UncertaintyTriangle t;
    t.a = a;
    t.b = b;
    t.dir_a = Direction::Uniform(j, r_);
    t.dir_b = Direction::Uniform(k, r_);
    if (!LineIntersection(a, a + u_[j].PerpCcw(), b, b + u_[k].PerpCcw(),
                          &t.apex)) {
      t.apex = (a + b) * 0.5;
    }
    t.height = DistanceToLine(t.apex, a, b);
    out.push_back(t);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Consistency checking (test support)
// ---------------------------------------------------------------------------

Status UniformHull::CheckConsistency() const {
  for (uint32_t j = 0; j < r_; ++j) {
    const Point2 want = Direction::Uniform(j, r_).ToVector();
    if (std::bit_cast<uint64_t>(u_[j].x) != std::bit_cast<uint64_t>(want.x) ||
        std::bit_cast<uint64_t>(u_[j].y) != std::bit_cast<uint64_t>(want.y)) {
      return Status::Internal("cached unit vector differs from ToVector()");
    }
  }
  if (num_points_ == 0) return Status::OK();
  STREAMHULL_RETURN_IF_ERROR(uniform_.CheckConsistency());

  // Vertex runs: keys sorted directions, values the extrema they start at,
  // adjacent runs (circularly) distinct.
  const size_t m = run_dir_.size();
  if (m == 0) return Status::Internal("no vertex runs");
  if (run_pt_.size() != m) return Status::Internal("run arrays out of step");
  for (size_t k = 0; k < m; ++k) {
    if (run_dir_[k] >= r_ || (k > 0 && run_dir_[k - 1] >= run_dir_[k])) {
      return Status::Internal("run keys not sorted directions");
    }
    if (!(uniform_.extremum(run_dir_[k]) == run_pt_[k])) {
      return Status::Internal("run value mismatch");
    }
    if (m > 1 && run_pt_[(k + m - 1) % m] == run_pt_[k]) {
      return Status::Internal("adjacent runs with identical points");
    }
  }

  // Ownership, and every extremum an argmax over the stored points: no
  // other stored extremum has a larger dot product in its direction.
  for (uint32_t j = 0; j < r_; ++j) {
    const size_t k = static_cast<size_t>(
        std::upper_bound(run_dir_.begin(), run_dir_.end(), j) -
        run_dir_.begin());
    const Point2 mine = uniform_.extremum(j);
    if (!(run_pt_[(k == 0 ? m : k) - 1] == mine)) {
      return Status::Internal("run ownership mismatch");
    }
    const double own = Dot(mine, u_[j]);
    for (const Point2& other : run_pt_) {
      if (Dot(other, u_[j]) > own) {
        return Status::Internal(
            "stored extremum beaten in its direction by another sample");
      }
    }
  }
  return Status::OK();
}

}  // namespace streamhull
