#include "core/hull_engine.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "core/adaptive_hull.h"
#include "core/partially_adaptive.h"
#include "core/static_adaptive.h"
#include "core/windowed_hull.h"
#include "geom/convex_hull.h"

namespace streamhull {

namespace {

constexpr std::array<EngineKind, 5> kAllKinds = {
    EngineKind::kUniform,
    EngineKind::kAdaptive,
    EngineKind::kPartiallyAdaptive,
    EngineKind::kStaticAdaptive,
    EngineKind::kWindowed,
};

constexpr double kPi = 3.14159265358979323846;

// One relaxed supporting line in centroid-relative form,
// { x : dot(x - c, u) <= b }, with the polar angle of u unwrapped so that
// angles grow along SupportIntersection's pass.
struct HalfPlane {
  Point2 u;
  double b;
  double angle;
};

// Where the boundary lines of p and q cross, by Cramer's rule. Requires
// Cross(p.u, q.u) != 0.
Point2 Meet(const HalfPlane& p, const HalfPlane& q) {
  const double det = Cross(p.u, q.u);
  return {(p.b * q.u.y - q.b * p.u.y) / det,
          (q.b * p.u.x - p.b * q.u.x) / det};
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kUniform: return "uniform";
    case EngineKind::kAdaptive: return "adaptive";
    case EngineKind::kPartiallyAdaptive: return "partially-adaptive";
    case EngineKind::kStaticAdaptive: return "static-adaptive";
    case EngineKind::kWindowed: return "windowed";
  }
  return "unknown";
}

bool ParseEngineKind(std::string_view name, EngineKind* out) {
  // Case-insensitive, with '_' accepted for '-'. Canonical names are
  // lowercase with '-' separators, so folding the query suffices.
  auto fold = [](char c) {
    if (c == '_') return '-';
    if (c >= 'A' && c <= 'Z') return static_cast<char>(c - 'A' + 'a');
    return c;
  };
  for (EngineKind kind : kAllKinds) {
    const std::string_view canonical = EngineKindName(kind);
    if (name.size() != canonical.size()) continue;
    bool match = true;
    for (size_t i = 0; i < name.size(); ++i) {
      if (fold(name[i]) != canonical[i]) {
        match = false;
        break;
      }
    }
    if (match) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::span<const EngineKind> AllEngineKinds() { return kAllKinds; }

Status EngineOptions::Validate(EngineKind kind) const {
  STREAMHULL_RETURN_IF_ERROR(hull.Validate());
  // training_points == 0 is the "use the default" sentinel, so any value is
  // acceptable; the field is simply ignored by the other kinds.
  if (kind == EngineKind::kWindowed) {
    if (window_inner_kind == EngineKind::kWindowed) {
      return Status::InvalidArgument(
          "windowed engine cannot nest windowed buckets");
    }
    if (!std::isfinite(window_seconds) || window_seconds < 0) {
      return Status::InvalidArgument("window_seconds must be finite and >= 0");
    }
    if (window_buckets > (uint32_t{1} << 20)) {
      return Status::InvalidArgument("window_buckets out of range");
    }
  }
  return Status::OK();
}

std::unique_ptr<HullEngine> MakeEngine(EngineKind kind,
                                       const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kUniform:
      return std::make_unique<UniformHull>(options.hull.r);
    case EngineKind::kAdaptive:
      return std::make_unique<AdaptiveHull>(options.hull);
    case EngineKind::kPartiallyAdaptive:
      return std::make_unique<PartiallyAdaptiveHull>(
          options.hull, options.EffectiveTrainingPoints());
    case EngineKind::kStaticAdaptive:
      return std::make_unique<StaticAdaptiveHull>(options.hull);
    case EngineKind::kWindowed:
      return std::make_unique<WindowedHullEngine>(options);
  }
  SH_CHECK(false && "unknown EngineKind");
  return nullptr;
}

double MaxTriangleHeight(const std::vector<UncertaintyTriangle>& triangles) {
  double h = 0;
  for (const UncertaintyTriangle& t : triangles) h = std::max(h, t.height);
  return h;
}

ConvexPolygon HullEngine::OuterPolygon() const {
  return SupportIntersection(Samples(), SampleSlacks());
}

ConvexPolygon SupportIntersection(const std::vector<HullSample>& samples,
                                  std::span<const double> slacks) {
  SH_CHECK(slacks.empty() || slacks.size() == samples.size());
  if (samples.empty()) return ConvexPolygon();
  const size_t n = samples.size();

  // Each relaxed line as dot(x - c, u_i) <= b_i around the sample centroid
  // c, so the arithmetic below works at the summary's extent, not at its
  // distance from the origin; m is the largest offset.
  Point2 c{0, 0};
  for (const HullSample& s : samples) c += s.point;
  c = c / static_cast<double>(n);
  std::vector<HalfPlane> lines(n);
  double m = 0;
  for (size_t i = 0; i < n; ++i) {
    const Point2 u = samples[i].direction.ToVector();
    const double slack = slacks.empty() ? 0.0 : slacks[i];
    lines[i] = {u, Dot(samples[i].point - c, u) + slack,
                samples[i].direction.Radians()};
    m = std::max(m, lines[i].b);
  }

  // Sorted half-plane intersection (Preparata & Shamos): a deque of the
  // lines that still bound the region, in angular order. A line is dropped
  // only when a vertex lies outside the new line by more than the rounding
  // band tol, so rounding noise can keep a redundant line (loosening the
  // polygon) but never drops one that bounds it.
  const double tol = 1e-12 * (m + std::abs(c.x) + std::abs(c.y));
  auto outside = [tol](Point2 v, const HalfPlane& h) {
    return Dot(v, h.u) - h.b > tol;
  };
  std::vector<HalfPlane> dq;
  dq.reserve(n + 3);
  size_t head = 0;
  // Returns false once the half-planes provably share no point.
  auto add = [&](const HalfPlane& h) {
    while (dq.size() - head >= 2 &&
           outside(Meet(dq[dq.size() - 2], dq.back()), h)) {
      dq.pop_back();
    }
    while (dq.size() - head >= 2 &&
           outside(Meet(dq[head], dq[head + 1]), h)) {
      ++head;
    }
    if (dq.size() > head) {
      const HalfPlane& back = dq.back();
      if (h.angle - back.angle >= kPi) return false;
      if (Cross(back.u, h.u) <= 0) {
        // Directions closer than their unit vectors resolve: keep the
        // tighter line, or the one already kept when they are within tol.
        if (Dot(back.u, h.u) < 0) return false;
        if (back.b - h.b <= tol) return true;
        dq.pop_back();
      }
    }
    dq.push_back(h);
    return true;
  };

  for (size_t i = 0; i < n; ++i) {
    if (!add(lines[i])) return ConvexPolygon();
    // A CCW gap wider than a quarter turn leaves the region unbounded or
    // nearly so. Every engine keeps its r >= 8 uniform directions, so only
    // decoded views lacking them get here. Split the gap evenly with
    // bounding lines at offset 4m, past the m / cos(pi/4) radius of any
    // region without such a gap (a single sample's gap is the full turn).
    const Direction& a = samples[i].direction;
    const Direction::Gap gap = a.CcwGapTo(samples[(i + 1) % n].direction);
    const uint64_t turn = uint64_t{a.base_r()} << gap.level;
    const uint64_t units = gap.units == 0 ? turn : gap.units;
    const uint64_t pieces = (4 * units + turn - 1) / turn;
    const double step =
        Direction::Gap{units, gap.level}.Radians(a.base_r()) /
        static_cast<double>(pieces);
    for (uint64_t j = 1; j < pieces; ++j) {
      const double angle = lines[i].angle + step * static_cast<double>(j);
      if (!add({UnitVector(angle), 4 * m, angle})) return ConvexPolygon();
    }
  }
  // Close the ring: the last lines may cut the first vertex and vice versa.
  while (dq.size() - head >= 3 &&
         outside(Meet(dq[dq.size() - 2], dq.back()), dq[head])) {
    dq.pop_back();
  }
  while (dq.size() - head >= 3 &&
         outside(Meet(dq[head], dq[head + 1]), dq.back())) {
    ++head;
  }
  if (dq.size() - head < 3 ||
      dq[head].angle + 2 * kPi - dq.back().angle >= kPi) {
    return ConvexPolygon();
  }

  // Adjacent surviving lines meet at the polygon's vertices. Only the
  // closing pair can be numerically parallel; its neighbours' vertices
  // then bound that edge. Coordinates near the top of the double range
  // overflow to vertices no finite polygon holds: the result is empty then.
  std::vector<Point2> vertices;
  vertices.reserve(dq.size() - head);
  for (size_t i = head; i < dq.size(); ++i) {
    const HalfPlane& next = i + 1 < dq.size() ? dq[i + 1] : dq[head];
    if (Cross(dq[i].u, next.u) <= 0) continue;
    const Point2 v = c + Meet(dq[i], next);
    if (!std::isfinite(v.x) || !std::isfinite(v.y)) return ConvexPolygon();
    vertices.push_back(v);
  }
  return ConvexPolygon(ConvexHullOf(std::move(vertices)));
}

}  // namespace streamhull
