// Reproduces Figure 10: the adaptive (r=16, fixed 2r) and uniform (r=32)
// sample hulls for the "ellipse rotated by theta0/4" workload, rendered with
// their uncertainty triangles and sample-direction rays. Writes
// fig10_adaptive.svg and fig10_uniform.svg into the working directory and
// prints summary statistics for the rendered summaries.

#include <cstdio>

#include "core/adaptive_hull.h"
#include "eval/metrics.h"
#include "eval/svg.h"
#include "stream/generators.h"

int main() {
  using namespace streamhull;
  constexpr double kTheta0 = 2.0 * 3.14159265358979323846 / 32.0;
  const uint64_t n = 100000;

  EllipseGenerator gen(20040614, 16.0, kTheta0 / 4.0);
  const auto stream = gen.Take(n);

  AdaptiveHullOptions ao;
  ao.r = 16;
  ao.mode = SamplingMode::kFixedSize;
  AdaptiveHull adaptive(ao);
  UniformHull uniform(32);
  for (const Point2& p : stream) {
    adaptive.Insert(p);
    uniform.Insert(p);
  }

  {
    SvgCanvas canvas(900, 400);
    canvas.AddPoints(stream, "#c8c8c8", 0.6);
    canvas.AddHullFigure(adaptive, "#b40426", "#6a9fd8");
    if (!canvas.WriteFile("fig10_adaptive.svg").ok()) {
      std::fprintf(stderr, "failed to write fig10_adaptive.svg\n");
      return 1;
    }
  }
  {
    SvgCanvas canvas(900, 400);
    canvas.AddPoints(stream, "#c8c8c8", 0.6);
    canvas.AddHullFigure(uniform, "#b40426", "#6a9fd8");
    if (!canvas.WriteFile("fig10_uniform.svg").ok()) {
      std::fprintf(stderr, "failed to write fig10_uniform.svg\n");
      return 1;
    }
  }

  const HullQuality aq =
      EvaluateHull(adaptive.Polygon(), adaptive.Triangles(), stream);
  const HullQuality uq =
      EvaluateHull(uniform.Polygon(), uniform.Triangles(), stream);
  std::printf("Figure 10 workload: ellipse aspect 16 rotated by theta0/4, "
              "n=%llu\n",
              static_cast<unsigned long long>(n));
  std::printf("  wrote fig10_adaptive.svg (%zu samples) and "
              "fig10_uniform.svg (%zu samples)\n",
              adaptive.num_directions(), uniform.Samples().size());
  std::printf("  adaptive: max uncertainty height %.6f, %.2f%% points outside\n",
              aq.max_triangle_height, aq.pct_outside);
  std::printf("  uniform : max uncertainty height %.6f, %.2f%% points outside\n",
              uq.max_triangle_height, uq.pct_outside);
  std::printf("Expected shape (paper): uniform's triangles dwarf adaptive's; "
              "~36%% of points fall outside the uniform hull vs ~2.5%% for "
              "adaptive.\n");
  return 0;
}
