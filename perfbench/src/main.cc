// perfbench: the streamhull end-to-end benchmark runner.
//
//   streamhull_perfbench --workload ingest-accept|fleet-tick|server-fanin
//                        --seed N --seconds S --trace 0|1
//                        --daemon PATH/streamhulld --run-dir DIR
//
// Every run executes all three workload loops, so every run reports every
// end-to-end metric: the named workload's loop gets 40% of the timed
// budget and the other two 30% each, their steps interleaved (every metric
// must be steady in every workload's runs, so the smaller shares set the
// noise). With
// --trace 0 the run prints the end-to-end metrics; with --trace 1 it also
// runs traced passes (spans around the benchmark's calls into each src/
// module, allocation counting, in-process stage replays) and prints the
// per-layer metrics.
// The last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// The exit code is 0 only when every output check passed.

#include <sys/personality.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "geom/kernels.h"
#include "trace.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: streamhull_perfbench --workload "
               "ingest-accept|fleet-tick|server-fanin --seed N --seconds S "
               "--trace 0|1 --daemon PATH --run-dir DIR\n");
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const std::map<std::string, Metric>& metrics,
                  Report* report) {
  for (const auto& [name, m] : metrics) {
    std::printf("  %-44s %22.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) report->Violation(name + " is not finite");
  }
}

std::string Json(const Report& report,
                 const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += report.violations.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " +
           JsonNumber(std::isfinite(m.value) ? m.value : 0) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  RunSettings settings;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") settings.workload = v;
    else if (flag == "--seed") settings.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") settings.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") settings.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--daemon") settings.daemon = v;
    else if (flag == "--run-dir") settings.run_dir = v;
    else return Usage();
  }
  if (argc % 2 != 1 || settings.daemon.empty() || settings.run_dir.empty() ||
      !(settings.seconds > 0)) {
    return Usage();
  }
  const char* kWorkloads[] = {"ingest-accept", "fleet-tick", "server-fanin"};
  int primary = -1;
  for (int w = 0; w < 3; ++w) {
    if (settings.workload == kWorkloads[w]) primary = w;
  }
  if (primary < 0) return Usage();

  // run.py turns address-space randomization off; say whether it took.
  const int persona = ::personality(0xffffffff);
  std::printf("machine: nproc=%u simd=%s compiler=%s build=%s layout=%s\n",
              std::thread::hardware_concurrency(),
              streamhull::SimdIsaName(streamhull::ActiveSimdIsa()),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              persona != -1 && (persona & ADDR_NO_RANDOMIZE) ? "fixed"
                                                              : "randomized");
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              settings.workload.c_str(),
              static_cast<unsigned long long>(settings.seed), settings.seconds,
              settings.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  std::unique_ptr<Loop> loops[] = {MakeIngestAccept(settings, &report),
                                   MakeFleetTick(settings, &report),
                                   MakeServerFanin(settings, &report)};
  for (auto& loop : loops) {
    loop->Prepare();
    std::fflush(stdout);
  }
  // Interleave timed steps: always advance the loop furthest behind its
  // share of the budget, until every loop has spent its share and holds
  // whole units.
  double budget[3], used[3] = {0, 0, 0};
  for (int w = 0; w < 3; ++w) {
    budget[w] = settings.seconds * (w == primary ? 0.4 : 0.3);
  }
  for (;;) {
    int next = -1;
    for (int w = 0; w < 3; ++w) {
      if (used[w] >= budget[w] && loops[w]->Enough()) continue;
      if (next < 0 || used[w] / budget[w] < used[next] / budget[next]) next = w;
    }
    if (next < 0) break;
    const int64_t t0 = NowNs();
    loops[next]->Step();
    used[next] += SecondsSince(t0);
  }
  std::printf("timed: ingest-accept %.2f s, fleet-tick %.2f s, server-fanin "
              "%.2f s\n", used[0], used[1], used[2]);
  double setup_s = 0;
  for (auto& loop : loops) {
    loop->Finish();
    setup_s += Median(loop->setup_s());
  }
  report.E2e("setup_s", setup_s, "s");
  if (settings.trace) {
    for (auto& loop : loops) loop->Trace();
  }
  std::fflush(stdout);

  std::printf("end-to-end metrics:\n");
  PrintMetrics(report.e2e, &report);
  if (settings.trace) {
    std::printf("per-layer metrics:\n");
    PrintMetrics(report.layer, &report);
    const std::string path = settings.run_dir + "/" + settings.workload +
                             "-seed" + std::to_string(settings.seed) +
                             ".spans.tsv";
    if (!Tracer::Get().WriteTsv(path, settings.workload)) {
      report.Violation("could not write " + path);
    } else {
      std::printf("spans: %llu recorded (%llu past the cap) -> %s\n",
                  static_cast<unsigned long long>(Tracer::Get().recorded()),
                  static_cast<unsigned long long>(Tracer::Get().dropped()),
                  path.c_str());
    }
  }
  for (const std::string& v : report.violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  const auto& metrics = settings.trace ? report.layer : report.e2e;
  std::printf("%s\n", Json(report, metrics).c_str());
  return report.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
