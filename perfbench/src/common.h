// perfbench: shared plumbing for the workload loops — run settings, the
// result record every loop writes into, clocks and order statistics.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Settings of one benchmark run, parsed from the command line.
struct RunSettings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< Total timed budget of the run.
  bool trace = false;   ///< Traced run: per-layer metrics instead of e2e.
  std::string daemon;   ///< Path of the streamhulld binary.
  std::string run_dir;  ///< Directory for sockets, daemon logs, traces.
};

/// One reported number with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// \brief Everything a run reports: end-to-end metrics, per-layer metrics,
/// operation counts, and output-check violations. Each workload loop
/// writes into the same record.
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  uint64_t attempted = 0;  ///< Operations whose output was checked.
  uint64_t failed = 0;     ///< Operations that failed (server-fanin).
  std::vector<std::string> violations;  ///< Output checks that failed.

  void E2e(const std::string& name, double v, const std::string& unit) {
    e2e[name] = Metric{v, unit};
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    layer[name] = Metric{v, unit};
  }
  /// Records a failed output check; any violation fails the run.
  void Violation(std::string what) {
    if (violations.size() < 64) violations.push_back(std::move(what));
    else if (violations.size() == 64) violations.push_back("(more elided)");
  }
};

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile q in [0, 1] of \p v (copied and sorted).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(i);
  return v[i] + (v[i + 1] - v[i]) * frac;
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// 64-bit FNV-1a, for order-sensitive hashes of event streams.
inline uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// \brief One workload loop. The runner prepares every loop, then runs
/// their timed steps interleaved (each loop in proportion to its share of
/// the budget, so a burst of machine noise lands on all loops a little
/// rather than on one loop entirely), then asks each for its metrics.
class Loop {
 public:
  virtual ~Loop() = default;
  /// Untimed preparation: corpora, reference passes.
  virtual void Prepare() = 0;
  /// One unit of timed work.
  virtual void Step() = 0;
  /// True once the loop holds whole units and the samples its metrics need.
  virtual bool Enough() const = 0;
  /// End-to-end metrics from the timed steps.
  virtual void Finish() = 0;
  /// Traced passes and per-layer metrics (traced runs only).
  virtual void Trace() = 0;

  /// Set-up time samples, one per repetition; setup_s sums their medians.
  const std::vector<double>& setup_s() const { return setup_s_; }

 protected:
  std::vector<double> setup_s_;
};

std::unique_ptr<Loop> MakeIngestAccept(const RunSettings& settings,
                                       Report* report);
std::unique_ptr<Loop> MakeFleetTick(const RunSettings& settings,
                                    Report* report);
std::unique_ptr<Loop> MakeServerFanin(const RunSettings& settings,
                                      Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
