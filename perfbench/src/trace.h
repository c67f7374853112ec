// perfbench: the benchmark's own span recorder and allocation counter.
//
// Spans wrap the benchmark's calls into the library's public functions, one
// name per layer boundary ("core.insert", "multi.poll", ...). Each span
// records its name, start, end, parent span and request id. Spans stay in
// memory (up to a cap; aggregates are kept for every span regardless) and
// are written out when the run ends. Self time is a span's duration minus
// the time its child spans cover. Any benchmark thread may record spans
// (each thread nests its own); nothing inside the library is instrumented.
//
// The allocation counter is a global operator new override in this binary:
// while counting is on, every heap allocation (library code included, on
// any thread) bumps one relaxed atomic.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Per-name aggregate over every recorded span.
struct SpanAggregate {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  double total_ms() const { return static_cast<double>(total_ns) * 1e-6; }
  double mean_us() const {
    return count == 0 ? 0 : static_cast<double>(total_ns) * 1e-3 /
                                static_cast<double>(count);
  }
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span nested in the innermost open one.
  void Begin(std::string_view name, uint64_t request_id);
  /// Closes the innermost open span.
  void End();

  /// Aggregates by name (self time included) since the last
  /// ResetAggregates(). Read them only while no other thread records spans.
  const std::map<std::string, SpanAggregate, std::less<>>& aggregates() const {
    return aggregates_;
  }
  const SpanAggregate& Of(std::string_view name) const;

  /// Drops aggregates (recorded spans are kept for the final dump). Call
  /// only while no other thread records spans.
  void ResetAggregates() { aggregates_.clear(); }

  /// Writes every recorded span as TSV (id, parent, request, name, start,
  /// end, self) to \p path. Returns false on I/O failure.
  bool WriteTsv(const std::string& path, const std::string& header) const;

  uint64_t recorded() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Record {
    uint32_t name = 0;
    int64_t parent = -1;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t self_ns = 0;
  };
  uint32_t Intern(std::string_view name);

  std::atomic<bool> enabled_{false};
  std::mutex mu_;  // Guards everything below.
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
  std::vector<Record> spans_;
  std::map<std::string, SpanAggregate, std::less<>> aggregates_;
  uint64_t dropped_ = 0;
};

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(std::string_view name, uint64_t request_id = 0)
      : on_(Tracer::Get().enabled()) {
    if (on_) Tracer::Get().Begin(name, request_id);
  }
  ~Span() {
    if (on_) Tracer::Get().End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Turns allocation counting on (from zero) or off.
void SetAllocCounting(bool on);
/// Allocations counted since counting was last turned on.
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
