#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

namespace {

// Raw spans kept for the dump; aggregates cover every span past the cap.
constexpr size_t kMaxRecordedSpans = 1u << 18;

// One open span on the calling thread's stack.
struct OpenSpan {
  uint32_t name;
  int64_t record;  // Index into the recorded spans, or -1 past the cap.
  int64_t start_ns;
  int64_t child_ns;
};

thread_local std::vector<OpenSpan> t_stack;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint32_t Tracer::Intern(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

void Tracer::Begin(std::string_view name, uint64_t request_id) {
  OpenSpan open;
  open.child_ns = 0;
  open.record = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open.name = Intern(name);
    if (spans_.size() < kMaxRecordedSpans) {
      open.record = static_cast<int64_t>(spans_.size());
      Record rec;
      rec.name = open.name;
      rec.request = request_id;
      // The parent is this thread's innermost open span with a record.
      for (auto it = t_stack.rbegin(); it != t_stack.rend(); ++it) {
        if (it->record >= 0) {
          rec.parent = it->record;
          break;
        }
      }
      spans_.push_back(rec);
    } else {
      ++dropped_;
    }
  }
  open.start_ns = NowNs();
  t_stack.push_back(open);
}

void Tracer::End() {
  const int64_t end = NowNs();
  const OpenSpan open = t_stack.back();
  t_stack.pop_back();
  const int64_t dur = end - open.start_ns;
  const int64_t self = dur - open.child_ns;
  if (!t_stack.empty()) t_stack.back().child_ns += dur;
  std::lock_guard<std::mutex> lock(mu_);
  if (open.record >= 0) {
    Record& rec = spans_[static_cast<size_t>(open.record)];
    rec.start_ns = open.start_ns;
    rec.end_ns = end;
    rec.self_ns = self;
  }
  SpanAggregate& agg = aggregates_[names_[open.name]];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += self;
}

const SpanAggregate& Tracer::Of(std::string_view name) const {
  static const SpanAggregate kEmpty;
  auto it = aggregates_.find(name);
  return it == aggregates_.end() ? kEmpty : it->second;
}

bool Tracer::WriteTsv(const std::string& path,
                      const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n# spans=%zu dropped=%llu\n", header.c_str(),
               spans_.size(), static_cast<unsigned long long>(dropped_));
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%lld\t%lld\t%lld\n", i,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.request),
                 names_[r.name].c_str(), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.self_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
