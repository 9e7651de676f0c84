// In-memory span recorder for the benchmark's traced run.
//
// The benchmark records a span around each call it makes into a layer of
// the engine: name, start, end, parent span and a per-request id. Spans
// stay in memory while the workload runs and are written out once at the
// end, so recording costs two clock reads and one vector append. A
// layer's self time is its span minus the time its child spans cover.
//
// Single-threaded: the harness makes every call from its one client
// thread (SearchBatch fans out inside the engine, under one span).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Time spent under one span name, summed over its spans.
  struct Aggregate {
    double total_s = 0;
    double self_s = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_ && !paused_; }
  /// Suspends recording (the untraced half of the overhead measurement).
  void set_paused(bool paused) { paused_ = paused; }

  uint32_t Intern(std::string_view name) {
    for (uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  /// Opens a span under the innermost open span; returns its index.
  uint32_t Begin(uint32_t name, uint64_t request) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? kNoParent : open_.back();
    span.request = request;
    span.start_ns = Now();
    spans_.push_back(span);
    open_.push_back(static_cast<uint32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(uint32_t span) {
    spans_[span].end_ns = Now();
    open_.pop_back();
  }

  /// Per-name totals and self times (span minus its children).
  std::map<std::string, Aggregate> Aggregates() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, Aggregate> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Aggregate& a = out[names_[s.name]];
      a.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      a.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                  1e-9;
    }
    return out;
  }

  /// Writes every span as CSV: index,name,parent,request,start_ns,end_ns
  /// (parent -1 for a root span). Returns false on an I/O error.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "index,name,parent,request,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%s,%lld,%llu,%lld,%lld\n", i,
                   names_[s.name].c_str(),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  bool paused_ = false;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; records nothing while the tracer is disabled or paused.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, uint32_t name, uint64_t request)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) index_ = tracer_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t index_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
