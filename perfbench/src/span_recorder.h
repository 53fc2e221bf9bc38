// In-memory span recorder for the traced run. The benchmark wraps its calls
// into each library layer in spans (name, start, end, parent span, and a
// query id shared by the spans of one query); nothing is written until the
// run ends. Self time of a span is its duration minus the part of its
// interval covered by its children.

#ifndef XK_PERFBENCH_SPAN_RECORDER_H_
#define XK_PERFBENCH_SPAN_RECORDER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xkpb {

struct Span {
  uint32_t id = 0;      // 1-based; 0 = none
  uint32_t parent = 0;  // 0 = root
  uint64_t query = 0;
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Thread-safe: callers on several threads may record into one recorder.
class SpanRecorder {
 public:
  uint32_t Begin(const char* name, uint32_t parent, uint64_t query);
  void End(uint32_t id);

  std::vector<Span> Spans() const;

  /// Count, total and self time per span name.
  static std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

  /// One JSON object per line. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; `recorder` may be null (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint32_t parent, uint64_t query)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent, query) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

}  // namespace xkpb

#endif  // XK_PERFBENCH_SPAN_RECORDER_H_
