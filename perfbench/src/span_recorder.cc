#include "span_recorder.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stats.h"

namespace xkpb {

uint32_t SpanRecorder::Begin(const char* name, uint32_t parent, uint64_t query) {
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.query = query;
  span.name = name;
  span.start_ns = now;
  span.end_ns = now;
  spans_.push_back(span);
  return span.id;
}

void SpanRecorder::End(uint32_t id) {
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = now;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

/// Self time of every span in `spans` (index-aligned), in ms.
std::vector<double> SelfMillis(const std::vector<Span>& spans) {
  // Span ids are positions + 1 within one recorder's output.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 1 && s.parent <= spans.size()) {
      children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

}  // namespace

std::map<std::string, SpanTotals> SpanRecorder::TotalsByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfMillis(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    t.self_ms += self[i];
  }
  return totals;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"query\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.query), s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace xkpb
