#include "spans.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() {
  spans_.reserve(1 << 16);
}

int64_t Tracer::NowNs() const {
  return static_cast<int64_t>(epoch_.ElapsedSeconds() * 1e9);
}

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  // Children of one parent are sequential (one thread records), so the part
  // of a parent its children cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"request\": %lld}",
                 i == 0 ? "" : ",\n", i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n], \"self_times\": {");
  bool first = true;
  for (const auto& [name, t] : Totals()) {
    std::fprintf(f, "%s\n\"%s\": {\"count\": %lld, \"total_ms\": %.6f, \"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(), static_cast<long long>(t.count), t.total_ms,
                 t.self_ms);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
