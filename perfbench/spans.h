// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the driver around its own calls into the library's
// public functions; nothing inside the library is instrumented. Each span has
// a name, start, end, parent and request id. Spans stay in memory until the
// run ends, when WriteJson dumps them together with per-name self times (a
// span's duration minus the part of it its children cover).
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/support/timing.h"

namespace perfbench {

struct Span {
  const char* name = "";   // Static string naming the wrapped call.
  int64_t start_ns = 0;    // Relative to the tracer's epoch.
  int64_t end_ns = 0;
  int32_t parent = -1;     // Index of the enclosing span, -1 at top level.
  int64_t request = -1;    // Request id; -1 for set-up and probe spans.
};

struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer();

  // Opens a span nested in the innermost open span; returns its index.
  int32_t Begin(const char* name);
  // Closes span `index`, which must be the innermost open span.
  void End(int32_t index);
  // Tags spans opened from now on with `request` (-1: none).
  void set_request(int64_t request) { request_ = request; }

  const std::vector<Span>& spans() const { return spans_; }
  // Per span name: count, summed duration and summed self time.
  std::map<std::string, SpanTotals> Totals() const;
  // Writes {"spans": [...], "self_times": {...}} to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  icarus::WallTimer epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t request_ = -1;
};

// RAII span; a null tracer records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
