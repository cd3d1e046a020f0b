#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "src/support/timing.h"

namespace perfbench {

namespace {

size_t RankOf(size_t n, double p) {
  return static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  // Shortest text that reads back as exactly `v`.
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

}  // namespace

std::optional<Percentile> PercentileOf(std::vector<double> samples, double p) {
  size_t n = samples.size();
  size_t rank = RankOf(n, p);
  if (n == 0 || rank == 0 || n - rank < kMinBeyond) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  return Percentile{icarus::Percentile(samples, p), n, n - rank};
}

size_t MinSamplesFor(double p) {
  size_t n = 1;
  while (n - RankOf(n, p) < kMinBeyond) {
    ++n;
  }
  return n;
}

void FailLedger::Record(bool ok, const std::string& why_not) {
  ++attempted_;
  if (ok) {
    return;
  }
  ++failed_;
  if (reasons_.size() < kMaxReasons) {
    reasons_.push_back(why_not);
  }
}

double FailLedger::ratio() const {
  return attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

std::string RenderResultLine(const FailLedger& ledger, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.passed() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted());
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
