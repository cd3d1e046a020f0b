// Statistics and accounting shared by the benchmark driver and its tests.
//
// Percentiles are nearest-rank over raw samples: no clamping, no rounding,
// no interpolation. A percentile is only reported when at least
// kMinBeyond samples lie strictly above its rank, so a "p90" always rests on
// a tail of ten or more observations.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  size_t samples = 0;  // Sample count the percentile was taken over.
  size_t beyond = 0;   // Samples strictly above its rank.
};

// Nearest-rank percentile, 0 < p < 1: the sample at rank ceil(p * n).
// Returns nullopt when fewer than kMinBeyond samples lie beyond that rank.
std::optional<Percentile> PercentileOf(std::vector<double> samples, double p);

// Smallest sample count for which PercentileOf(·, p) is defined.
size_t MinSamplesFor(double p);

// Counts requests attempted and requests whose verdict was wrong or missing.
// Keeps the first few failure reasons for the run's diagnostics.
class FailLedger {
 public:
  void Record(bool ok, const std::string& why_not);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  // failed / attempted; 0 when nothing was attempted.
  double ratio() const;
  // A run passes only when it attempted something and nothing failed.
  bool passed() const { return attempted_ > 0 && failed_ == 0; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  static constexpr size_t kMaxReasons = 8;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

// One named metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // For a percentile, its sample count and the samples beyond its rank
  // (printed beside the value; not part of the result line).
  size_t samples = 0;
  size_t beyond = 0;
};

// The benchmark's last stdout line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}, with every value printed to full
// double precision.
std::string RenderResultLine(const FailLedger& ledger, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
