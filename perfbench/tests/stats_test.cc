// Tests for the benchmark's percentile rule, fail accounting, result line
// and known-answer checks. Build and run with the benchmark's own build:
//
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_stats_test
//   ctest --test-dir .bench_build/perfbench
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "reference.h"
#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) {
    v.push_back(static_cast<double>(i));  // Descending: the percentile must sort.
  }
  return v;
}

void TestPercentileRule() {
  using perfbench::PercentileOf;
  Check(perfbench::MinSamplesFor(0.9) == 100, "p90 needs 100 samples");
  Check(perfbench::MinSamplesFor(0.5) == 20, "p50 needs 20 samples");
  Check(!PercentileOf(Iota(99), 0.9), "p90 of 99 samples is refused");
  auto p90 = PercentileOf(Iota(100), 0.9);
  Check(p90 && p90->value == 90.0 && p90->samples == 100 && p90->beyond == 10,
        "p90 of 1..100 is 90 with 10 beyond");
  Check(!PercentileOf(Iota(19), 0.5), "median of 19 samples is refused");
  auto p50 = PercentileOf(Iota(21), 0.5);
  Check(p50 && p50->value == 11.0 && p50->beyond == 10, "median of 1..21 is 11");
  Check(!PercentileOf({}, 0.5), "empty sample set is refused");
  // No clamping: sub-millisecond values survive unchanged.
  std::vector<double> tiny(30, 0.000123);
  auto small = PercentileOf(tiny, 0.5);
  Check(small && small->value == 0.000123, "microsecond values are not clamped");
}

void TestFailLedger() {
  perfbench::FailLedger ledger;
  Check(!ledger.passed() && ledger.ratio() == 0.0, "an empty ledger does not pass");
  ledger.Record(true, "");
  ledger.Record(true, "");
  Check(ledger.passed() && ledger.ratio() == 0.0, "all-correct ledger passes");
  ledger.Record(false, "gen: expected VERIFIED, got INCONCLUSIVE");
  ledger.Record(true, "");
  Check(!ledger.passed(), "one wrong verdict fails the run");
  Check(ledger.attempted() == 4 && ledger.failed() == 1, "attempted and failed counts");
  Check(ledger.ratio() == 0.25, "fail ratio is failed / attempted");
  Check(ledger.reasons().size() == 1, "the failure reason is kept");
  for (int i = 0; i < 20; ++i) {
    ledger.Record(false, "again");
  }
  Check(ledger.failed() == 21 && ledger.reasons().size() == 8, "reasons are bounded");
}

void TestResultLine() {
  perfbench::FailLedger ledger;
  ledger.Record(true, "");
  std::string line =
      perfbench::RenderResultLine(ledger, {{"latency_ms_p50", 1.2034567891, "ms"}});
  Check(line ==
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
            "{\"latency_ms_p50\": {\"value\": 1.2034567891, \"unit\": \"ms\"}}}",
        "result line shape and full precision");
  ledger.Record(false, "x");
  Check(perfbench::RenderResultLine(ledger, {}).find("\"correct\": false") != std::string::npos,
        "a failed request makes the result incorrect");
}

void TestOracle() {
  using perfbench::Expected;
  std::vector<perfbench::KnownAnswer> answers = perfbench::KnownAnswers();
  int buggy = 0;
  std::vector<std::string> names;
  for (const auto& a : answers) {
    buggy += a.expected == Expected::kCounterexample;
    names.push_back(a.generator);
  }
  Check(answers.size() == 38 && buggy == 6, "38 known answers, 6 counterexamples");
  Check(perfbench::CheckGeneratorSet(names).empty(), "known set matches itself");
  names.pop_back();
  Check(!perfbench::CheckGeneratorSet(names).empty(), "a missing generator is reported");

  const std::string verified = "=== g ===\nVERIFIED\npaths: 1\n";
  const std::string refuted =
      "=== b ===\nCOUNTEREXAMPLE FOUND\n...\nreplay with pinned witnesses: violation REPRODUCED "
      "(counterexample confirmed concrete)\n";
  const std::string unreplayed =
      "=== b ===\nCOUNTEREXAMPLE FOUND\nreplay with pinned witnesses: violation NOT reproduced\n";
  Check(perfbench::CheckCliOutput("g", Expected::kVerified, 0, verified).empty(),
        "verify VERIFIED exit 0 passes");
  Check(!perfbench::CheckCliOutput("g", Expected::kVerified, 1, verified).empty(),
        "unexpected exit code fails");
  Check(!perfbench::CheckCliOutput("g", Expected::kVerified, 0,
                                   "=== g ===\nINCONCLUSIVE\n")
             .empty(),
        "INCONCLUSIVE fails");
  Check(perfbench::CheckCliOutput("b", Expected::kCounterexample, 0, refuted).empty(),
        "explain with REPRODUCED passes");
  Check(!perfbench::CheckCliOutput("b", Expected::kCounterexample, 0, unreplayed).empty(),
        "explain without REPRODUCED fails");
  Check(!perfbench::CheckCliOutput("b", Expected::kCounterexample, 0, verified).empty(),
        "a buggy generator that verifies fails");

  using icarus::verifier::Outcome;
  icarus::verifier::GeneratorResult row;
  row.generator = "g";
  row.outcome = Outcome::kVerified;
  Check(perfbench::CheckRow(row, Outcome::kVerified).empty(), "matching row passes");
  for (Outcome bad : {Outcome::kRefuted, Outcome::kInconclusive, Outcome::kError,
                      Outcome::kInternalError, Outcome::kCachedSafe}) {
    row.outcome = bad;
    Check(!perfbench::CheckRow(row, Outcome::kVerified).empty(), "mismatched row fails");
  }
  Check(perfbench::WantedOutcome(Expected::kCounterexample) == Outcome::kRefuted,
        "buggy generators want COUNTEREXAMPLE");
}

}  // namespace

// The reference kernel is what CPU-time metrics are rescaled by, so a sample
// must be a positive, finite time and repeat within an order of magnitude.
void TestReferenceKernel() {
  double first = perfbench::ReferenceKernelMs();
  double second = perfbench::ReferenceKernelMs();
  Check(first > 0 && second > 0, "reference kernel takes CPU time");
  Check(first < 10 * second && second < 10 * first, "reference kernel repeats");
}

int main() {
  TestPercentileRule();
  TestFailLedger();
  TestResultLine();
  TestOracle();
  TestReferenceKernel();
  if (g_failures == 0) {
    std::printf("perfbench_stats_test: all checks passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
