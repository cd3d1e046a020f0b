// Incremental verification speedup: a cold `verify-all --incremental` run
// (empty persistent stores) vs. a warm run over the unchanged fleet.
//
// Shape to check: the cold run verifies everything for real and populates
// the stores; the warm run must skip every generator as CACHED_SAFE without
// a single solver dispatch — its cost is fingerprinting plus two file reads —
// and its median must come in at least 5x under the cold median. Both passes
// are repeated kRuns times, interleaved (the stores are removed before each
// cold pass), because a single sub-millisecond warm run is at the mercy of
// one scheduler hiccup. The fleet is the Figure-12 set plus extensions (all
// verifiable); the buggy study pairs are excluded because refutations are
// deliberately never stored (re-running them keeps counterexample reporting
// live), so they would re-verify on every run by design.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verdict_store.h"

namespace {

constexpr int kRuns = 21;  // Repetitions of each pass.

}  // namespace

// Usage: bench_incremental [--json PATH] [--cache-dir DIR]
// --json writes one {name, mean_ms, median_ms, stddev_ms, runs} entry per
// pass over its kRuns repetitions.
int main(int argc, char** argv) {
  using icarus::platform::Platform;
  using icarus::verifier::BatchOptions;
  using icarus::verifier::BatchReport;
  using icarus::verifier::BatchVerifier;
  using icarus::verifier::Outcome;

  std::string json_path;
  std::string cache_dir = ".bench-incremental-cache";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      cache_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_incremental [--json PATH] [--cache-dir DIR]\n");
      return 1;
    }
  }
  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  std::unique_ptr<Platform> platform = loaded.take();
  BatchVerifier batch(platform.get());

  // The verifiable fleet: Figure-12 generators plus extensions.
  std::vector<std::string> fleet;
  for (const auto& info : icarus::platform::Fig12Generators()) {
    fleet.push_back(info.function);
  }
  for (const auto& info : icarus::platform::ExtensionGenerators()) {
    fleet.push_back(info.function);
  }

  BatchOptions options;
  options.incremental = true;
  options.cache_dir = cache_dir;

  std::printf("Incremental verification: cold vs. warm over %zu generators, %d runs each\n\n",
              fleet.size(), kRuns);

  // Gates, checked on every repetition. The cold fleet must fully verify
  // (otherwise the warm numbers are about a different workload), and the
  // warm run must be 100% CACHED_SAFE with zero solver dispatches.
  bool cold_ok = true;
  bool warm_all_cached = true;
  bool warm_no_solving = true;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  for (int run = 0; run < kRuns; ++run) {
    // Start genuinely cold: drop any store an earlier pass left behind.
    std::remove(icarus::verifier::VerdictStorePath(cache_dir).c_str());
    std::remove(icarus::verifier::SolverCacheStorePath(cache_dir).c_str());
    BatchReport cold = batch.VerifyAll(fleet, options).take();
    cold_ms.push_back(cold.wall_seconds * 1e3);
    cold_ok = cold_ok && cold.NumWithOutcome(Outcome::kVerified) == static_cast<int>(fleet.size());
    for (const std::string& note : cold.notes) {
      std::printf("  cold note: %s\n", note.c_str());
    }

    BatchReport warm = batch.VerifyAll(fleet, options).take();
    warm_ms.push_back(warm.wall_seconds * 1e3);
    warm_all_cached = warm_all_cached &&
                      warm.NumWithOutcome(Outcome::kCachedSafe) == static_cast<int>(fleet.size());
    warm_no_solving = warm_no_solving && warm.cache.lookups() == 0;
    for (const std::string& note : warm.notes) {
      std::printf("  warm note: %s\n", note.c_str());
    }
  }

  icarus::SampleStats cold = icarus::ComputeStats(cold_ms);
  icarus::SampleStats warm = icarus::ComputeStats(warm_ms);
  std::printf("%-24s %10s %10s %10s %10s\n", "pass", "median ms", "stddev ms", "min ms",
              "max ms");
  auto row = [](const char* name, const icarus::SampleStats& stats) {
    std::printf("%-24s %10.3f %10.3f %10.3f %10.3f\n", name, stats.median, stats.stddev,
                stats.min, stats.max);
  };
  row("cold (empty stores)", cold);
  row("warm (unchanged fleet)", warm);
  double speedup = warm.median > 0 ? cold.median / warm.median : 0.0;
  bool speedup_ok = warm.median == 0.0 || speedup >= 5.0;

  std::printf("\ncold runs fully verified: %s\n", cold_ok ? "yes" : "NO");
  std::printf("warm runs 100%% CACHED_SAFE: %s\n", warm_all_cached ? "yes" : "NO");
  std::printf("warm runs dispatched zero solver queries: %s\n", warm_no_solving ? "yes" : "NO");
  std::printf(">=5x cold/warm median speedup (%.1fx): %s\n", speedup, speedup_ok ? "yes" : "NO");

  if (!json_path.empty()) {
    // The warm run completes in well under a millisecond; the regression
    // gate's absolute noise floor (CompareBenchRuns) keeps scheduler jitter
    // there from flagging, so the JSON carries the measured times unaltered.
    std::vector<icarus::obs::BenchEntry> entries;
    entries.push_back({"cold_incremental", cold.mean, cold.median, cold.stddev, kRuns});
    entries.push_back({"warm_incremental", warm.mean, warm.median, warm.stddev, kRuns});
    icarus::Status st = icarus::obs::WriteBenchJson(json_path, "bench_incremental", entries);
    if (!st.ok()) {
      std::fprintf(stderr, "--json: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return cold_ok && warm_all_cached && warm_no_solving && speedup_ok ? 0 : 1;
}
