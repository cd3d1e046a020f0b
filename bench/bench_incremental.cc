// Incremental verification speedup: a cold `verify-all --incremental` run
// (empty persistent stores) vs. a warm run over the unchanged fleet.
//
// Shape to check: the cold run verifies everything for real and populates
// the stores; the warm run must skip every generator as CACHED_SAFE without
// a single solver dispatch — its cost is fingerprinting plus two file reads —
// and come in at least 5x faster than the cold run. The fleet is the
// Figure-12 set plus extensions (all verifiable); the buggy study pairs are
// excluded because refutations are deliberately never stored (re-running
// them keeps counterexample reporting live), so they would re-verify on
// every run by design.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verdict_store.h"

// Usage: bench_incremental [--json PATH] [--cache-dir DIR]
// --json writes one {name, mean_ms, median_ms, stddev_ms, runs} entry per
// phase (single run each, so mean == median and stddev is 0).
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

  // Start genuinely cold: drop any store a previous run left behind.
  std::remove(icarus::verifier::VerdictStorePath(cache_dir).c_str());
  std::remove(icarus::verifier::SolverCacheStorePath(cache_dir).c_str());

  BatchOptions options;
  options.incremental = true;
  options.cache_dir = cache_dir;

  std::printf("Incremental verification: cold vs. warm over %zu generators\n\n", fleet.size());

  BatchReport cold = batch.VerifyAll(fleet, options).take();
  int cold_verified = cold.NumWithOutcome(Outcome::kVerified);
  std::printf("%-24s wall %7.3fs   %d/%zu verified\n", "cold (empty stores)", cold.wall_seconds,
              cold_verified, fleet.size());
  for (const std::string& note : cold.notes) {
    std::printf("  note: %s\n", note.c_str());
  }

  BatchReport warm = batch.VerifyAll(fleet, options).take();
  int warm_cached = warm.NumWithOutcome(Outcome::kCachedSafe);
  double speedup = warm.wall_seconds > 0 ? cold.wall_seconds / warm.wall_seconds : 0.0;
  std::printf("%-24s wall %7.3fs   %d/%zu cached safe   speedup %5.1fx\n",
              "warm (unchanged fleet)", warm.wall_seconds, warm_cached, fleet.size(), speedup);
  for (const std::string& note : warm.notes) {
    std::printf("  note: %s\n", note.c_str());
  }

  // Gates. The cold fleet must fully verify (otherwise the warm numbers are
  // about a different workload), the warm run must be 100% CACHED_SAFE with
  // zero solver dispatches, and the skip must be worth at least 5x.
  bool cold_ok = cold_verified == static_cast<int>(fleet.size());
  bool warm_all_cached = warm_cached == static_cast<int>(fleet.size());
  bool warm_no_solving = warm.cache.lookups() == 0;
  bool speedup_ok = warm.wall_seconds == 0.0 || speedup >= 5.0;

  std::printf("\ncold run fully verified: %s\n", cold_ok ? "yes" : "NO");
  std::printf("warm run 100%% CACHED_SAFE: %s\n", warm_all_cached ? "yes" : "NO");
  std::printf("warm run dispatched zero solver queries: %s\n", warm_no_solving ? "yes" : "NO");
  std::printf(">=5x cold/warm speedup: %s\n", speedup_ok ? "yes" : "NO");

  if (!json_path.empty()) {
    // The warm run completes in microseconds; the regression gate's absolute
    // noise floor (CompareBenchRuns) keeps scheduler jitter there from
    // flagging, so the JSON carries the measured times unaltered.
    std::vector<icarus::obs::BenchEntry> entries;
    entries.push_back({"cold_incremental", cold.wall_seconds * 1e3, cold.wall_seconds * 1e3,
                       0.0, 1});
    entries.push_back({"warm_incremental", warm.wall_seconds * 1e3, warm.wall_seconds * 1e3,
                       0.0, 1});
    icarus::Status st = icarus::obs::WriteBenchJson(json_path, "bench_incremental", entries);
    if (!st.ok()) {
      std::fprintf(stderr, "--json: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return cold_ok && warm_all_cached && warm_no_solving && speedup_ok ? 0 : 1;
}
