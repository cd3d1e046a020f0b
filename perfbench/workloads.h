// The benchmark's four closed-loop workloads. One client sends a request,
// waits for its verdicts, checks them against the known answers, and only
// then sends the next.
//
//   sweep        BatchVerifier::VerifyAll over all 38 generators, jobs=1,
//                fresh verifier and solver cache per request.
//   sweep_par    the same at jobs = min(4, nproc).
//   cli_verify   one `icarus verify <gen>` process per request, or
//                `icarus explain <gen>` for the buggy generators.
//   incremental  VerifyAll(incremental) against stores that hold the PASSes
//                and solver queries of all but a seeded quarter of the
//                verifiable units ("edited"), rebuilt before each request
//                outside the timed region.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "src/meta/meta_executor.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string icarus_bin;  // The `icarus` CLI built from the same sources.
  std::string out_dir;     // Scratch space inside the checkout.
};

// Fisher-Yates shuffle driven by the seeded input stream, so the same seed
// gives the same order on every platform.
template <typename T>
void Shuffle(icarus::Rng& rng, std::vector<T>& v) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// What one request cost, measured over its timed region only.
struct RequestCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int verdicts = 0;
};

// Stage and counter fields the library's calls return, summed per request.
struct RequestLayers {
  double meta_run_ms = 0.0;
  double meta_gen_ms = 0.0;
  double meta_interp_ms = 0.0;
  double sym_solve_ms = 0.0;
  double paths_explored = 0.0;
  double paths_merged = 0.0;
  double queries = 0.0;
  double decisions = 0.0;
  double learned = 0.0;

  void AddMeta(const icarus::meta::MetaResult& m);
};

// Everything traced requests report, across the run.
struct LayerCounters {
  std::vector<RequestLayers> requests;
  int64_t cache_hits = 0;     // Shared solver-cache hits (BatchReport::cache).
  int64_t cache_lookups = 0;
  int64_t rows = 0;           // Generator verdicts seen.
  int64_t cached_safe_rows = 0;
  std::vector<double> task_ms;  // One per generator task.
  double task_busy_s = 0.0;     // Sum of task seconds.
  double pool_capacity_s = 0.0; // Sum of jobs x batch wall.
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Loads, seeds and warms up. Called once per set-up measurement.
  virtual icarus::Status SetUp() = 0;

  // Sends one request and checks its verdicts into `ledger`. With a tracer,
  // wraps its calls in spans and adds what they return to `layers`.
  virtual RequestCost Request(icarus::Rng& rng, FailLedger& ledger, Tracer* tracer,
                              LayerCounters* layers) = 0;

  // Peak resident memory (MiB) of the process doing the work.
  virtual double PeakRssMb() const = 0;
};

// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
