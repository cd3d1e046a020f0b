// Time-to-verdict benchmark driver.
//
//   perfbench_driver --workload <sweep|sweep_par|cli_verify|incremental>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --icarus <path to the icarus CLI> --out <scratch dir>
//
// Untraced runs (--trace 0) send closed-loop requests for --seconds, setting
// the workload up afresh 41 times along the way and sampling the reference
// kernel between requests, and report the end-to-end metrics, with CPU time
// rescaled to the nominal host (reference.h).
// Traced runs (--trace 1) alternate traced and untraced requests, run the
// layer probes, write every span to <out>/trace-<workload>-<seed>.json and
// report the per-layer metrics. Every verdict is checked against the known
// answers; a run with a wrong or missing verdict exits 1. The last stdout
// line is the JSON result.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "probes.h"
#include "process.h"
#include "reference.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-ups per untraced run; setup_s is their median.
constexpr size_t kSetUps = 41;
// Repeats of each layer probe per traced run.
constexpr int kProbeRepeats = 21;
// A run that cannot collect enough samples by then fails instead of
// reporting an under-sampled percentile.
constexpr double kMaxLoopSeconds = 150.0;
// Least wall time between two reference samples.
constexpr double kReferenceEverySeconds = 0.1;

// Samples the reference kernel after a request when the last sample is at
// least kReferenceEverySeconds old.
class HostSpeed {
 public:
  void MaybeSample() {
    if (samples_.empty() || since_.ElapsedSeconds() >= kReferenceEverySeconds) {
      samples_.push_back(ReferenceKernelMs());
      since_.Reset();
    }
  }
  bool enough() const { return samples_.size() >= MinSamplesFor(0.5); }
  std::optional<Percentile> Median() const { return PercentileOf(samples_, 0.5); }

 private:
  std::vector<double> samples_;
  icarus::WallTimer since_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --icarus <path> --out <dir>\n");
  return 2;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 2;
}

// Appends percentile `p` of `samples` as a metric, with its sample count.
bool AddPercentile(const std::string& name, const std::vector<double>& samples, double p,
                   const std::string& unit, std::vector<Metric>* metrics) {
  auto pct = PercentileOf(samples, p);
  if (!pct) {
    std::fprintf(stderr, "perfbench: %s needs %zu samples, have %zu\n", name.c_str(),
                 MinSamplesFor(p), samples.size());
    return false;
  }
  metrics->push_back({name, pct->value, unit, pct->samples, pct->beyond});
  return true;
}

// Prints a metric with its unit, and a percentile with its sample count.
void PrintMetric(const Metric& m) {
  std::printf("%-28s %16.6f %-5s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) {
    std::printf(" (n=%zu, %zu beyond)", m.samples, m.beyond);
  }
  std::printf("\n");
}

// Prints every metric, the request accounting, and the JSON result line;
// returns the exit code.
int Report(const FailLedger& ledger, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    PrintMetric(m);
  }
  std::printf("%-28s %16lld\n%-28s %16lld\n", "requests_attempted",
              static_cast<long long>(ledger.attempted()), "requests_failed",
              static_cast<long long>(ledger.failed()));
  for (const std::string& why : ledger.reasons()) {
    std::fprintf(stderr, "perfbench: wrong or missing verdict: %s\n", why.c_str());
  }
  std::printf("%s\n", RenderResultLine(ledger, metrics).c_str());
  return ledger.passed() ? 0 : 1;
}

// Replaces `*workload` with a freshly set-up one and records the CPU seconds
// (user + system, children included) the set-up took. CPU time rather than
// wall time, because the host's steal time swings wall time by a third
// between runs while the work done stays the same; setup_s is then rescaled
// like every CPU-time metric (reference.h). The old workload is released
// first, so only one is alive.
icarus::Status TimedSetUp(const Options& options, std::unique_ptr<Workload>* workload,
                          std::vector<double>* setup_s) {
  workload->reset();
  double cpu_start = CpuSeconds(/*children=*/true);
  *workload = MakeWorkload(options);
  icarus::Status st = (*workload)->SetUp();
  setup_s->push_back(CpuSeconds(/*children=*/true) - cpu_start);
  return st;
}

int RunUntraced(const Options& options) {
  HostSpeed host;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  icarus::Rng rng(options.seed);
  FailLedger ledger;
  double cpu_s = 0.0;
  int64_t verdicts = 0;
  // Set-ups are spread evenly over the run, each replacing the workload the
  // requests use, so setup_s samples the machine in the states the requests
  // see instead of one short window.
  double setup_every = options.seconds / kSetUps;
  const int64_t min_requests = static_cast<int64_t>(MinSamplesFor(0.5));
  icarus::WallTimer timer;
  while (timer.ElapsedSeconds() < options.seconds || setup_s.size() < kSetUps ||
         ledger.attempted() < min_requests || !host.enough()) {
    if (timer.ElapsedSeconds() > kMaxLoopSeconds) {
      break;
    }
    if (setup_s.size() < kSetUps &&
        timer.ElapsedSeconds() >= setup_every * static_cast<double>(setup_s.size())) {
      icarus::Status st = TimedSetUp(options, &workload, &setup_s);
      if (!st.ok()) {
        return Fail("set-up failed: " + st.message());
      }
      continue;
    }
    RequestCost cost = workload->Request(rng, ledger, nullptr, nullptr);
    cpu_s += cost.cpu_s;
    verdicts += cost.verdicts;
    host.MaybeSample();
  }
  double peak_rss_mb = workload->PeakRssMb();

  auto setup = PercentileOf(setup_s, 0.5);
  auto reference = host.Median();
  if (!setup || !reference) {
    return Fail("too few set-ups or reference samples");
  }
  double raw_cpu_ms = verdicts > 0 ? cpu_s * 1e3 / static_cast<double>(verdicts) : 0.0;
  double scale = kNominalReferenceMs / reference->value;
  // The measured values behind the rescaled ones, for the log only.
  PrintMetric({"raw.setup_cpu_s", setup->value, "s", setup->samples, setup->beyond});
  PrintMetric({"raw.cpu_ms_per_verdict", raw_cpu_ms, "ms"});
  PrintMetric({"host.reference_ms", reference->value, "ms", reference->samples, reference->beyond});

  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", setup->value * scale, "s", setup->samples, setup->beyond});
  metrics.push_back({"cpu_ms_per_verdict", raw_cpu_ms * scale, "ms"});
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  return Report(ledger, metrics);
}

int RunTraced(const Options& options) {
  HostSpeed host;
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  icarus::Status st = workload->SetUp();
  if (!st.ok()) {
    return Fail("set-up failed: " + st.message());
  }

  Tracer tracer;
  icarus::Rng rng(options.seed);
  FailLedger ledger;
  LayerCounters layers;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  double untraced_wall_s = 0.0;
  int64_t untraced_verdicts = 0;
  size_t need = MinSamplesFor(0.9);
  icarus::WallTimer timer;
  for (int64_t request = 0;; ++request) {
    bool enough = traced_ms.size() >= need && untraced_ms.size() >= need &&
                  layers.task_ms.size() >= need && host.enough();
    if ((timer.ElapsedSeconds() >= options.seconds && enough) ||
        timer.ElapsedSeconds() > kMaxLoopSeconds) {
      break;
    }
    // Alternate traced and untraced requests so both see the same machine.
    bool traced = request % 2 == 0;
    tracer.set_request(request);
    RequestCost cost;
    if (traced) {
      ScopedSpan span(&tracer, "perfbench.request");
      cost = workload->Request(rng, ledger, &tracer, &layers);
    } else {
      cost = workload->Request(rng, ledger, nullptr, nullptr);
    }
    (traced ? traced_ms : untraced_ms).push_back(cost.wall_s * 1e3);
    if (!traced) {
      untraced_wall_s += cost.wall_s;
      untraced_verdicts += cost.verdicts;
    }
    host.MaybeSample();
  }
  tracer.set_request(-1);

  std::vector<Metric> metrics;
  std::string err = RunProbes(options, kProbeRepeats, &tracer, ledger, &metrics);
  if (!err.empty()) {
    return Fail("layer probes: " + err);
  }

  auto traced_p50 = PercentileOf(traced_ms, 0.5);
  auto untraced_p50 = PercentileOf(untraced_ms, 0.5);
  if (!traced_p50 || !untraced_p50 || layers.requests.size() < MinSamplesFor(0.5)) {
    return Fail("too few traced requests");
  }
  metrics.push_back({"trace.overhead_ratio", traced_p50->value / untraced_p50->value - 1.0,
                     "ratio"});
  // Wall-clock throughput and latency swing with the host's steal time too
  // much to hold an end-to-end bound, so they are reported here, over the
  // untraced requests.
  metrics.push_back(
      {"verdicts_per_s", static_cast<double>(untraced_verdicts) / untraced_wall_s, "1/s"});
  if (!AddPercentile("latency_ms_p50", untraced_ms, 0.5, "ms", &metrics) ||
      !AddPercentile("latency_ms_p90", untraced_ms, 0.9, "ms", &metrics)) {
    return Fail("too few untraced requests for the latency percentiles");
  }

  // Per-request sums of the stage fields, as medians over traced requests.
  auto median_of = [&](const char* name, double RequestLayers::*field, const char* unit) {
    std::vector<double> v;
    for (const RequestLayers& r : layers.requests) {
      v.push_back(r.*field);
    }
    metrics.push_back({name, PercentileOf(v, 0.5)->value, unit});
  };
  median_of("meta.run_ms", &RequestLayers::meta_run_ms, "ms");
  median_of("meta.gen_ms", &RequestLayers::meta_gen_ms, "ms");
  median_of("meta.interp_ms", &RequestLayers::meta_interp_ms, "ms");
  median_of("meta.paths_explored", &RequestLayers::paths_explored, "count");
  median_of("meta.paths_merged", &RequestLayers::paths_merged, "count");
  median_of("sym.solve_ms", &RequestLayers::sym_solve_ms, "ms");
  median_of("sym.queries", &RequestLayers::queries, "count");
  median_of("sym.decisions", &RequestLayers::decisions, "count");
  median_of("sym.learned", &RequestLayers::learned, "count");
  auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  metrics.push_back({"sym.cache_hit_ratio", ratio(layers.cache_hits, layers.cache_lookups),
                     "ratio"});
  // Ratio bases are per traced request, so they do not grow with speed.
  double traced_requests = static_cast<double>(layers.requests.size());
  metrics.push_back(
      {"sym.cache_lookups", static_cast<double>(layers.cache_lookups) / traced_requests, "count"});
  metrics.push_back({"verifier.cached_safe_ratio",
                     ratio(layers.cached_safe_rows, layers.rows), "ratio"});
  metrics.push_back(
      {"verifier.cached_safe_base", static_cast<double>(layers.rows) / traced_requests, "count"});
  metrics.push_back({"support.pool_busy_ratio",
                     layers.pool_capacity_s > 0 ? layers.task_busy_s / layers.pool_capacity_s
                                                : 0.0,
                     "ratio"});
  if (!AddPercentile("verifier.task_ms_p50", layers.task_ms, 0.5, "ms", &metrics) ||
      !AddPercentile("verifier.task_ms_p90", layers.task_ms, 0.9, "ms", &metrics)) {
    return Fail("too few generator tasks for the task percentiles");
  }
  metrics.push_back({"fail_ratio", ledger.ratio(), "ratio"});
  auto reference = host.Median();
  if (!reference) {
    return Fail("too few reference samples");
  }
  metrics.push_back({"host.reference_ms", reference->value, "ms"});

  std::printf("%-36s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : tracer.Totals()) {
    std::printf("%-36s %8lld %12.3f %12.3f\n", name.c_str(), static_cast<long long>(t.count),
                t.total_ms, t.self_ms);
  }
  std::string trace_path =
      options.out_dir + "/trace-" + options.workload + "-" + std::to_string(options.seed) + ".json";
  if (!tracer.WriteJson(trace_path)) {
    return Fail("cannot write " + trace_path);
  }
  std::printf("spans: %zu written to %s\n", tracer.spans().size(), trace_path.c_str());
  return Report(ledger, metrics);
}

int Main(int argc, char** argv) {
  Options options;
  std::string trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--icarus") {
      options.icarus_bin = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || MakeWorkload(options) == nullptr || options.seconds <= 0 ||
      (trace != "0" && trace != "1") || options.icarus_bin.empty() || options.out_dir.empty()) {
    return Usage();
  }
  options.trace = trace == "1";
  mkdir(options.out_dir.c_str(), 0755);
  return options.trace ? RunTraced(options) : RunUntraced(options);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(argc, argv);
}
