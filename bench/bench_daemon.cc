// Warm daemon service vs. cold per-request verification.
//
// The case for `icarusd` in numbers: a cold one-shot `icarus verify GEN`
// pays platform interpretation, meta-execution, and solver time on every
// request, while a long-lived daemon answers repeats from its warm verdict
// view in memory. This bench measures per-request latency distributions
// (p50/p99) for both shapes over the verifiable fleet:
//
//   cold_per_request   a fresh Verifier + empty solver cache per request,
//                      the work a cold CLI process performs (process startup
//                      and platform load excluded — so the daemon's measured
//                      advantage here is a *lower bound* on the real one).
//   daemon_first_pass  ServerCore::Execute with an empty warm view: the
//                      daemon's worst case, shared solver cache only.
//   daemon_warm        ServerCore::Execute once every verdict is warm — the
//                      steady state a CI fleet actually sees.
//
// The exit code is nonzero unless every daemon verdict matches its cold
// counterpart and the warm pass is served entirely from the warm view. The
// latency comparison (warm p99 vs. cold p50) is reported, not gated.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/platform/platform.h"
#include "src/support/timing.h"
#include "src/sym/solver_cache.h"
#include "src/verifier/verifier.h"
#include "tools/numeric_flag.h"

namespace {

icarus::daemon::Request VerifyRequest(const std::string& generator) {
  icarus::daemon::Request req;
  req.op = icarus::daemon::kOpVerify;
  req.generator = generator;
  return req;
}

}  // namespace

// Usage: bench_daemon [--rounds N]. Exits 2 on a malformed or non-positive N.
int main(int argc, char** argv) {
  using icarus::ComputeStats;
  using icarus::SampleStats;
  using icarus::WallTimer;
  using icarus::platform::Platform;

  int rounds = 8;  // Warm passes over the fleet (more samples for the tail).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      if (!icarus::tools::IntFlag("--rounds", argv[++i], 1, icarus::tools::kIntMax, &rounds)) {
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: bench_daemon [--rounds N]\n");
      return 1;
    }
  }

  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  std::unique_ptr<Platform> platform = loaded.take();

  std::vector<std::string> fleet;
  for (const auto& info : icarus::platform::Fig12Generators()) {
    fleet.push_back(info.function);
  }
  for (const auto& info : icarus::platform::ExtensionGenerators()) {
    fleet.push_back(info.function);
  }

  std::printf("Daemon service vs. cold per-request verification, %zu generators\n\n",
              fleet.size());

  // Cold shape: what each one-shot CLI invocation does after startup — a
  // fresh verifier and a fresh (empty) solver cache per request.
  std::vector<double> cold_ms;
  std::vector<std::string> cold_outcomes;
  for (const std::string& name : fleet) {
    icarus::sym::SolverCache cache;
    icarus::verifier::VerifyOptions vopts;
    vopts.build_cfa = false;
    vopts.solver_cache = &cache;
    icarus::verifier::Verifier verifier(platform.get());
    WallTimer timer;
    auto report = verifier.Verify(name, vopts);
    cold_ms.push_back(timer.ElapsedMillis());
    if (!report.ok()) {
      std::fprintf(stderr, "cold verify %s failed: %s\n", name.c_str(),
                   report.status().message().c_str());
      return 1;
    }
    cold_outcomes.push_back(!report.value().meta.violations.empty() ? "COUNTEREXAMPLE"
                            : report.value().inconclusive           ? "INCONCLUSIVE"
                                                                    : "VERIFIED");
  }

  // Daemon shapes: one core, first pass fills the warm view, later rounds
  // are served from it.
  icarus::daemon::DaemonOptions options;
  icarus::daemon::ServerCore core(platform.get(), options);
  icarus::Status started = core.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon start failed: %s\n", started.message().c_str());
    return 1;
  }

  std::vector<double> first_ms;
  bool verdicts_match = true;
  for (size_t i = 0; i < fleet.size(); ++i) {
    WallTimer timer;
    icarus::daemon::Response resp = core.Execute(VerifyRequest(fleet[i]));
    first_ms.push_back(timer.ElapsedMillis());
    if (resp.outcome != cold_outcomes[i]) {
      std::fprintf(stderr, "verdict mismatch for %s: cold %s vs daemon %s\n", fleet[i].c_str(),
                   cold_outcomes[i].c_str(), resp.outcome.c_str());
      verdicts_match = false;
    }
  }

  std::vector<double> warm_ms;
  bool all_warm = true;
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < fleet.size(); ++i) {
      WallTimer timer;
      icarus::daemon::Response resp = core.Execute(VerifyRequest(fleet[i]));
      warm_ms.push_back(timer.ElapsedMillis());
      all_warm = all_warm && resp.cached && resp.outcome == cold_outcomes[i];
    }
  }
  (void)core.FinishDrain();

  SampleStats cold = ComputeStats(cold_ms);
  SampleStats first = ComputeStats(first_ms);
  SampleStats warm = ComputeStats(warm_ms);
  std::printf("%-20s %10s %10s %10s %10s\n", "shape", "p50 ms", "p90 ms", "p99 ms", "mean ms");
  auto row = [](const char* name, const SampleStats& s) {
    std::printf("%-20s %10.4f %10.4f %10.4f %10.4f\n", name, s.p50, s.p90, s.p99, s.mean);
  };
  row("cold_per_request", cold);
  row("daemon_first_pass", first);
  row("daemon_warm", warm);

  std::printf("\ndaemon verdicts match cold verdicts: %s\n", verdicts_match ? "yes" : "NO");
  std::printf("warm pass 100%% served from the warm view: %s\n", all_warm ? "yes" : "NO");
  std::printf("warm p99 (%.4f ms) beats cold p50 (%.4f ms): %s\n", warm.p99, cold.p50,
              warm.p99 < cold.p50 ? "yes" : "no");

  return verdicts_match && all_warm ? 0 : 1;
}
