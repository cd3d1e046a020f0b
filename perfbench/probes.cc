#include "probes.h"

#include <filesystem>
#include <functional>
#include <map>

#include "oracle.h"
#include "process.h"
#include "src/ast/fingerprint.h"
#include "src/ast/lexer.h"
#include "src/ast/parser.h"
#include "src/ast/resolver.h"
#include "src/cfa/cfa.h"
#include "src/meta/path_recorder.h"
#include "src/platform/platform.h"
#include "src/sym/cache_store.h"
#include "src/sym/solver.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verdict_store.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace sym = icarus::sym;
using icarus::platform::Platform;

// Collects one sample per repeat for each named metric.
class Samples {
 public:
  void Add(const std::string& name, double value) { samples_[name].push_back(value); }

  // Appends the median of every metric named in `units` to `metrics`.
  std::string Emit(const std::vector<std::pair<std::string, std::string>>& units,
                   std::vector<Metric>* metrics) const {
    for (const auto& [name, unit] : units) {
      auto it = samples_.find(name);
      auto median = it == samples_.end() ? std::nullopt : PercentileOf(it->second, 0.5);
      if (!median) {
        return "too few samples for the median of " + name;
      }
      metrics->push_back({name, median->value, unit});
    }
    return "";
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// Runs `fn` inside a span and returns its wall time in milliseconds.
double TimedMs(Tracer* tracer, const char* span_name, const std::function<void()>& fn) {
  ScopedSpan span(tracer, span_name);
  icarus::WallTimer timer;
  fn();
  return timer.ElapsedMillis();
}

// x0 < x1 < ... < xn < x0 + n has no integer solution.
std::vector<sym::ExprRef> DifferenceChain(sym::ExprPool& pool, int n) {
  std::vector<sym::ExprRef> vars;
  for (int i = 0; i <= n; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    vars.push_back(pool.Var(name, sym::Sort::kInt));
  }
  std::vector<sym::ExprRef> conjuncts;
  for (int i = 0; i < n; ++i) {
    conjuncts.push_back(pool.Lt(vars[static_cast<size_t>(i)], vars[static_cast<size_t>(i) + 1]));
  }
  conjuncts.push_back(pool.Lt(vars.back(), pool.Add(vars[0], pool.IntConst(n))));
  return conjuncts;
}

// o = p, g(f^8(o)) = 4 and not (3 < g(f^8(p))): congruence makes it UNSAT.
std::vector<sym::ExprRef> CongruenceChain(sym::ExprPool& pool) {
  sym::ExprRef a = pool.Var("o", sym::Sort::kTerm);
  sym::ExprRef b = pool.Var("p", sym::Sort::kTerm);
  std::vector<sym::ExprRef> conjuncts = {pool.Eq(a, b)};
  for (int i = 0; i < 8; ++i) {
    a = pool.App("f", {a}, sym::Sort::kTerm);
    b = pool.App("f", {b}, sym::Sort::kTerm);
  }
  conjuncts.push_back(pool.Eq(pool.App("g", {a}, sym::Sort::kInt), pool.IntConst(4)));
  conjuncts.push_back(pool.Not(pool.Lt(pool.IntConst(3), pool.App("g", {b}, sym::Sort::kInt))));
  return conjuncts;
}

void ProbeFrontend(Tracer* tracer, FailLedger& ledger, Samples& samples) {
  const char* chunks[] = {
      icarus::platform::PreludeSource(),     icarus::platform::CacheIRSource(),
      icarus::platform::MasmSource(),        icarus::platform::CompilerSource(),
      icarus::platform::InterpreterSource(), icarus::platform::GeneratorsSource(),
  };
  double lex_ms = 0.0;
  double parse_ms = 0.0;
  size_t tokens = 0;
  bool ok = true;
  icarus::ast::Module module;
  for (const char* chunk : chunks) {
    lex_ms += TimedMs(tracer, "ast.Lexer::LexAll", [&] {
      tokens += icarus::ast::Lexer(chunk).LexAll().size();
    });
    parse_ms += TimedMs(tracer, "ast.Parser::ParseInto", [&] {
      ok = icarus::ast::Parser::ParseInto(&module, chunk).ok() && ok;
    });
  }
  double resolve_ms = TimedMs(tracer, "ast.Resolve", [&] {
    ok = icarus::ast::Resolve(&module).ok() && ok;
  });
  ledger.Record(ok, "frontend probe: the platform chunks did not parse and resolve");
  samples.Add("ast.lex_ms", lex_ms);
  samples.Add("ast.parse_ms", parse_ms);
  samples.Add("ast.resolve_ms", resolve_ms);
  samples.Add("ast.tokens_per_ms", static_cast<double>(tokens) / lex_ms);
  samples.Add("platform.load_ms", TimedMs(tracer, "platform.Platform::Load", [&] {
    ledger.Record(Platform::Load().ok(), "platform probe: Platform::Load failed");
  }));
}

void ProbeCli(const Options& options, Tracer* tracer, FailLedger& ledger, Samples& samples) {
  samples.Add("cli.exec_floor_ms", TimedMs(tracer, "cli.icarus_help", [&] {
    ProcessResult p = RunProcess({options.icarus_bin, "verify-all", "--help"});
    ledger.Record(p.exit_code == 0, "cli probe: `icarus verify-all --help` failed");
  }));
  samples.Add("cli.list_ms", TimedMs(tracer, "cli.icarus_list", [&] {
    ProcessResult p = RunProcess({options.icarus_bin, "list"});
    ledger.Record(p.exit_code == 0, "cli probe: `icarus list` failed");
  }));
}

// Stub build, CFA build and minimization over every generator.
void ProbePipeline(const Platform& platform, Tracer* tracer, FailLedger& ledger,
                   Samples& samples) {
  double stub_ms = 0.0;
  double build_ms = 0.0;
  double minimize_ms = 0.0;
  int merges = 0;
  bool ok = true;
  for (const KnownAnswer& answer : KnownAnswers()) {
    icarus::StatusOr<icarus::meta::MetaStub> stub = icarus::Status::Error("unset");
    stub_ms += TimedMs(tracer, "platform.Platform::MakeMetaStub",
                       [&] { stub = platform.MakeMetaStub(answer.generator); });
    if (!stub.ok()) {
      ok = false;
      continue;
    }
    icarus::StatusOr<icarus::cfa::Cfa> automaton = icarus::Status::Error("unset");
    build_ms += TimedMs(tracer, "cfa.CfaBuilder::Build", [&] {
      icarus::cfa::CfaBuilder builder(&platform.module(), &platform.externs());
      automaton = builder.Build(stub.value());
    });
    if (!automaton.ok()) {
      ok = false;
      continue;
    }
    minimize_ms += TimedMs(tracer, "cfa.Cfa::Minimize",
                           [&] { merges += automaton.value().Minimize().merges; });
  }
  ledger.Record(ok, "pipeline probe: a stub or CFA failed to build");
  samples.Add("platform.stub_ms", stub_ms);
  samples.Add("cfa.build_ms", build_ms);
  samples.Add("cfa.minimize_ms", minimize_ms);
  samples.Add("cfa.merges", merges);
}

// Counterexamples of the buggy generators, found once per run.
struct Refutation {
  std::string generator;
  icarus::meta::MetaStub stub;
  icarus::exec::Violation violation;
};

std::string FindRefutations(const Platform& platform, Tracer* tracer,
                            std::vector<Refutation>* out) {
  for (const KnownAnswer& answer : KnownAnswers()) {
    if (answer.expected != Expected::kCounterexample) {
      continue;
    }
    auto stub = platform.MakeMetaStub(answer.generator);
    if (!stub.ok()) {
      return stub.status().message();
    }
    ScopedSpan span(tracer, "meta.MetaExecutor::Run");
    icarus::meta::MetaExecutor executor(&platform.module(), &platform.externs());
    icarus::meta::MetaResult result = executor.Run(stub.value());
    if (result.violations.empty()) {
      return answer.generator + ": no counterexample found";
    }
    out->push_back({answer.generator, stub.value(), result.violations.front()});
  }
  return "";
}

void ProbeReplay(const Platform& platform, const std::vector<Refutation>& refutations,
                 Tracer* tracer, FailLedger& ledger, Samples& samples) {
  double replay_ms = 0.0;
  for (const Refutation& r : refutations) {
    replay_ms += TimedMs(tracer, "meta.ReplayWithWitnesses", [&] {
      auto outcome = icarus::meta::ReplayWithWitnesses(&platform.module(), &platform.externs(),
                                                       r.stub, r.violation);
      ledger.Record(outcome.reproduced, r.generator + ": replay did not reproduce");
    });
  }
  samples.Add("meta.replay_ms", replay_ms);
}

void ProbeTheory(Tracer* tracer, FailLedger& ledger, Samples& samples) {
  auto solve_us = [&](const std::string& name,
                      const std::function<std::vector<sym::ExprRef>(sym::ExprPool&)>& build) {
    sym::ExprPool pool;
    std::vector<sym::ExprRef> conjuncts = build(pool);
    sym::Solver solver;
    sym::Verdict verdict = sym::Verdict::kUnknown;
    double ms = TimedMs(tracer, "sym.Solver::Solve", [&] {
      verdict = solver.Solve(conjuncts, /*want_model=*/false).verdict;
    });
    ledger.Record(verdict == sym::Verdict::kUnsat, name + ": expected UNSAT");
    samples.Add(name, ms * 1e3);
  };
  for (int n : {8, 16, 32, 48, 64}) {
    solve_us("sym.diff_chain_us.n" + std::to_string(n),
             [n](sym::ExprPool& pool) { return DifferenceChain(pool, n); });
  }
  solve_us("sym.uf_chain_us", CongruenceChain);
}

void ProbeStores(const Platform& platform, const std::string& dir, Tracer* tracer,
                 FailLedger& ledger, Samples& samples) {
  double fingerprint_ms = TimedMs(tracer, "ast.UnitFingerprint(all)", [&] {
    for (const KnownAnswer& answer : KnownAnswers()) {
      ledger.Record(icarus::ast::UnitFingerprint(platform.module(), answer.generator).ok(),
                    answer.generator + ": UnitFingerprint failed");
    }
  });
  samples.Add("verifier.fingerprint_ms", fingerprint_ms);

  namespace v = icarus::verifier;
  v::VerdictStore store;
  samples.Add("verifier.store_load_ms", TimedMs(tracer, "verifier.VerdictStore::Load", [&] {
    store.Load(v::VerdictStorePath(dir), v::kVerifierEpoch);
  }));
  ledger.Record(store.size() == 32, "verdict store probe: expected 32 stored PASSes");
  samples.Add("verifier.store_save_ms", TimedMs(tracer, "verifier.VerdictStore::Save", [&] {
    ledger.Record(store.Save(dir + "/verdicts-copy.jsonl").ok(), "verdict store save failed");
  }));
  sym::SolverCache cache;
  samples.Add("sym.store_load_ms", TimedMs(tracer, "sym.LoadSolverCache", [&] {
    sym::CacheLoadResult loaded =
        sym::LoadSolverCache(v::SolverCacheStorePath(dir), v::kVerifierEpoch, &cache);
    ledger.Record(loaded.entries > 0 && loaded.note.empty(), "solver cache store did not load");
  }));
  samples.Add("sym.store_save_ms", TimedMs(tracer, "sym.SaveSolverCache", [&] {
    ledger.Record(
        sym::SaveSolverCache(cache, dir + "/solver-cache-copy.bin", v::kVerifierEpoch, 64 << 20)
            .ok(),
        "solver cache save failed");
  }));
}

}  // namespace

std::string RunProbes(const Options& options, int repeats, Tracer* tracer, FailLedger& ledger,
                      std::vector<Metric>* metrics) {
  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    return "platform load failed: " + loaded.status().message();
  }
  const Platform& platform = *loaded.value();
  std::vector<Refutation> refutations;
  std::string err = FindRefutations(platform, tracer, &refutations);
  if (!err.empty()) {
    return err;
  }
  // A store written by one cold incremental batch, for the store probes.
  std::string dir = options.out_dir + "/probe-store";
  std::error_code ec;
  fs::remove_all(dir, ec);
  icarus::verifier::BatchOptions seed_options;
  seed_options.jobs = 1;
  seed_options.incremental = true;
  seed_options.cache_dir = dir;
  {
    ScopedSpan span(tracer, "verifier.BatchVerifier::VerifyAll");
    if (!icarus::verifier::BatchVerifier(&platform).VerifyEverything(seed_options).ok()) {
      return "probe store seeding failed";
    }
  }

  Samples samples;
  for (int r = 0; r < repeats; ++r) {
    ProbeFrontend(tracer, ledger, samples);
    ProbeCli(options, tracer, ledger, samples);
    ProbePipeline(platform, tracer, ledger, samples);
    ProbeReplay(platform, refutations, tracer, ledger, samples);
    ProbeTheory(tracer, ledger, samples);
    ProbeStores(platform, dir, tracer, ledger, samples);
  }
  fs::remove_all(dir, ec);
  return samples.Emit(
      {
          {"ast.lex_ms", "ms"},
          {"ast.parse_ms", "ms"},
          {"ast.resolve_ms", "ms"},
          {"ast.tokens_per_ms", "1/ms"},
          {"platform.load_ms", "ms"},
          {"platform.stub_ms", "ms"},
          {"cli.exec_floor_ms", "ms"},
          {"cli.list_ms", "ms"},
          {"cfa.build_ms", "ms"},
          {"cfa.minimize_ms", "ms"},
          {"cfa.merges", "count"},
          {"meta.replay_ms", "ms"},
          {"sym.diff_chain_us.n8", "us"},
          {"sym.diff_chain_us.n16", "us"},
          {"sym.diff_chain_us.n32", "us"},
          {"sym.diff_chain_us.n48", "us"},
          {"sym.diff_chain_us.n64", "us"},
          {"sym.uf_chain_us", "us"},
          {"sym.store_load_ms", "ms"},
          {"sym.store_save_ms", "ms"},
          {"verifier.fingerprint_ms", "ms"},
          {"verifier.store_load_ms", "ms"},
          {"verifier.store_save_ms", "ms"},
      },
      metrics);
}

}  // namespace perfbench
