// Layer probes for traced runs: fixed inputs, timed by wrapping single
// public calls, so the per-layer numbers mean the same in every workload.
//
//   ast        Lexer::LexAll, Parser::ParseInto and Resolve over the six
//              platform source chunks.
//   platform   Platform::Load; MakeMetaStub over all 38 generators.
//   cli        `icarus verify-all --help` (exits before load) and
//              `icarus list` (start-up plus load).
//   cfa        CfaBuilder::Build and Cfa::Minimize over all 38 generators.
//   meta       ReplayWithWitnesses on the 6 buggy generators.
//   sym        Solver::Solve on difference chains x0<...<xn<x0+n and a
//              congruence chain, all UNSAT by construction;
//              LoadSolverCache / SaveSolverCache on a seeded store.
//   verifier   UnitFingerprint over all 38 generators; VerdictStore
//              Load / Save on a seeded store.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

// Runs every probe `repeats` times and returns the median of each metric.
// Wrong probe answers are recorded in `ledger`; an error that prevents a
// probe from running is returned as a non-empty string.
std::string RunProbes(const Options& options, int repeats, Tracer* tracer, FailLedger& ledger,
                      std::vector<Metric>* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
