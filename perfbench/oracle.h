// Known-answer oracle for the benchmark's verdict checks.
//
// Expected verdicts come from the paper's tables, not from the verifier:
// every Figure 12 generator, every extension generator and the fixed variant
// of every historical bug verify; the buggy variant of every historical bug
// has a counterexample. Anything else (a flipped verdict, INCONCLUSIVE,
// ERROR, INTERNAL_ERROR, an unexpected exit code, a counterexample that does
// not replay) is a failed request.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "src/verifier/batch_verifier.h"

namespace perfbench {

enum class Expected { kVerified, kCounterexample };

struct KnownAnswer {
  std::string generator;
  Expected expected = Expected::kVerified;
};

// The 38 generators of the platform with their known answers, in the
// platform's table order (Figure 12, extensions, then the bug pairs).
std::vector<KnownAnswer> KnownAnswers();

// Empty when the generators the platform declares are exactly the known ones;
// otherwise what differs.
std::string CheckGeneratorSet(const std::vector<std::string>& declared);

// Empty when a batch row has outcome `want`; otherwise the mismatch.
std::string CheckRow(const icarus::verifier::GeneratorResult& row,
                     icarus::verifier::Outcome want);

// The outcome a non-incremental batch row must have.
icarus::verifier::Outcome WantedOutcome(Expected expected);

// Empty when an `icarus verify <gen>` (kVerified) or `icarus explain <gen>`
// (kCounterexample) process gave the known answer: exit code 0 and, for
// explain, a counterexample whose pinned replay printed "REPRODUCED".
std::string CheckCliOutput(const std::string& generator, Expected expected, int exit_code,
                           const std::string& output);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
