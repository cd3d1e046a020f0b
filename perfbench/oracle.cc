#include "oracle.h"

#include <set>

#include "src/platform/platform.h"

namespace perfbench {

using icarus::verifier::Outcome;

std::vector<KnownAnswer> KnownAnswers() {
  std::vector<KnownAnswer> answers;
  for (const auto& info : icarus::platform::Fig12Generators()) {
    answers.push_back({info.function, Expected::kVerified});
  }
  for (const auto& info : icarus::platform::ExtensionGenerators()) {
    answers.push_back({info.function, Expected::kVerified});
  }
  for (const auto& bug : icarus::platform::Bugs()) {
    answers.push_back({std::string("bug") + bug.id + "_buggy", Expected::kCounterexample});
    answers.push_back({std::string("bug") + bug.id + "_fixed", Expected::kVerified});
  }
  return answers;
}

std::string CheckGeneratorSet(const std::vector<std::string>& declared) {
  std::set<std::string> known;
  for (const KnownAnswer& a : KnownAnswers()) {
    known.insert(a.generator);
  }
  std::set<std::string> have(declared.begin(), declared.end());
  std::string diff;
  for (const std::string& name : known) {
    if (have.count(name) == 0) {
      diff += " missing " + name + ";";
    }
  }
  for (const std::string& name : have) {
    if (known.count(name) == 0) {
      diff += " unknown " + name + ";";
    }
  }
  if (have.size() != declared.size()) {
    diff += " duplicate generator names;";
  }
  return diff.empty() ? "" : "generator set differs from the known answers:" + diff;
}

std::string CheckRow(const icarus::verifier::GeneratorResult& row, Outcome want) {
  if (row.outcome == want) {
    return "";
  }
  std::string why = row.generator + ": expected " + icarus::verifier::OutcomeName(want) +
                    ", got " + icarus::verifier::OutcomeName(row.outcome);
  if (!row.error.empty()) {
    why += " (" + row.error + ")";
  }
  return why;
}

Outcome WantedOutcome(Expected expected) {
  return expected == Expected::kVerified ? Outcome::kVerified : Outcome::kRefuted;
}

std::string CheckCliOutput(const std::string& generator, Expected expected, int exit_code,
                           const std::string& output) {
  if (exit_code != 0) {
    return generator + ": exit code " + std::to_string(exit_code);
  }
  auto has = [&output](const char* needle) { return output.find(needle) != std::string::npos; };
  if (expected == Expected::kVerified) {
    return has("\nVERIFIED\n") ? "" : generator + ": no VERIFIED verdict in output";
  }
  if (!has("\nCOUNTEREXAMPLE FOUND\n")) {
    return generator + ": no counterexample in output";
  }
  return has("violation REPRODUCED") ? "" : generator + ": counterexample not REPRODUCED";
}

}  // namespace perfbench
