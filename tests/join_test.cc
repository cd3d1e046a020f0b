// Verdicts on generators with symbolic joins (diamonds, nested joins,
// assertions across joins, emitting arms) under the forking meta-executor:
// four hand-written shapes with known verdicts plus a seeded fuzz corpus.
// Every fuzz program must get a definite verdict, and every counterexample
// must replay concretely from its witnesses (meta::ReplayWithWitnesses), a
// check that does not trust the solver's SAT answer.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/meta/path_recorder.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/verifier/batch_verifier.h"

namespace icarus {
namespace {

// Hand-written join shapes: a plain diamond, nested joins, a data-dependent
// assertion across a join (must refute), and a diamond whose arms emit
// different instruction streams.
constexpr char kSyntheticJoins[] = R"ICARUS(
generator joinTestDiamond(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  let a = Value::toInt32(lhs);
  let bias = 0;
  if a < 0 {
    bias = 1;
  } else {
    bias = 2;
  }
  assert bias > 0;
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}

generator joinTestNestedJoin(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  let a = Value::toInt32(lhs);
  let b = Value::toInt32(rhs);
  let x = 0;
  if a < 0 {
    if b < 0 {
      x = 1;
    } else {
      x = 2;
    }
  } else {
    if b < 10 {
      x = 3;
    } else {
      x = 4;
    }
  }
  assert x > 0;
  assert x <= 4;
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::Int32SubResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}

generator joinTestAssertAcrossJoin(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  let a = Value::toInt32(lhs);
  let x = 0;
  if a < 0 {
    x = 0;
  } else {
    x = 2;
  }
  // Fails exactly when a < 0.
  assert x != 0;
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}

generator joinTestEmittingArms(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  let a = Value::toInt32(lhs);
  // The arms emit different instruction streams, so the paths through the
  // join produce different stubs.
  if a < 0 {
    emit CacheIR::GuardToInt32(lhsId);
    emit CacheIR::GuardToInt32(rhsId);
    emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  } else {
    emit CacheIR::GuardToInt32(lhsId);
    emit CacheIR::GuardToInt32(rhsId);
    emit CacheIR::Int32SubResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  }
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}
)ICARUS";

// Seeded fuzz corpus: random two-diamond programs over int32 inputs with a
// random (possibly failing) assertion across the joins. Deterministic by
// construction, so failures reproduce.
std::string FuzzCorpusSource(int count, uint32_t seed) {
  std::mt19937 rng(seed);
  const char* cmps[] = {"<", "<=", ">", ">=", "==", "!="};
  auto cmp = [&] { return cmps[rng() % 6]; };
  auto small = [&] { return static_cast<int>(rng() % 7); };
  std::string src;
  for (int i = 0; i < count; ++i) {
    src += StrCat(
        "generator joinFuzz", i,
        "(lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId) emits CacheIR {\n"
        "  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {\n"
        "    return AttachDecision::NoAction;\n"
        "  }\n"
        "  let a = Value::toInt32(lhs);\n"
        "  let b = Value::toInt32(rhs);\n"
        "  let x = 0;\n"
        "  if a ", cmp(), " ", small(), " {\n"
        "    x = ", small(), ";\n"
        "  } else {\n"
        "    x = ", small(), ";\n"
        "  }\n"
        "  if b ", cmp(), " ", small(), " {\n"
        "    x = x + ", small(), ";\n"
        "  } else {\n"
        "    x = x - ", small(), ";\n"
        "  }\n"
        "  assert x ", cmp(), " ", small(), ";\n"
        "  emit CacheIR::GuardToInt32(lhsId);\n"
        "  emit CacheIR::GuardToInt32(rhsId);\n"
        "  emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), "
        "OperandId::toInt32Id(rhsId));\n"
        "  emit CacheIR::ReturnFromIC();\n"
        "  return AttachDecision::Attach;\n"
        "}\n");
  }
  return src;
}

constexpr int kFuzzCount = 24;

class JoinVerdictTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto loaded = platform::Platform::LoadWithExtra(
        {kSyntheticJoins, FuzzCorpusSource(kFuzzCount, /*seed=*/0x1ca905)});
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(platform_, nullptr); }

  static std::vector<verifier::GeneratorResult> VerifyAll(const std::vector<std::string>& names) {
    verifier::BatchVerifier batch(platform_);
    auto report = batch.VerifyAll(names);
    EXPECT_TRUE(report.ok()) << report.status().message();
    return report.ok() ? report.value().results : std::vector<verifier::GeneratorResult>{};
  }

  // Every violation of a refuted generator must reproduce when the stub is
  // re-run with its symbolic inputs pinned to the witness values.
  static void ExpectWitnessesReplay(const verifier::GeneratorResult& r) {
    ASSERT_FALSE(r.report.meta.violations.empty()) << r.generator;
    auto stub = platform_->MakeMetaStub(r.generator);
    ASSERT_TRUE(stub.ok()) << r.generator << ": " << stub.status().message();
    for (const exec::Violation& v : r.report.meta.violations) {
      meta::ReplayOutcome replay = meta::ReplayWithWitnesses(
          &platform_->module(), &platform_->externs(), stub.value(), v);
      EXPECT_TRUE(replay.reproduced)
          << r.generator << ": witnesses for '" << v.message
          << "' did not replay; replay summary: " << replay.result.Summary();
    }
  }

  static platform::Platform* platform_;
};

platform::Platform* JoinVerdictTest::platform_ = nullptr;

TEST_F(JoinVerdictTest, HandWrittenJoinsGetTheirKnownVerdicts) {
  std::vector<verifier::GeneratorResult> results = VerifyAll(
      {"joinTestDiamond", "joinTestNestedJoin", "joinTestEmittingArms",
       "joinTestAssertAcrossJoin"});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].outcome, verifier::Outcome::kVerified) << results[0].generator;
  EXPECT_EQ(results[1].outcome, verifier::Outcome::kVerified) << results[1].generator;
  EXPECT_EQ(results[2].outcome, verifier::Outcome::kVerified) << results[2].generator;
  ASSERT_EQ(results[3].outcome, verifier::Outcome::kRefuted) << results[3].generator;
  ExpectWitnessesReplay(results[3]);
}

TEST_F(JoinVerdictTest, FuzzCorpusGetsDefiniteVerdictsWithReplayableWitnesses) {
  std::vector<std::string> names;
  for (int i = 0; i < kFuzzCount; ++i) {
    names.push_back(StrCat("joinFuzz", i));
  }
  std::vector<verifier::GeneratorResult> results = VerifyAll(names);
  ASSERT_EQ(results.size(), names.size());
  int refuted = 0;
  for (const verifier::GeneratorResult& r : results) {
    ASSERT_TRUE(r.outcome == verifier::Outcome::kVerified ||
                r.outcome == verifier::Outcome::kRefuted)
        << r.generator << ": " << verifier::OutcomeName(r.outcome) << " " << r.error;
    if (r.outcome == verifier::Outcome::kRefuted) {
      ++refuted;
      ExpectWitnessesReplay(r);
    }
  }
  // The replay check only means something if the corpus refutes something.
  EXPECT_GT(refuted, 0);
}

}  // namespace
}  // namespace icarus
