// Fault-injection suite: arm every registered fail point in turn and prove
// each injected fault surfaces as a contained per-generator outcome
// (INTERNAL_ERROR or INCONCLUSIVE) — never a process crash and never a wrong
// verdict — while the rest of the fleet runs to completion. Also covers the
// bounded-retry/budget-escalation path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/boogie/boogie_lower.h"
#include "src/cfa/cfa.h"
#include "src/platform/platform.h"
#include "src/support/check.h"
#include "src/support/failpoint.h"
#include "src/verifier/batch_verifier.h"

namespace icarus::verifier {
namespace {

// A buggy study generator plus two healthy ones: enough fleet to show that a
// fault in one task leaves the others' verdicts intact.
const std::vector<std::string> kFleet = {
    "tryAttachCompareInt32",
    "tryAttachObjectLength",
    "bug1685925_buggy",
};

class FaultsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<std::unique_ptr<platform::Platform>> loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  void SetUp() override {
    ASSERT_NE(platform_, nullptr);
    failpoint::DisarmAll();
  }
  void TearDown() override { failpoint::DisarmAll(); }

  static BatchReport RunFleet(int retries = 0) {
    BatchVerifier batch(platform_);
    BatchOptions opts;
    opts.jobs = 2;
    opts.use_cache = true;
    opts.retries = retries;
    StatusOr<BatchReport> report = batch.VerifyAll(kFleet, opts);
    EXPECT_TRUE(report.ok()) << report.status().message();
    return report.take();
  }

  // The containment contract: whatever the fault did, no generator may carry
  // a verdict it did not earn. The buggy study generator can only be refuted
  // (or knocked out by the fault); healthy generators can only verify (or be
  // knocked out).
  static void ExpectNoWrongVerdicts(const BatchReport& report) {
    ASSERT_EQ(report.results.size(), kFleet.size());
    for (const GeneratorResult& r : report.results) {
      bool buggy = r.generator.find("_buggy") != std::string::npos;
      if (buggy) {
        EXPECT_NE(r.outcome, Outcome::kVerified) << r.generator;
      } else {
        EXPECT_NE(r.outcome, Outcome::kRefuted) << r.generator;
      }
    }
  }

  static platform::Platform* platform_;
};

platform::Platform* FaultsTest::platform_ = nullptr;

// The headline acceptance test: every fail point on the verification path,
// armed to fire on its first hit, produces exactly-contained damage.
TEST_F(FaultsTest, EveryVerifyPathSiteIsContained) {
  const std::vector<std::string> verify_path_sites = {
      failpoint::kSolverDecision, failpoint::kCacheLookup, failpoint::kCacheInsert,
      failpoint::kPoolTask,       failpoint::kExternCall,
  };
  for (const std::string& site : verify_path_sites) {
    failpoint::DisarmAll();
    Status st = failpoint::Arm("at=" + site + ":1");
    ASSERT_TRUE(st.ok()) << site << ": " << st.message();

    BatchReport report = RunFleet();

    // We are still running, so the fault did not abort the process; the
    // report has a row for every generator, so the fleet completed.
    EXPECT_GT(failpoint::HitCount(site), 0) << site << " never fired";
    EXPECT_GE(report.NumWithOutcome(Outcome::kInternalError), 1)
        << site << " fault was not surfaced as INTERNAL_ERROR:\n"
        << report.RenderTable();
    ExpectNoWrongVerdicts(report);
    for (const GeneratorResult& r : report.results) {
      if (r.outcome == Outcome::kInternalError) {
        EXPECT_NE(r.error.find("injected fault"), std::string::npos) << r.error;
      }
    }
  }
}

// With nothing armed the fleet is healthy — the fail points themselves must
// be inert (this also guards against a leaked armed site).
TEST_F(FaultsTest, DisarmedSitesAreInert) {
  BatchReport report = RunFleet();
  EXPECT_EQ(report.NumWithOutcome(Outcome::kInternalError), 0) << report.RenderTable();
  EXPECT_EQ(report.NumWithOutcome(Outcome::kVerified), 2);
  EXPECT_EQ(report.NumWithOutcome(Outcome::kRefuted), 1);
}

TEST_F(FaultsTest, AfterModeKnocksOutLaterHitsOnly) {
  // after=N lets the first N hits through, so early tasks finish cleanly and
  // the fault lands mid-fleet — the classic "degrades after warmup" shape.
  ASSERT_TRUE(failpoint::Arm(std::string("after=") + failpoint::kSolverDecision + ":5").ok());
  BatchReport report = RunFleet();
  ExpectNoWrongVerdicts(report);
  EXPECT_GE(report.NumWithOutcome(Outcome::kInternalError), 1) << report.RenderTable();
}

TEST_F(FaultsTest, ProbabilisticModeIsSeededAndContained) {
  // A seeded probabilistic site must be deterministic run-to-run and still
  // perfectly contained.
  const std::string spec = std::string("p=") + failpoint::kCacheLookup + ":0.2,seed=42";
  ASSERT_TRUE(failpoint::Arm(spec).ok());
  BatchReport first = RunFleet();
  ExpectNoWrongVerdicts(first);

  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm(spec).ok());
  BatchReport second = RunFleet();
  ExpectNoWrongVerdicts(second);
  // Note: with two workers the *interleaving* of cache lookups across threads
  // can differ, so per-generator outcomes may legitimately differ run-to-run;
  // what must hold is containment (checked above) plus the site actually
  // being exercised.
  EXPECT_GT(failpoint::HitCount(failpoint::kCacheLookup), 0);
}

TEST_F(FaultsTest, BoogieLoweringFaultIsARecoverableException) {
  // The boogie-lower site sits on the artifact-emission path (not under the
  // batch driver's boundary), so containment here means "throws the
  // recoverable InternalError", which any caller can catch.
  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kBoogieLower + ":1").ok());
  StatusOr<meta::MetaStub> stub = platform_->MakeMetaStub("tryAttachCompareInt32");
  ASSERT_TRUE(stub.ok()) << stub.status().message();
  cfa::CfaBuilder builder(&platform_->module(), &platform_->externs());
  auto automaton = builder.Build(stub.value());
  ASSERT_TRUE(automaton.ok()) << automaton.status().message();
  bool contained = false;
  try {
    boogie::LowerOptions options;
    auto program =
        boogie::LowerToBoogie(platform_->module(), stub.value(), automaton.value(), options);
    (void)program;
  } catch (const InternalError& e) {
    contained = true;
    EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(contained);
  EXPECT_GT(failpoint::HitCount(failpoint::kBoogieLower), 0);
}

TEST_F(FaultsTest, ArmRejectsBadSpecs) {
  EXPECT_FALSE(failpoint::Arm("at=no-such-site:1").ok());
  // A typo'd daemon site must be a startup error that spells out the
  // registered sites (silently arming nothing would make the serving-loop
  // fault tests meaningless).
  Status typo = failpoint::Arm("at=daemon-dispach:1");
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.message().find("registered sites"), std::string::npos) << typo.message();
  EXPECT_NE(typo.message().find("daemon-dispatch"), std::string::npos) << typo.message();
  // The real daemon sites arm fine.
  for (const char* site : {failpoint::kDaemonAccept, failpoint::kDaemonParse,
                           failpoint::kDaemonDispatch, failpoint::kDaemonRespond,
                           failpoint::kDaemonDrain}) {
    EXPECT_TRUE(failpoint::Arm(std::string("at=") + site + ":1").ok()) << site;
  }
  // There is no enqueue stage (verify requests run on the connection's
  // thread), so there is no enqueue site either.
  EXPECT_FALSE(failpoint::Arm("at=daemon-enqueue:1").ok());
  failpoint::DisarmAll();
  EXPECT_FALSE(failpoint::Arm("bogus").ok());
  EXPECT_FALSE(failpoint::Arm("at=solver-decision").ok());
  EXPECT_FALSE(failpoint::Arm("p=solver-decision:1.5").ok());
  EXPECT_FALSE(failpoint::Arm("at=solver-decision:0").ok());
  EXPECT_FALSE(failpoint::Arm("at=solver-decision:1,action=explode").ok());
  // Overflow must be rejected with a diagnostic, not silently clamped by
  // strtoll/strtod saturation (errno=ERANGE used to go unchecked).
  EXPECT_FALSE(failpoint::Arm("at=solver-decision:99999999999999999999999").ok());
  EXPECT_FALSE(failpoint::Arm("after=solver-decision:9223372036854775808").ok());
  EXPECT_FALSE(failpoint::Arm("p=solver-decision:1e999").ok());
  // seed= parsing was entirely unchecked: junk, trailing garbage, negatives
  // (strtoull wraps them), and overflow must all be diagnosed.
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=abc").ok());
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=").ok());
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=7x").ok());
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=-1").ok());
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=99999999999999999999999").ok());
  EXPECT_TRUE(failpoint::Arm("at=solver-decision:3").ok());
  EXPECT_TRUE(failpoint::Arm("p=cache-insert:0.5,seed=7").ok());
}

// --- Bounded retry with budget escalation -------------------------------

TEST_F(FaultsTest, RetriesEscalateBudgetsUntilDecisive) {
  // A zero-decision budget leaves real generators inconclusive (the CDCL
  // core's unit propagation decides many queries without branching, so only
  // budget 0 reliably starves the fleet); escalation per retry must
  // eventually clear them, and the consumed retries must be visible on the
  // rows and in the table.
  BatchVerifier batch(platform_);
  BatchOptions base;
  base.jobs = 2;
  base.use_cache = true;
  base.solver_limits.max_decisions = 0;
  StatusOr<BatchReport> no_retry_or = batch.VerifyAll(kFleet, base);
  ASSERT_TRUE(no_retry_or.ok());
  BatchReport no_retry = no_retry_or.take();
  int inconclusive_without_retries = no_retry.NumWithOutcome(Outcome::kInconclusive);
  ASSERT_GT(inconclusive_without_retries, 0)
      << "budget of 0 decisions unexpectedly decisive:\n"
      << no_retry.RenderTable();

  BatchOptions with_retries = base;
  with_retries.retries = 24;  // 0 escalates to 1, then doubles: covers any query here.
  StatusOr<BatchReport> retried_or = batch.VerifyAll(kFleet, with_retries);
  ASSERT_TRUE(retried_or.ok());
  BatchReport retried = retried_or.take();
  EXPECT_EQ(retried.NumWithOutcome(Outcome::kInconclusive), 0) << retried.RenderTable();
  ExpectNoWrongVerdicts(retried);
  EXPECT_GT(retried.TotalRetries(), 0);
  for (const GeneratorResult& r : retried.results) {
    EXPECT_GE(r.attempts, 1) << r.generator;
  }
  EXPECT_NE(retried.RenderTable().find("retries consumed"), std::string::npos);
}

TEST_F(FaultsTest, RetryBypassesCachedNegativeEntries) {
  // The subtle interaction: attempt 1 caches kUnknown under the starved
  // budget. If the retry consulted that negative entry it would be a no-op
  // and the generator would stay inconclusive forever. The escalated attempt
  // must bypass (and then upgrade) the negative entry.
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.jobs = 1;
  opts.use_cache = true;  // Shared cache is what makes this dangerous.
  opts.solver_limits.max_decisions = 0;
  opts.retries = 24;
  // tryAttachInt32Add needs branching decisions even under the CDCL core, so
  // a zero budget reliably produces the negative entry on attempt 1.
  StatusOr<BatchReport> report_or = batch.VerifyAll({"tryAttachInt32Add"}, opts);
  ASSERT_TRUE(report_or.ok());
  BatchReport report = report_or.take();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].outcome, Outcome::kVerified) << report.RenderTable();
  EXPECT_GT(report.results[0].attempts, 1);
}

}  // namespace
}  // namespace icarus::verifier
