// Daemon serving-layer suite: wire-protocol round-trips and rejection
// diagnostics, and the ServerCore request lifecycle end to end — real
// verdicts, the warm view, CACHED_SAFE answers from the persistent store,
// contained dispatch faults, graceful drain, journal replay into a warm
// restart, and read-only degradation when another process holds the cache
// lock. Everything here is in-process; daemon_e2e_test.cc covers the real
// icarusd binary over a Unix socket.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/platform/platform.h"
#include "src/support/failpoint.h"
#include "src/support/status.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verdict_store.h"

namespace icarus::daemon {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Wire protocol -------------------------------------------------------

TEST(Protocol, RequestRoundTripsAllFields) {
  Request req;
  req.id = "ci \"shard\\3\"\n";  // Quotes, backslash, newline must survive.
  req.op = kOpVerify;
  req.generator = "tryAttachCompareInt32";

  Request back;
  Status st = ParseRequest(req.ToJsonLine(), &back);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(back.v, kProtocolVersion);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.generator, req.generator);
}

TEST(Protocol, ResponseRoundTripsAllFields) {
  Response resp;
  resp.id = "req-7";
  resp.status = kStatusOk;
  resp.generator = "bug1451976_buggy";
  resp.outcome = "COUNTEREXAMPLE";
  resp.error = "line\ttwo\n";
  resp.cached = true;
  resp.seconds = 0.25;
  resp.paths = 12;
  resp.queries = 34;
  resp.stats_json = "{\"requests\":3,\"nested\":{\"ci\":{}}}";  // Nested JSON as a string.

  Response back;
  Status st = ParseResponse(resp.ToJsonLine(), &back);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(back.id, resp.id);
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.generator, resp.generator);
  EXPECT_EQ(back.outcome, resp.outcome);
  EXPECT_EQ(back.error, resp.error);
  EXPECT_TRUE(back.cached);
  EXPECT_DOUBLE_EQ(back.seconds, 0.25);
  EXPECT_EQ(back.paths, 12);
  EXPECT_EQ(back.queries, 34);
  EXPECT_EQ(back.stats_json, resp.stats_json);
}

TEST(Protocol, ParseRequestRejectsMalformedInput) {
  Request req;
  // Unparseable JSON.
  EXPECT_FALSE(ParseRequest("{\"op\":", &req).ok());
  EXPECT_FALSE(ParseRequest("not json at all", &req).ok());
  // Future protocol version: refuse rather than mis-serve.
  EXPECT_FALSE(ParseRequest("{\"v\":99,\"op\":\"ping\"}", &req).ok());
  // Missing / unknown op (the diagnostic names the supported ops).
  EXPECT_FALSE(ParseRequest("{\"id\":\"x\"}", &req).ok());
  Status unknown_op = ParseRequest("{\"op\":\"frobnicate\"}", &req);
  ASSERT_FALSE(unknown_op.ok());
  EXPECT_NE(unknown_op.message().find("ping"), std::string::npos) << unknown_op.message();
  // verify needs a target.
  EXPECT_FALSE(ParseRequest("{\"op\":\"verify\"}", &req).ok());
}

TEST(Protocol, ParseRequestToleratesOmittedVersionAndUnknownKeys) {
  // A minimal hand-written client line: no v (defaults to current), an
  // unknown key a future client might send (skipped).
  Request req;
  Status st = ParseRequest(
      "{\"op\":\"verify\",\"gen\":\"tryAttachInt32Add\",\"priority\":\"high\",\"nice\":3}", &req);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(req.v, kProtocolVersion);
  EXPECT_EQ(req.generator, "tryAttachInt32Add");
}

TEST(Protocol, ParseResponseRequiresStatus) {
  Response resp;
  EXPECT_FALSE(ParseResponse("{\"id\":\"x\"}", &resp).ok());
  EXPECT_TRUE(ParseResponse("{\"status\":\"OK\"}", &resp).ok());
}

// --- ServerCore: the full request lifecycle -------------------------------

class ServerCoreTest : public ::testing::Test {
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

  static Request Verify(const std::string& generator) {
    Request req;
    req.op = kOpVerify;
    req.generator = generator;
    return req;
  }

  static platform::Platform* platform_;
};

platform::Platform* ServerCoreTest::platform_ = nullptr;

TEST_F(ServerCoreTest, ControlOpsAnswerInline) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());

  Request ping;
  ping.op = kOpPing;
  ping.id = "p1";
  Response pong = core.Execute(ping);
  EXPECT_EQ(pong.status, kStatusOk);
  EXPECT_EQ(pong.id, "p1");

  Request stats;
  stats.op = kOpStats;
  Response counters = core.Execute(stats);
  EXPECT_EQ(counters.status, kStatusOk);
  EXPECT_NE(counters.stats_json.find("\"requests\":2"), std::string::npos)
      << counters.stats_json;

  Request shutdown;
  shutdown.op = kOpShutdown;
  EXPECT_FALSE(core.shutdown_requested());
  EXPECT_EQ(core.Execute(shutdown).status, kStatusOk);
  EXPECT_TRUE(core.shutdown_requested());
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, ServesRealVerdictsAndWarmRepeats) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());

  // A healthy generator verifies; a study bug is refuted; an unknown name is
  // an ERROR outcome (served, not a protocol failure).
  Response ok = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(ok.status, kStatusOk);
  EXPECT_EQ(ok.outcome, "VERIFIED");
  EXPECT_FALSE(ok.cached);
  EXPECT_GT(ok.paths, 0);

  Response refuted = core.Execute(Verify("bug1451976_buggy"));
  EXPECT_EQ(refuted.status, kStatusOk);
  EXPECT_EQ(refuted.outcome, "COUNTEREXAMPLE");

  Response unknown = core.Execute(Verify("noSuchGenerator"));
  EXPECT_EQ(unknown.status, kStatusOk);
  EXPECT_EQ(unknown.outcome, "ERROR");
  EXPECT_NE(unknown.error.find("noSuchGenerator"), std::string::npos) << unknown.error;

  // Decisive verdicts are warm: the repeat is served from memory, marked
  // cached, with no recomputation.
  Response warm = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(warm.status, kStatusOk);
  EXPECT_EQ(warm.outcome, "VERIFIED");
  EXPECT_TRUE(warm.cached);
  Response warm_refuted = core.Execute(Verify("bug1451976_buggy"));
  EXPECT_TRUE(warm_refuted.cached);
  EXPECT_EQ(warm_refuted.outcome, "COUNTEREXAMPLE");
  // ERROR is not decisive — the retry really retries.
  Response retried = core.Execute(Verify("noSuchGenerator"));
  EXPECT_FALSE(retried.cached);

  DaemonStats stats = core.StatsSnapshot();
  EXPECT_EQ(stats.requests, 6);
  EXPECT_EQ(stats.warm_hits, 2);
  EXPECT_EQ(stats.served, 4);  // Two real verdicts + two ERROR attempts.
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, WholePlatformMatchesColdVerifyThenServesWarm) {
  // Every generator the daemon serves must get the verdict a cold one-shot
  // Verifier::Verify gives it, and a second pass must be answered entirely
  // from the warm view.
  std::vector<std::string> names;
  std::vector<std::string> cold;
  for (const ast::FunctionDecl* fn : platform_->module().Generators()) {
    verifier::VerifyOptions vopts;
    vopts.build_cfa = false;
    StatusOr<verifier::VerifyReport> report =
        verifier::Verifier(platform_).Verify(fn->name, vopts);
    ASSERT_TRUE(report.ok()) << fn->name << ": " << report.status().message();
    names.push_back(fn->name);
    cold.push_back(!report.value().meta.violations.empty() ? "COUNTEREXAMPLE"
                   : report.value().inconclusive           ? "INCONCLUSIVE"
                                                           : "VERIFIED");
  }
  ASSERT_EQ(names.size(), 38u);

  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  for (size_t i = 0; i < names.size(); ++i) {
    Response first = core.Execute(Verify(names[i]));
    EXPECT_EQ(first.status, kStatusOk) << names[i];
    EXPECT_EQ(first.outcome, cold[i]) << names[i];
    EXPECT_FALSE(first.cached) << names[i];
  }
  for (size_t i = 0; i < names.size(); ++i) {
    Response warm = core.Execute(Verify(names[i]));
    EXPECT_EQ(warm.outcome, cold[i]) << names[i];
    EXPECT_TRUE(warm.cached) << names[i];
  }
  EXPECT_EQ(core.StatsSnapshot().warm_hits, 38);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, DispatchFaultsAreContainedToTheirRequest) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());

  // Every dispatch throws while armed; the containment boundary must convert
  // each into an INTERNAL_ERROR response for that request alone.
  ASSERT_TRUE(failpoint::Arm(std::string("p=") + failpoint::kDaemonDispatch + ":1").ok());
  for (const char* generator : {"tryAttachCompareInt32", "tryAttachCompareInt32",
                                "tryAttachCompareInt32", "tryAttachInt32Add"}) {
    Response resp = core.Execute(Verify(generator));
    EXPECT_EQ(resp.status, kStatusOk);
    EXPECT_EQ(resp.outcome, "INTERNAL_ERROR") << generator;
    EXPECT_NE(resp.error.find("injected fault"), std::string::npos) << resp.error;
  }
  DaemonStats stats = core.StatsSnapshot();
  EXPECT_EQ(stats.internal_errors, 4);
  EXPECT_EQ(stats.in_flight, 0);

  // INTERNAL_ERROR is not decisive, so nothing burnt went warm; once
  // disarmed the same generator is verified at once, with no refusal.
  failpoint::DisarmAll();
  Response recovered = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(recovered.status, kStatusOk);
  EXPECT_EQ(recovered.outcome, "VERIFIED");
  EXPECT_FALSE(recovered.cached);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, ParseFaultIsARecoverableException) {
  // The parse site sits in ParseRequest itself; the transport catches the
  // recoverable InternalError and answers ERROR without dropping the
  // connection. Here we prove the exception type contract.
  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kDaemonParse + ":1").ok());
  Request req;
  bool contained = false;
  try {
    (void)ParseRequest("{\"op\":\"ping\"}", &req);
  } catch (const InternalError& e) {
    contained = true;
    EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos);
  }
  EXPECT_TRUE(contained);
}

TEST_F(ServerCoreTest, DrainCancelsInFlightWorkAndStopsServing) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());

  const std::vector<std::string> generators = {
      "tryAttachCompareStrictDifferentTypes", "tryAttachCompareNullUndefined",
      "tryAttachCompareInt32",  "tryAttachCompareString",
      "tryAttachCompareObject", "tryAttachCompareSymbol",
      "tryAttachInt32Add",      "tryAttachObjectLength",
  };
  std::vector<Response> responses(generators.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < generators.size(); ++i) {
    clients.emplace_back([&core, &generators, &responses, i] {
      responses[i] = core.Execute(Verify(generators[i]));
    });
  }

  // Catch the storm mid-flight, then drain. If the requests all finished
  // before we looked (possible on a fast machine), the drain still has to be
  // clean.
  for (int spins = 0; spins < 20000; ++spins) {
    DaemonStats stats = core.StatsSnapshot();
    if (stats.in_flight >= 1 || stats.served >= static_cast<int64_t>(generators.size())) {
      break;
    }
    std::this_thread::yield();
  }
  core.BeginDrain();
  for (std::thread& t : clients) {
    t.join();
  }

  for (const Response& resp : responses) {
    // A drained request kept its earned verdict, was degraded to
    // INCONCLUSIVE by cancellation, or was refused with SHUTTING_DOWN —
    // never dropped.
    if (resp.status == kStatusShuttingDown) {
      continue;
    }
    ASSERT_EQ(resp.status, kStatusOk) << resp.status << " " << resp.error;
    EXPECT_TRUE(resp.outcome == "VERIFIED" || resp.outcome == "INCONCLUSIVE")
        << resp.generator << " -> " << resp.outcome;
  }
  EXPECT_EQ(core.StatsSnapshot().in_flight, 0);

  // Post-drain, verify and ping answer SHUTTING_DOWN and the drain
  // completes cleanly.
  EXPECT_EQ(core.Execute(Verify("tryAttachInt32Add")).status, kStatusShuttingDown);
  Request ping;
  ping.op = kOpPing;
  EXPECT_EQ(core.Execute(ping).status, kStatusShuttingDown);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, DrainFaultSurfacesAsErrorNotCrash) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kDaemonDrain + ":1").ok());
  Status st = core.FinishDrain();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("drain fault"), std::string::npos) << st.message();
}

TEST_F(ServerCoreTest, JournalReplayRestoresTheWarmView) {
  std::string journal = TempPath("daemon_journal_replay.jsonl");
  std::remove(journal.c_str());

  {
    DaemonOptions options;
    options.journal_path = journal;
    ServerCore core(platform_, options);
    ASSERT_TRUE(core.Start().ok());
    EXPECT_EQ(core.Execute(Verify("tryAttachCompareInt32")).outcome, "VERIFIED");
    EXPECT_EQ(core.Execute(Verify("bug1451976_buggy")).outcome, "COUNTEREXAMPLE");
    // An ERROR verdict is journaled but must NOT be replayed as warm.
    EXPECT_EQ(core.Execute(Verify("noSuchGenerator")).outcome, "ERROR");
    ASSERT_TRUE(core.FinishDrain().ok());
  }

  // The restarted instance replays the journal: decisive verdicts are served
  // warm (cached, identical outcomes) without recomputation.
  DaemonOptions options;
  options.journal_path = journal;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  EXPECT_EQ(core.StatsSnapshot().replayed, 2);

  Response verified = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(verified.outcome, "VERIFIED");
  EXPECT_TRUE(verified.cached);
  Response refuted = core.Execute(Verify("bug1451976_buggy"));
  EXPECT_EQ(refuted.outcome, "COUNTEREXAMPLE");
  EXPECT_TRUE(refuted.cached);

  DaemonStats stats = core.StatsSnapshot();
  EXPECT_EQ(stats.warm_hits, 2);
  EXPECT_EQ(stats.served, 0);  // Nothing recomputed.
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, CorruptJournalFailsStartupLoudly) {
  // Serving warm verdicts from a journal we cannot parse would hand out
  // untrusted answers; startup must refuse and tell the operator what to do.
  std::string journal = TempPath("daemon_journal_corrupt.jsonl");
  {
    std::ofstream out(journal, std::ios::trunc);
    out << "this is not a journal\n{\"also\":\"garbage\"}\n";
  }
  DaemonOptions options;
  options.journal_path = journal;
  ServerCore core(platform_, options);
  Status st = core.Start();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cannot replay journal"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("start cold"), std::string::npos) << st.message();
  std::remove(journal.c_str());
}

TEST_F(ServerCoreTest, SecondWriterDegradesToReadOnlyCache) {
  std::string dir = TempPath("daemon_readonly_cache");
  (void)mkdir(dir.c_str(), 0755);
  std::remove(verifier::VerdictStorePath(dir).c_str());

  // Someone else (another daemon, a concurrent verify-all --incremental)
  // holds the advisory lock.
  FileLock::Result held = FileLock::TryExclusive(dir + "/lock");
  ASSERT_EQ(held.state, FileLock::State::kAcquired) << held.message;

  DaemonOptions options;
  options.incremental = true;
  options.cache_dir = dir;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  EXPECT_TRUE(core.StatsSnapshot().read_only_cache);
  bool noted = false;
  for (const std::string& note : core.notes()) {
    if (note.find("read-only") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);

  // Serving still works warm...
  EXPECT_EQ(core.Execute(Verify("tryAttachCompareInt32")).outcome, "VERIFIED");
  ASSERT_TRUE(core.FinishDrain().ok());
  // ...but the read-only instance never writes the stores back.
  struct stat st;
  EXPECT_NE(::stat(verifier::VerdictStorePath(dir).c_str(), &st), 0);
}

TEST_F(ServerCoreTest, PersistentStoreServesCachedSafeAfterRestart) {
  std::string dir = TempPath("daemon_store_cache");
  (void)mkdir(dir.c_str(), 0755);
  std::remove(verifier::VerdictStorePath(dir).c_str());
  std::remove(verifier::SolverCacheStorePath(dir).c_str());
  DaemonOptions options;
  options.incremental = true;
  options.cache_dir = dir;

  {
    ServerCore core(platform_, options);
    ASSERT_TRUE(core.Start().ok());
    EXPECT_EQ(core.Execute(Verify("tryAttachCompareInt32")).outcome, "VERIFIED");
    ASSERT_TRUE(core.FinishDrain().ok());  // Saves the stores.
  }

  // No journal, so the warm view starts empty: the answer comes from the
  // verdict store the first instance saved on drain.
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  Response cached = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(cached.status, kStatusOk);
  EXPECT_EQ(cached.outcome, "CACHED_SAFE");
  EXPECT_TRUE(cached.cached);
  // The store answer went warm as well.
  EXPECT_EQ(core.Execute(Verify("tryAttachCompareInt32")).outcome, "CACHED_SAFE");
  DaemonStats stats = core.StatsSnapshot();
  EXPECT_EQ(stats.cached_safe, 1);
  EXPECT_EQ(stats.warm_hits, 1);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, StatsJsonCarriesTheFullSnapshot) {
  DaemonStats stats;
  stats.requests = 3;
  stats.warm_hits = 2;
  stats.internal_errors = 1;
  stats.in_flight = 4;
  stats.read_only_cache = true;

  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"requests\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"warm_hits\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"internal_errors\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"in_flight\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"read_only_cache\":true"), std::string::npos) << json;
}

}  // namespace
}  // namespace icarus::daemon
