// Daemon soak suite: a hundred-plus concurrent callers against an in-process
// ServerCore with injected faults, proving drain and accounting under a
// storm — every request gets exactly one honest response, and a drain fired
// in the middle of the storm still runs to a clean completion with in-flight
// work degraded, never dropped.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/platform/platform.h"
#include "src/support/failpoint.h"
#include "src/support/net.h"
#include "src/support/status.h"

namespace icarus::daemon {
namespace {

// Healthy generators only: whatever the storm does, a COUNTEREXAMPLE for any
// of these would be a wrong verdict.
const std::vector<std::string> kPool = {
    "tryAttachCompareInt32",   "tryAttachCompareString",  "tryAttachCompareObject",
    "tryAttachCompareSymbol",  "tryAttachInt32Add",       "tryAttachInt32Sub",
    "tryAttachInt32Mul",       "tryAttachInt32Div",       "tryAttachInt32Mod",
    "tryAttachInt32Bitwise",   "tryAttachInt32MinMax",    "tryAttachInt32Negation",
    "tryAttachInt32Not",       "tryAttachObjectLength",   "tryAttachStringLength",
    "tryAttachDenseElement",
};

class DaemonSoakTest : public ::testing::Test {
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

  // Fires `count` client threads, each sending one verify request over its
  // own connection served by ServeConnection (a socket pair stands in for
  // the accepted Unix socket), and collects every response.
  static std::vector<Response> Storm(ServerCore* core, int count) {
    std::vector<Response> responses(count);
    std::vector<std::thread> threads;
    threads.reserve(2 * count);
    for (int i = 0; i < count; ++i) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        ADD_FAILURE() << "socketpair failed";
        break;
      }
      threads.emplace_back([core, fd = fds[0]] { ServeConnection(core, fd); });
      threads.emplace_back([&responses, i, fd = fds[1]] {
        Response& resp = responses[i];
        net::LineReader reader(fd);
        std::string line;
        std::string error;
        if (!net::WriteLine(fd, Verify(kPool[i % kPool.size()]).ToJsonLine()).ok() ||
            reader.ReadLine(&line, &error) != net::LineReader::Result::kLine ||
            !ParseResponse(line, &resp).ok()) {
          resp.status = "DISCONNECTED";
        }
        net::CloseFd(fd);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    return responses;
  }

  static platform::Platform* platform_;
};

platform::Platform* DaemonSoakTest::platform_ = nullptr;

// Fault storm + mid-storm drain: seeded probabilistic faults at the dispatch
// site (inside the core) and the respond site (in the connection loop, driven
// here over socket pairs) while 120 callers hammer the core, then BeginDrain
// fired from outside once the storm is rolling. Every caller still gets
// exactly one honest response and the drain completes cleanly.
TEST_F(DaemonSoakTest, FaultStormWithMidStormDrainCompletesCleanly) {
  constexpr int kClients = 120;

  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());

  ASSERT_TRUE(
      failpoint::Arm(std::string("p=") + failpoint::kDaemonDispatch + ":0.15,seed=3").ok());
  ASSERT_TRUE(
      failpoint::Arm(std::string("p=") + failpoint::kDaemonRespond + ":0.05,seed=5").ok());

  // The drain races the storm from a separate thread: wait for the service
  // to have actually served something, then pull the plug.
  std::thread drainer([&core] {
    for (int spins = 0; spins < 200000; ++spins) {
      DaemonStats stats = core.StatsSnapshot();
      if (stats.served + stats.warm_hits >= 10) {
        break;
      }
      std::this_thread::yield();
    }
    core.BeginDrain();
  });

  std::vector<Response> responses = Storm(&core, kClients);
  drainer.join();

  int shut_down = 0;
  for (const Response& resp : responses) {
    // The complete set of honest dispositions under fault + drain; anything
    // else (an empty status, a hang — the join above already rules that
    // out) is a dropped request.
    bool valid = resp.status == kStatusOk || resp.status == kStatusShuttingDown ||
                 resp.status == kStatusError;
    ASSERT_TRUE(valid) << "status '" << resp.status << "' error '" << resp.error << "'";
    if (resp.status == kStatusShuttingDown) {
      ++shut_down;
    }
    if (resp.status == kStatusOk) {
      // Faults may burn individual requests (INTERNAL_ERROR), cancellation
      // may degrade them (INCONCLUSIVE) — but no wrong verdicts, ever.
      EXPECT_NE(resp.outcome, "COUNTEREXAMPLE") << resp.generator;
    }
    if (resp.status == kStatusError) {
      EXPECT_NE(resp.error.find("injected fault"), std::string::npos) << resp.error;
    }
  }
  EXPECT_EQ(core.StatsSnapshot().requests, kClients);

  // Drain must finish cleanly even though the storm was still raging when it
  // began (the drain fail point itself is not armed here).
  failpoint::DisarmAll();
  EXPECT_TRUE(core.FinishDrain().ok());

  // Post-drain the core refuses new work honestly.
  EXPECT_EQ(core.Execute(Verify("tryAttachInt32Add")).status, kStatusShuttingDown);
  (void)shut_down;  // How many were failed fast depends on timing; zero is legal.
}

// Repeated drain storms: BeginDrain/FinishDrain are idempotent and a core
// can be destroyed immediately after a storm without leaking anything (ASan
// runs of this test are the proof).
TEST_F(DaemonSoakTest, DrainIsIdempotentUnderConcurrentCallers) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());

  std::vector<std::thread> clients;
  std::atomic<int> responded{0};
  for (int i = 0; i < 32; ++i) {
    clients.emplace_back([&core, &responded, i] {
      (void)core.Execute(Verify(kPool[i % kPool.size()]));
      responded.fetch_add(1);
    });
  }
  // Several drainers race each other and the storm.
  std::vector<std::thread> drainers;
  for (int i = 0; i < 4; ++i) {
    drainers.emplace_back([&core] { core.BeginDrain(); });
  }
  for (std::thread& t : drainers) {
    t.join();
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(responded.load(), 32);
  EXPECT_TRUE(core.FinishDrain().ok());
}

}  // namespace
}  // namespace icarus::daemon
