// ServerCore: the transport-independent engine of the `icarusd` verification
// service.
//
// One ServerCore owns the warm state a long-lived service exists to keep:
// the loaded Platform, the shared solver-result cache, the persistent
// verdict store, and a warm verdict view (generator → last decisive verdict,
// restored from the journal on startup). Transports (the Unix-socket loop in
// tools/icarusd_main.cc, in-process tests) parse requests off the wire and
// call the synchronous, thread-safe `Execute()` — one call per request,
// returning that request's response. Verification runs directly on the
// calling thread, so each connection thread paces its own client (responses
// per connection stay in request order) while independent connections
// proceed concurrently.
//
// A verify request inside Execute() is answered by the first of:
//
//   draining? ──────────────▶ SHUTTING_DOWN
//   warm view hit ──────────▶ OK (cached=true; no work)
//   persistent store hit ───▶ OK (CACHED_SAFE; journaled)
//   Verifier::Verify ───────▶ OK with the verdict, run on the caller's
//                             thread inside the containment boundary
//
// Failure domains: a request that throws (a genuine bug or an injected
// fault at daemon-dispatch) burns only itself — Execute() catches at the
// boundary and answers INTERNAL_ERROR. Drain (BeginDrain/FinishDrain) stops
// serving verify work, cancels in-flight verifications (their callers see
// INCONCLUSIVE), waits for them to return, then saves the persistent stores.
// The journal is fsync'd per record at append time, so a crash loses at most
// the record being written and a restarted daemon replays the journal back
// into an identical warm view.
#ifndef ICARUS_DAEMON_SERVER_H_
#define ICARUS_DAEMON_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/daemon/protocol.h"
#include "src/platform/platform.h"
#include "src/support/file_lock.h"
#include "src/support/status.h"
#include "src/sym/solver.h"
#include "src/sym/solver_cache.h"
#include "src/verifier/journal.h"
#include "src/verifier/verdict_store.h"

namespace icarus::daemon {

struct DaemonOptions {
  // Per-query solver budgets for every verification this daemon runs (the
  // budget is part of the verdict-store key, so it is service config, not
  // per-request — two clients asking under different budgets would defeat
  // the warm view).
  sym::Solver::Limits solver_limits;
  // When non-empty, every verdict is appended (fsync'd) here and replayed
  // into the warm view on startup.
  std::string journal_path;
  // Persistent stores under cache_dir (verdict store + solver cache), as in
  // `verify-all --incremental`. The daemon takes the advisory cache lock; if
  // another process holds it the daemon degrades to a read-only cache view.
  bool incremental = false;
  std::string cache_dir = ".icarus-cache";
  int64_t cache_max_mb = 64;
};

// Point-in-time service counters, exported via the `stats` op.
struct DaemonStats {
  int64_t requests = 0;     // Every Execute() call.
  int64_t served = 0;       // Verify requests that ran to a verdict.
  int64_t warm_hits = 0;    // Served from the warm verdict view.
  int64_t cached_safe = 0;  // Served from the persistent verdict store.
  int64_t rejected_draining = 0;
  int64_t internal_errors = 0;  // Contained crashes.
  int in_flight = 0;            // Verify requests currently executing.
  int64_t replayed = 0;         // Warm-view entries restored at startup.
  bool read_only_cache = false;

  std::string ToJson() const;
};

class ServerCore {
 public:
  // `platform` must outlive the core.
  ServerCore(const platform::Platform* platform, const DaemonOptions& options);
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  // Loads the persistent stores (taking the advisory cache lock), replays
  // the journal into the warm view, and opens the journal for appending.
  // Errors (unreadable journal, mismatched platform fingerprint) fail
  // startup; store problems degrade with a note.
  Status Start();

  // Serves one request on the calling thread and returns its response.
  // Thread-safe; call from any number of transport threads.
  Response Execute(const Request& request);

  // Stops serving verify work and pings (both answer SHUTTING_DOWN from now
  // on) and cancels in-flight verifications (their callers see
  // INCONCLUSIVE). Idempotent; callable from a signal-driven transport
  // thread.
  void BeginDrain();

  // Waits for in-flight Execute() calls to return, then durably saves the
  // persistent stores, closes the journal and drops the cache lock. Returns
  // the first drain error (store save failure, injected daemon-drain fault).
  Status FinishDrain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  // Set when a `shutdown` op was served; the transport loop polls this.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  DaemonStats StatsSnapshot() const;
  // Startup diagnostics (store-load notes, read-only degradation, replay
  // summary); the transport logs them.
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  Response ExecuteVerify(const Request& request);
  // Answers one verify request from the persistent store or by running the
  // verifier (containment boundary lives here).
  Response ServeVerify(const Request& request);
  void AppendJournal(const verifier::JournalRecord& record);
  std::string UnitFingerprint(const std::string& generator);

  const platform::Platform* platform_;
  DaemonOptions options_;

  // Serving state. `mu_` guards the warm view, the verdict store, the
  // fingerprint cache and the counters; verification itself runs outside
  // the lock. `idle_cv_` is signalled when counters_.in_flight drops to 0.
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::map<std::string, Response> warm_;  // Decisive verdicts only.
  std::atomic<bool> draining_{false};
  // Every in-flight VerifyOptions::cancel points here; BeginDrain sets it.
  std::atomic<bool> cancel_{false};
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;
  DaemonStats counters_;

  // Warm verification state.
  sym::SolverCache cache_;
  verifier::VerdictStore store_;
  std::unique_ptr<FileLock> cache_lock_;
  bool persistence_enabled_ = false;
  bool read_only_cache_ = false;
  std::string solver_store_path_;
  std::map<std::string, std::string> unit_fp_cache_;

  // Journal (appends serialized by journal_mu_).
  std::string fingerprint_;
  std::mutex journal_mu_;
  std::unique_ptr<verifier::JournalWriter> journal_;

  std::vector<std::string> notes_;
};

// Serves one accepted connection: a request line in, a response line out, in
// order, until the peer closes or the daemon drains. Every fault here is
// contained to this connection. Closes `fd` on exit. Used by the icarusd
// transport loop (tools/icarusd_main.cc).
void ServeConnection(ServerCore* core, int fd);

}  // namespace icarus::daemon

#endif  // ICARUS_DAEMON_SERVER_H_
