#include "src/daemon/server.h"

#include <exception>

#include <sys/stat.h>

#include "src/ast/fingerprint.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/failpoint.h"
#include "src/support/net.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/sym/cache_store.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verifier.h"

namespace icarus::daemon {

namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

bool IsDecisive(const std::string& outcome) {
  return outcome == verifier::OutcomeName(verifier::Outcome::kVerified) ||
         outcome == verifier::OutcomeName(verifier::Outcome::kRefuted) ||
         outcome == verifier::OutcomeName(verifier::Outcome::kCachedSafe);
}

Response ResponseFromRecord(const verifier::JournalRecord& rec) {
  Response resp;
  resp.status = kStatusOk;
  resp.generator = rec.generator;
  resp.outcome = rec.outcome;
  resp.error = rec.error;
  resp.cached = true;
  resp.paths = rec.paths;
  resp.queries = rec.queries;
  return resp;
}

// Per-op service-time histograms. The registry has no labels, so each op
// token gets its own instrument; the op set is fixed, so cardinality is
// bounded. The registry's Get* is idempotent per name.
obs::Histogram* OpHistogram(const std::string& op) {
  return obs::Registry::Global().GetHistogram(
      StrCat("icarus_daemon_op_", op, "_seconds"),
      StrCat("Service time of daemon '", op, "' ops"));
}

}  // namespace

std::string DaemonStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("requests").Int(requests);
  w.Key("served").Int(served);
  w.Key("warm_hits").Int(warm_hits);
  w.Key("cached_safe").Int(cached_safe);
  w.Key("rejected_draining").Int(rejected_draining);
  w.Key("internal_errors").Int(internal_errors);
  w.Key("in_flight").Int(in_flight);
  w.Key("replayed").Int(replayed);
  w.Key("read_only_cache").Bool(read_only_cache);
  w.EndObject();
  return w.Take();
}

ServerCore::ServerCore(const platform::Platform* platform, const DaemonOptions& options)
    : platform_(platform), options_(options) {}

ServerCore::~ServerCore() {
  if (started_) {
    BeginDrain();
    (void)FinishDrain();
  }
}

Status ServerCore::Start() {
  if (started_) {
    return Status::Error("ServerCore::Start called twice");
  }

  // Persistent stores, guarded by the advisory cache lock. A second writer
  // (another daemon, a concurrent `verify-all --incremental`) degrades this
  // instance to a read-only view: it still warms from the stores but never
  // writes them back, so the lock holder's saves are not clobbered.
  if (options_.incremental) {
    Status dir = verifier::EnsureCacheDir(options_.cache_dir);
    if (!dir.ok()) {
      notes_.push_back(StrCat(dir.message(), "; running without persistence"));
    } else {
      persistence_enabled_ = true;
      FileLock::Result lock = FileLock::TryExclusive(options_.cache_dir + "/lock");
      if (lock.state == FileLock::State::kAcquired) {
        cache_lock_ = std::move(lock.lock);
      } else {
        read_only_cache_ = true;
        notes_.push_back(StrCat(lock.message, "; cache degraded to read-only"));
        if (obs::Enabled()) {
          static obs::Counter* degraded = obs::Registry::Global().GetCounter(
              "icarus_cache_readonly_degraded_total",
              "Runs degraded to a read-only cache view by advisory-lock contention");
          degraded->Add(1);
        }
      }
      solver_store_path_ = verifier::SolverCacheStorePath(options_.cache_dir);
      verifier::VerdictStore::LoadResult loaded =
          store_.Load(verifier::VerdictStorePath(options_.cache_dir), verifier::kVerifierEpoch);
      if (!loaded.note.empty()) {
        notes_.push_back(loaded.note);
      }
    }
  }
  if (persistence_enabled_ && !solver_store_path_.empty()) {
    sym::CacheLoadResult loaded =
        sym::LoadSolverCache(solver_store_path_, verifier::kVerifierEpoch, &cache_);
    if (!loaded.note.empty()) {
      notes_.push_back(loaded.note);
    }
  }

  // Journal: replay yesterday's verdicts into the warm view, then open for
  // appending. Replay errors fail startup — serving from a journal we cannot
  // trust would hand out wrong warm verdicts.
  if (!options_.journal_path.empty()) {
    fingerprint_ = platform_->Fingerprint();
    if (FileExists(options_.journal_path)) {
      StatusOr<std::vector<verifier::JournalRecord>> records =
          verifier::ReadJournal(options_.journal_path, fingerprint_);
      if (!records.ok()) {
        return Status::Error(StrCat("cannot replay journal '", options_.journal_path,
                                    "': ", records.status().message(),
                                    " (remove or relocate the journal to start cold)"));
      }
      for (const verifier::JournalRecord& rec : records.value()) {
        if (IsDecisive(rec.outcome)) {
          // Last record wins, as in batch resume.
          warm_[rec.generator] = ResponseFromRecord(rec);
        }
      }
      counters_.replayed = static_cast<int64_t>(warm_.size());
      if (!warm_.empty()) {
        notes_.push_back(StrFormat("replayed %d warm verdicts from the journal",
                                   static_cast<int>(warm_.size())));
      }
    }
    StatusOr<std::unique_ptr<verifier::JournalWriter>> writer =
        verifier::JournalWriter::Open(options_.journal_path);
    if (!writer.ok()) {
      return writer.status();
    }
    journal_ = writer.take();
  }
  started_ = true;
  return Status::Ok();
}

std::string ServerCore::UnitFingerprint(const std::string& generator) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = unit_fp_cache_.find(generator);
    if (it != unit_fp_cache_.end()) {
      return it->second;
    }
  }
  // An unfingerprintable name stays empty: never matched against the store,
  // never stored (the verification itself reports the unknown-generator
  // error).
  std::string fp;
  StatusOr<ast::Fingerprint> computed = ast::UnitFingerprint(platform_->module(), generator);
  if (computed.ok()) {
    fp = computed.value().ToHex();
  }
  std::lock_guard<std::mutex> lock(mu_);
  unit_fp_cache_[generator] = fp;
  return fp;
}

void ServerCore::AppendJournal(const verifier::JournalRecord& record) {
  if (journal_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(journal_mu_);
  Status st = journal_->Append(record);
  if (!st.ok()) {
    // The service keeps serving — verdicts remain correct — but the
    // durability gap is visible in the notes and stats.
    std::lock_guard<std::mutex> note_lock(mu_);
    if (notes_.empty() || notes_.back() != st.message()) {
      notes_.push_back(st.message());
    }
  }
}

Response ServerCore::Execute(const Request& request) {
  WallTimer op_timer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests;
  }
  if (obs::Enabled()) {
    static obs::Counter* requests = obs::Registry::Global().GetCounter(
        "icarus_daemon_requests_total", "Requests executed by the daemon core");
    requests->Add(1);
  }

  Response resp = [&]() -> Response {
    Response out;
    out.id = request.id;
    if (request.op == kOpPing) {
      out.status = draining() ? kStatusShuttingDown : kStatusOk;
      return out;
    }
    if (request.op == kOpStats) {
      out.status = kStatusOk;
      out.stats_json = StatsSnapshot().ToJson();
      return out;
    }
    if (request.op == kOpShutdown) {
      shutdown_requested_.store(true, std::memory_order_release);
      out.status = kStatusOk;
      return out;
    }
    out = ExecuteVerify(request);
    out.id = request.id;
    return out;
  }();

  if (obs::Enabled() && !request.op.empty()) {
    OpHistogram(request.op)->Observe(op_timer.ElapsedSeconds());
  }
  return resp;
}

Response ServerCore::ExecuteVerify(const Request& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_acquire)) {
      ++counters_.rejected_draining;
      Response resp;
      resp.status = kStatusShuttingDown;
      resp.generator = request.generator;
      return resp;
    }
    // Warm view: a decisive verdict this service (or the journal it
    // replayed) already earned. Free — no work at all.
    auto it = warm_.find(request.generator);
    if (it != warm_.end()) {
      ++counters_.warm_hits;
      if (obs::Enabled()) {
        static obs::Counter* warm = obs::Registry::Global().GetCounter(
            "icarus_daemon_warm_hits_total", "Requests served from the warm verdict view");
        warm->Add(1);
      }
      return it->second;
    }
    // Counted under the same lock that BeginDrain sets draining_ under, so
    // FinishDrain's wait covers every verification that got past the check.
    ++counters_.in_flight;
  }

  Response resp;
  try {
    resp = ServeVerify(request);
  } catch (const std::exception& e) {
    // ServeVerify contains verification crashes itself; this net catches a
    // fault in the serving bookkeeping around it.
    resp = Response{};
    resp.status = kStatusError;
    resp.generator = request.generator;
    resp.error = e.what();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (--counters_.in_flight == 0) {
    idle_cv_.notify_all();
  }
  return resp;
}

Response ServerCore::ServeVerify(const Request& request) {
  obs::ScopedSpan verify_span("daemon.verify", request.generator);
  Response resp;
  resp.status = kStatusOk;
  resp.generator = request.generator;
  std::string unit_fp;
  if (options_.incremental && persistence_enabled_) {
    unit_fp = UnitFingerprint(request.generator);
  }

  verifier::GeneratorResult result;
  result.generator = request.generator;
  result.unit_fp = unit_fp;
  result.budget_decisions = options_.solver_limits.max_decisions;
  result.budget_seconds = options_.solver_limits.max_seconds;

  // Persistent-store hit: an unchanged unit previously VERIFIED under this
  // exact budget — same contract as `verify-all --incremental`.
  if (!unit_fp.empty()) {
    std::unique_lock<std::mutex> lock(mu_);
    if (store_.FindPass(request.generator, unit_fp, options_.solver_limits) != nullptr) {
      result.outcome = verifier::Outcome::kCachedSafe;
      resp.outcome = verifier::OutcomeName(result.outcome);
      resp.cached = true;
      ++counters_.cached_safe;
      ++counters_.served;
      warm_[request.generator] = resp;
      lock.unlock();
      AppendJournal(verifier::RecordFromResult(result, fingerprint_));
      return resp;
    }
  }

  WallTimer timer;
  // Containment boundary: a crash inside one request's verification (a
  // genuine bug or the daemon-dispatch fail point) becomes that request's
  // INTERNAL_ERROR response; the connection and every other request are
  // untouched.
  try {
    ICARUS_FAILPOINT(failpoint::kDaemonDispatch);
    verifier::VerifyOptions vopts;
    vopts.build_cfa = false;
    vopts.solver_cache = &cache_;
    vopts.solver_limits = options_.solver_limits;
    vopts.cancel = &cancel_;
    verifier::Verifier verifier(platform_);
    StatusOr<verifier::VerifyReport> report = verifier.Verify(request.generator, vopts);
    result.seconds = timer.ElapsedSeconds();
    if (!report.ok()) {
      result.outcome = verifier::Outcome::kError;
      result.error = report.status().message();
    } else {
      result.report = report.take();
      if (!result.report.meta.violations.empty()) {
        result.outcome = verifier::Outcome::kRefuted;
      } else if (result.report.inconclusive) {
        result.outcome = verifier::Outcome::kInconclusive;
      } else {
        result.outcome = verifier::Outcome::kVerified;
      }
    }
  } catch (const std::exception& e) {
    result.seconds = timer.ElapsedSeconds();
    result.outcome = verifier::Outcome::kInternalError;
    result.error = e.what();
  }

  resp.outcome = verifier::OutcomeName(result.outcome);
  resp.error = result.error;
  resp.seconds = result.seconds;
  resp.paths = result.report.meta.paths_explored;
  resp.queries = result.report.meta.solver_queries;

  if (obs::Enabled()) {
    static obs::Histogram* seconds = obs::Registry::Global().GetHistogram(
        "icarus_daemon_request_seconds", "Verify-request service time");
    seconds->Observe(result.seconds);
  }

  if (result.outcome == verifier::Outcome::kInternalError) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.internal_errors;
    }
    if (obs::Enabled()) {
      static obs::Counter* contained = obs::Registry::Global().GetCounter(
          "icarus_daemon_contained_faults_total",
          "Request crashes contained to an INTERNAL_ERROR response");
      contained->Add(1);
    }
  }

  bool decisive = result.outcome == verifier::Outcome::kVerified ||
                  result.outcome == verifier::Outcome::kRefuted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.served;
    if (decisive) {
      Response cached = resp;
      cached.cached = true;
      cached.seconds = 0;
      warm_[request.generator] = std::move(cached);
    }
  }
  if (result.outcome == verifier::Outcome::kVerified && persistence_enabled_ &&
      !read_only_cache_ && !unit_fp.empty()) {
    verifier::JournalRecord pass = verifier::RecordFromResult(result, verifier::kVerifierEpoch);
    std::lock_guard<std::mutex> lock(mu_);
    store_.Put(pass);  // In-memory: later requests hit CACHED_SAFE.
  }
  // Journal every verdict (fsync'd): the next daemon instance replays the
  // decisive ones into its warm view.
  AppendJournal(verifier::RecordFromResult(result, fingerprint_));
  return resp;
}

void ServerCore::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // Cancel in-flight work; each verification stops at its next path boundary
  // and its caller sees INCONCLUSIVE.
  cancel_.store(true, std::memory_order_relaxed);
}

Status ServerCore::FinishDrain() {
  BeginDrain();
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return counters_.in_flight == 0; });
  }
  started_ = false;

  Status status = Status::Ok();
  // The drain fail point models a fault in the shutdown path itself (e.g.
  // store save machinery); it surfaces as a drain error, never a crash.
  try {
    ICARUS_FAILPOINT(failpoint::kDaemonDrain);
    if (persistence_enabled_ && !read_only_cache_) {
      Status saved = store_.Save(verifier::VerdictStorePath(options_.cache_dir));
      if (!saved.ok()) {
        status = saved;
      }
      if (!solver_store_path_.empty()) {
        Status cache_saved =
            sym::SaveSolverCache(cache_, solver_store_path_, verifier::kVerifierEpoch,
                                 options_.cache_max_mb * 1024 * 1024);
        if (!cache_saved.ok() && status.ok()) {
          status = cache_saved;
        }
      }
    }
  } catch (const std::exception& e) {
    status = Status::Error(StrCat("drain fault: ", e.what()));
  }
  // The journal is fsync'd per record; closing it here releases the handle.
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    journal_.reset();
  }
  cache_lock_.reset();
  return status;
}

DaemonStats ServerCore::StatsSnapshot() const {
  DaemonStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = counters_;
  }
  stats.read_only_cache = read_only_cache_;
  return stats;
}

void ServeConnection(ServerCore* core, int fd) {
  net::LineReader reader(fd);
  std::string line;
  std::string error;
  while (true) {
    net::LineReader::Result got = reader.ReadLine(&line, &error);
    if (got != net::LineReader::Result::kLine) {
      break;
    }
    if (line.empty()) {
      continue;
    }
    Response resp;
    Request request;
    bool parsed = false;
    try {
      Status st = ParseRequest(line, &request);
      if (st.ok()) {
        parsed = true;
      } else {
        resp.status = kStatusBadRequest;
        resp.error = st.message();
      }
    } catch (const std::exception& e) {
      // An injected daemon-parse fault: this request is unusable, the
      // connection and every other request are fine.
      resp.status = kStatusError;
      resp.error = e.what();
    }
    if (parsed) {
      resp = core->Execute(request);
    }
    try {
      ICARUS_FAILPOINT(failpoint::kDaemonRespond);
      if (!net::WriteLine(fd, resp.ToJsonLine()).ok()) {
        break;  // Peer went away; nothing left to serve here.
      }
    } catch (const std::exception& e) {
      // A respond fault burns the in-flight response. Best effort: tell the
      // client something went wrong so it does not hang on a silent line.
      Response burnt;
      burnt.id = resp.id;
      burnt.status = kStatusError;
      burnt.error = e.what();
      if (!net::WriteLine(fd, burnt.ToJsonLine()).ok()) {
        break;
      }
    }
  }
  net::CloseFd(fd);
}

}  // namespace icarus::daemon
