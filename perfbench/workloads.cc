#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "oracle.h"
#include "process.h"
#include "src/meta/path_recorder.h"
#include "src/platform/platform.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verifier.h"

namespace perfbench {

namespace fs = std::filesystem;
using icarus::Status;
using icarus::platform::Platform;
using icarus::verifier::Outcome;

void RequestLayers::AddMeta(const icarus::meta::MetaResult& m) {
  meta_run_ms += m.seconds * 1e3;
  meta_gen_ms += m.gen_seconds * 1e3;
  meta_interp_ms += m.interp_seconds * 1e3;
  sym_solve_ms += m.solve_seconds * 1e3;
  paths_explored += m.paths_explored;
  paths_merged += m.paths_merged;
  queries += static_cast<double>(m.solver_queries);
  decisions += static_cast<double>(m.solver_decisions);
  learned += static_cast<double>(m.solver_learned_clauses);
}

namespace {

// Times a request's critical region: wall clock plus CPU of this process
// (and of its reaped children when the request spawns processes).
class CostMeter {
 public:
  explicit CostMeter(bool children)
      : children_(children), cpu_start_(CpuSeconds(children)) {}
  RequestCost Stop(int verdicts) const {
    RequestCost cost;
    cost.wall_s = timer_.ElapsedSeconds();
    cost.cpu_s = CpuSeconds(children_) - cpu_start_;
    cost.verdicts = verdicts;
    return cost;
  }

 private:
  bool children_;
  icarus::WallTimer timer_;
  double cpu_start_;
};

icarus::StatusOr<std::unique_ptr<Platform>> LoadPlatform() {
  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    return Status::Error("platform load failed: " + loaded.status().message());
  }
  std::vector<std::string> declared;
  for (const auto* fn : loaded.value()->module().Generators()) {
    declared.push_back(fn->name);
  }
  std::string diff = CheckGeneratorSet(declared);
  if (!diff.empty()) {
    return Status::Error(diff);
  }
  return loaded;
}

std::string JoinReasons(const std::vector<std::string>& reasons) {
  std::string out;
  for (const std::string& r : reasons) {
    out += (out.empty() ? "" : "; ") + r;
  }
  return out;
}

// sweep, sweep_par and incremental: one in-process VerifyAll per request.
class BatchWorkload : public Workload {
 public:
  BatchWorkload(const Options& options, int jobs, bool incremental)
      : jobs_(jobs),
        incremental_(incremental),
        cache_dir_(options.out_dir + "/incremental-store") {}

  Status SetUp() override {
    auto loaded = LoadPlatform();
    if (!loaded.ok()) {
      return loaded.status();
    }
    platform_ = loaded.take();
    answers_.clear();
    verifiable_.clear();
    for (const KnownAnswer& a : KnownAnswers()) {
      answers_[a.generator] = a.expected;
      if (a.expected == Expected::kVerified) {
        verifiable_.push_back(a.generator);
      }
    }
    // Warm-up request with a fixed input; its verdicts must be right too. For
    // incremental, its store rebuild is the store seeding.
    icarus::Rng warm(0);
    FailLedger ledger;
    Request(warm, ledger, nullptr, nullptr);
    if (!ledger.passed()) {
      return Status::Error("warm-up request failed: " + JoinReasons(ledger.reasons()));
    }
    return Status::Ok();
  }

  RequestCost Request(icarus::Rng& rng, FailLedger& ledger, Tracer* tracer,
                      LayerCounters* layers) override {
    std::vector<std::string> order;
    for (const auto& [name, expected] : answers_) {
      order.push_back(name);
    }
    Shuffle(rng, order);
    std::set<std::string> edited;
    icarus::verifier::BatchOptions options;
    options.jobs = jobs_;
    if (incremental_) {
      std::vector<std::string> pick = verifiable_;
      Shuffle(rng, pick);
      size_t quarter = pick.size() / 4;
      edited.insert(pick.begin(), pick.begin() + static_cast<std::ptrdiff_t>(quarter));
      pick.erase(pick.begin(), pick.begin() + static_cast<std::ptrdiff_t>(quarter));
      ScopedSpan span(tracer, "perfbench.rebuild_store");
      Status rebuilt = RebuildStore(pick);
      if (!rebuilt.ok()) {
        ledger.Record(false, rebuilt.message());
        return RequestCost{};
      }
      options.incremental = true;
      options.cache_dir = cache_dir_;
    }

    CostMeter meter(/*children=*/false);
    auto report = [&] {
      ScopedSpan span(tracer, "verifier.BatchVerifier::VerifyAll");
      icarus::verifier::BatchVerifier batch(platform_.get());
      return batch.VerifyAll(order, options);
    }();
    if (!report.ok()) {
      ledger.Record(false, "VerifyAll: " + report.status().message());
      return meter.Stop(0);
    }
    int verdicts = 0;
    for (const auto& row : report.value().results) {
      if (row.outcome == Outcome::kVerified || row.outcome == Outcome::kRefuted ||
          row.outcome == Outcome::kCachedSafe) {
        ++verdicts;
      }
    }
    RequestCost cost = meter.Stop(verdicts);

    std::vector<std::string> wrong;
    for (const auto& row : report.value().results) {
      Outcome want = WantedOutcome(answers_.at(row.generator));
      if (incremental_ && want == Outcome::kVerified && edited.count(row.generator) == 0) {
        want = Outcome::kCachedSafe;
      }
      std::string why = CheckRow(row, want);
      if (!why.empty()) {
        wrong.push_back(why);
      }
    }
    if (report.value().results.size() != answers_.size()) {
      wrong.push_back("missing rows");
    }
    if (!report.value().notes.empty()) {
      wrong.push_back("store note: " + JoinReasons(report.value().notes));
    }
    ledger.Record(wrong.empty(), JoinReasons(wrong));
    if (layers != nullptr) {
      AddLayers(report.value(), layers);
    }
    return cost;
  }

  double PeakRssMb() const override { return perfbench::PeakRssMb(/*children=*/false); }

 private:
  void AddLayers(const icarus::verifier::BatchReport& report, LayerCounters* layers) const {
    RequestLayers request;
    double busy = 0.0;
    for (const auto& row : report.results) {
      ++layers->rows;
      if (row.outcome == Outcome::kCachedSafe) {
        ++layers->cached_safe_rows;
      } else {
        request.AddMeta(row.report.meta);
      }
      layers->task_ms.push_back(row.seconds * 1e3);
      busy += row.seconds;
    }
    layers->requests.push_back(request);
    layers->cache_hits += report.cache.hits + report.cache.negative_hits;
    layers->cache_lookups += report.cache.lookups();
    layers->task_busy_s += busy;
    layers->pool_capacity_s += report.jobs * report.wall_seconds;
  }

  // Leaves the stores as an edit of every other verifiable unit would: a
  // cold incremental batch over `unedited` writes their PASSes and their
  // solver queries, and nothing of the edited units.
  Status RebuildStore(const std::vector<std::string>& unedited) const {
    std::error_code ec;
    fs::remove_all(cache_dir_, ec);
    icarus::verifier::BatchOptions options;
    options.jobs = 1;
    options.incremental = true;
    options.cache_dir = cache_dir_;
    icarus::verifier::BatchVerifier batch(platform_.get());
    auto report = batch.VerifyAll(unedited, options);
    if (!report.ok()) {
      return Status::Error("store rebuild failed: " + report.status().message());
    }
    for (const auto& row : report.value().results) {
      if (row.outcome != Outcome::kVerified) {
        return Status::Error("store rebuild: " + CheckRow(row, Outcome::kVerified));
      }
    }
    return Status::Ok();
  }

  int jobs_;
  bool incremental_;
  std::string cache_dir_;
  std::unique_ptr<Platform> platform_;
  std::map<std::string, Expected> answers_;
  std::vector<std::string> verifiable_;
};

// cli_verify: one `icarus` process per request.
class CliWorkload : public Workload {
 public:
  explicit CliWorkload(const Options& options) : bin_(options.icarus_bin), mirror_(options.trace) {}

  Status SetUp() override {
    answers_ = KnownAnswers();
    if (access(bin_.c_str(), X_OK) != 0) {
      return Status::Error("icarus binary not found: " + bin_);
    }
    // Warm-up: `icarus list` must print exactly the known generators.
    ProcessResult list = RunProcess({bin_, "list"});
    std::vector<std::string> declared;
    std::istringstream lines(list.output);
    for (std::string line; std::getline(lines, line);) {
      declared.push_back(line);
    }
    std::string diff = CheckGeneratorSet(declared);
    if (list.exit_code != 0 || !diff.empty()) {
      return Status::Error("`icarus list` failed (exit " + std::to_string(list.exit_code) +
                           "): " + diff);
    }
    if (mirror_) {
      auto loaded = LoadPlatform();
      if (!loaded.ok()) {
        return loaded.status();
      }
      platform_ = loaded.take();
    }
    return Status::Ok();
  }

  RequestCost Request(icarus::Rng& rng, FailLedger& ledger, Tracer* tracer,
                      LayerCounters* layers) override {
    const KnownAnswer& draw = answers_[rng.NextBelow(answers_.size())];
    bool buggy = draw.expected == Expected::kCounterexample;
    CostMeter meter(/*children=*/true);
    ProcessResult proc;
    {
      ScopedSpan span(tracer, buggy ? "cli.icarus_explain" : "cli.icarus_verify");
      proc = RunProcess({bin_, buggy ? "explain" : "verify", draw.generator});
    }
    RequestCost cost = meter.Stop(proc.exit_code == 0 ? 1 : 0);
    std::string why = proc.spawned ? CheckCliOutput(draw.generator, draw.expected,
                                                     proc.exit_code, proc.output)
                                   : "cannot spawn " + bin_;
    if (why.empty() && tracer != nullptr && layers != nullptr && platform_ != nullptr) {
      why = Mirror(draw, tracer, layers);
    }
    ledger.Record(why.empty(), why);
    return cost;
  }

  double PeakRssMb() const override { return perfbench::PeakRssMb(/*children=*/true); }

 private:
  // Traced runs repeat the request's pipeline in-process, after the timed
  // region, so the layers a CLI request crosses show up in the trace.
  std::string Mirror(const KnownAnswer& draw, Tracer* tracer, LayerCounters* layers) {
    bool buggy = draw.expected == Expected::kCounterexample;
    icarus::verifier::VerifyOptions options;
    options.record = buggy;
    icarus::WallTimer timer;
    auto report = [&] {
      ScopedSpan span(tracer, "verifier.Verifier::Verify");
      icarus::verifier::Verifier verifier(platform_.get());
      return verifier.Verify(draw.generator, options);
    }();
    double seconds = timer.ElapsedSeconds();
    if (!report.ok()) {
      return draw.generator + ": " + report.status().message();
    }
    const auto& rep = report.value();
    RequestLayers request;
    request.AddMeta(rep.meta);
    layers->requests.push_back(request);
    layers->rows += 1;
    layers->task_ms.push_back(seconds * 1e3);
    if (rep.verified != !buggy || (buggy && rep.meta.violations.empty())) {
      return draw.generator + ": in-process verdict differs from the known answer";
    }
    if (!buggy) {
      return "";
    }
    ScopedSpan span(tracer, "meta.ReplayWithWitnesses");
    auto stub = platform_->MakeMetaStub(draw.generator);
    if (!stub.ok()) {
      return draw.generator + ": " + stub.status().message();
    }
    auto outcome = icarus::meta::ReplayWithWitnesses(&platform_->module(), &platform_->externs(),
                                                     stub.value(), rep.meta.violations.front());
    return outcome.reproduced ? "" : draw.generator + ": in-process replay did not reproduce";
  }

  std::string bin_;
  bool mirror_;
  std::vector<KnownAnswer> answers_;
  std::unique_ptr<Platform> platform_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (options.workload == "sweep") {
    return std::make_unique<BatchWorkload>(options, 1, false);
  }
  if (options.workload == "sweep_par") {
    return std::make_unique<BatchWorkload>(options, std::min(4, cores), false);
  }
  if (options.workload == "incremental") {
    return std::make_unique<BatchWorkload>(options, 1, true);
  }
  if (options.workload == "cli_verify") {
    return std::make_unique<CliWorkload>(options);
  }
  return nullptr;
}

}  // namespace perfbench
