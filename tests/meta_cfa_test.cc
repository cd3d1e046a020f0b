// Tests for the CFA builder, CFA minimization (Hopcroft-style partition
// refinement), the naive-executor ablation machinery, and the verifier facade.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cfa/cfa.h"
#include "src/meta/naive_executor.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/verifier/verifier.h"

namespace icarus {
namespace {

class CfaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(platform_, nullptr); }

  static StatusOr<cfa::Cfa> Build(const std::string& generator) {
    auto stub = platform_->MakeMetaStub(generator);
    if (!stub.ok()) {
      return stub.status();
    }
    cfa::CfaBuilder builder(&platform_->module(), &platform_->externs());
    return builder.Build(stub.value());
  }

  static platform::Platform* platform_;
};

platform::Platform* CfaTest::platform_ = nullptr;

TEST_F(CfaTest, TypedArrayCfaMatchesPaperShape) {
  auto automaton = Build("bug1685925_buggy");
  ASSERT_TRUE(automaton.ok()) << automaton.status().message();
  const cfa::Cfa& a = automaton.value();
  // Figure 6: a handful of nodes, and "about ten" feasible sequences.
  EXPECT_GE(a.num_nodes(), 5);
  EXPECT_LE(a.num_nodes(), 12);
  int64_t paths = a.CountPaths(32, 1000000);
  EXPECT_GE(paths, 2);
  EXPECT_LE(paths, 20);
  // Node ops include the guard and the dangerous load.
  bool has_guard = false;
  bool has_load = false;
  for (const cfa::Node& node : a.nodes()) {
    has_guard = has_guard || node.op->name == "BranchTestObject";
    has_load = has_load || node.op->name == "LoadPrivateIntPtr";
  }
  EXPECT_TRUE(has_guard);
  EXPECT_TRUE(has_load);
}

TEST_F(CfaTest, DotExportIsWellFormed) {
  auto automaton = Build("tryAttachCompareInt32");
  ASSERT_TRUE(automaton.ok());
  std::string dot = automaton.value().ToDot();
  EXPECT_TRUE(StartsWith(dot, "digraph cfa {"));
  EXPECT_TRUE(Contains(dot, "entry"));
  EXPECT_TRUE(Contains(dot, "failure"));
  EXPECT_TRUE(Contains(dot, "->"));
  // Grouped by source op (Figure 6's boxes).
  EXPECT_TRUE(Contains(dot, "subgraph cluster_"));
  EXPECT_TRUE(Contains(dot, "CompareInt32Result"));
}

TEST_F(CfaTest, EveryFig12GeneratorHasFiniteCfa) {
  for (const auto& info : platform::Fig12Generators()) {
    auto automaton = Build(info.function);
    ASSERT_TRUE(automaton.ok()) << info.function;
    EXPECT_GT(automaton.value().num_nodes(), 0) << info.function;
    EXPECT_LT(automaton.value().CountPaths(64, 100000), 100000) << info.function;
  }
}

TEST_F(CfaTest, NaiveExplosionVsCfaConstraint) {
  auto stub = platform_->MakeMetaStub("bug1685925_buggy");
  ASSERT_TRUE(stub.ok());
  meta::NaiveConfig config;
  config.max_len = 6;
  config.time_budget_seconds = 0.2;
  meta::NaiveResult naive =
      meta::NaiveExecutor::RunNaive(stub.value().interpreter, config);
  EXPECT_GT(naive.num_ops, 40);
  // k^1 + ... + k^6 with k > 40 is astronomically more than the CFA's paths.
  EXPECT_GT(naive.total_state_space, 1e9);
  EXPECT_TRUE(naive.budget_exhausted);
  EXPECT_GT(naive.states_explored, 0);

  auto automaton = Build("bug1685925_buggy");
  ASSERT_TRUE(automaton.ok());
  config.max_len = 25;
  config.time_budget_seconds = 5.0;
  meta::NaiveResult constrained =
      meta::NaiveExecutor::RunCfaConstrained(automaton.value(), config);
  EXPECT_FALSE(constrained.budget_exhausted);
  EXPECT_LE(constrained.total_state_space, 32);
  EXPECT_EQ(constrained.sequences_completed,
            static_cast<int64_t>(constrained.total_state_space));
}

TEST_F(CfaTest, VerifierReportRendersEverything) {
  verifier::Verifier v(platform_);
  verifier::VerifyOptions options;
  options.runs = 3;
  options.build_cfa = true;
  auto report = v.Verify("bug1685925_buggy", options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_FALSE(report.value().verified);
  EXPECT_GT(report.value().total_loc, 50);
  EXPECT_GT(report.value().cfa_nodes, 0);
  std::string rendered = report.value().Render();
  EXPECT_TRUE(Contains(rendered, "COUNTEREXAMPLE"));
  EXPECT_TRUE(Contains(rendered, "numFixedSlots"));
  EXPECT_TRUE(Contains(rendered, "stub (target ops)"));
  EXPECT_FALSE(report.value().cfa_dot.empty());

  auto fixed = v.Verify("bug1685925_fixed", options);
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE(fixed.value().verified);
  EXPECT_TRUE(Contains(fixed.value().Render(), "VERIFIED"));
}

TEST_F(CfaTest, VerifierRejectsUnknownGenerator) {
  verifier::Verifier v(platform_);
  EXPECT_FALSE(v.Verify("no_such_generator").ok());
}

// ---------------------------------------------------------------------------
// CFA minimization (Hopcroft-style partition refinement)
// ---------------------------------------------------------------------------

class CfaMinimizeTest : public ::testing::Test {
 protected:
  CfaMinimizeTest() {
    op_a_.name = "OpA";
    op_b_.name = "OpB";
    op_c_.name = "OpC";
  }

  // Distinct emit sites so NodeFor mints distinct nodes for the same op.
  const ast::Stmt* Site(int i) { return &sites_[i]; }

  // The language of the automaton: every distinct op-name sequence from
  // entry to exit/failure of length <= max_len. This is what minimization
  // must preserve exactly (path *counts* may shrink — that is the point).
  static std::set<std::vector<std::string>> Language(const cfa::Cfa& a, int max_len) {
    std::set<std::vector<std::string>> out;
    struct Item {
      int node;
      std::vector<std::string> seq;
    };
    std::vector<Item> stack;
    for (int succ : a.Successors(cfa::kEntry)) {
      stack.push_back({succ, {}});
    }
    while (!stack.empty()) {
      Item item = std::move(stack.back());
      stack.pop_back();
      if (item.node == cfa::kExit || item.node == cfa::kFailure) {
        out.insert(item.seq);
        continue;
      }
      if (item.node < 0 || static_cast<int>(item.seq.size()) >= max_len) {
        continue;
      }
      item.seq.push_back(a.nodes()[static_cast<size_t>(item.node)].op->name);
      for (int succ : a.Successors(item.node)) {
        stack.push_back({succ, item.seq});
      }
    }
    return out;
  }

  ast::OpDecl op_a_;
  ast::OpDecl op_b_;
  ast::OpDecl op_c_;
  ast::Stmt sites_[8] = {};
};

TEST_F(CfaMinimizeTest, AlreadyMinimalAutomatonIsAFixpoint) {
  cfa::Cfa a;
  int n0 = a.NodeFor(&op_a_, Site(0), 0, nullptr);
  int n1 = a.NodeFor(&op_b_, Site(1), 0, nullptr);
  int n2 = a.NodeFor(&op_c_, Site(2), 0, nullptr);
  a.AddEdge(cfa::kEntry, n0);
  a.AddEdge(n0, n1);
  a.AddEdge(n0, n2);
  a.AddEdge(n1, cfa::kExit);
  a.AddEdge(n2, cfa::kFailure);

  cfa::MinimizeStats stats = a.Minimize();
  EXPECT_EQ(stats.merges, 0);
  EXPECT_EQ(stats.nodes_before, stats.nodes_after);
  EXPECT_EQ(stats.edges_before, stats.edges_after);
  EXPECT_EQ(a.num_nodes(), 3);
  // Idempotent: a second run changes nothing either.
  cfa::MinimizeStats again = a.Minimize();
  EXPECT_EQ(again.merges, 0);
  EXPECT_EQ(a.num_nodes(), 3);
}

TEST_F(CfaMinimizeTest, QuotientPreservesLanguageAndCutsPathCount) {
  // Diamond-heavy shape: two parallel chains emitting the same op sequence
  // A;B from distinct emit sites. The language has one word; the raw graph
  // counts two paths for it.
  cfa::Cfa a;
  int a1 = a.NodeFor(&op_a_, Site(0), 0, nullptr);
  int b1 = a.NodeFor(&op_b_, Site(1), 0, nullptr);
  int a2 = a.NodeFor(&op_a_, Site(2), 0, nullptr);
  int b2 = a.NodeFor(&op_b_, Site(3), 0, nullptr);
  a.AddEdge(cfa::kEntry, a1);
  a.AddEdge(cfa::kEntry, a2);
  a.AddEdge(a1, b1);
  a.AddEdge(a2, b2);
  a.AddEdge(b1, cfa::kExit);
  a.AddEdge(b2, cfa::kExit);

  std::set<std::vector<std::string>> before = Language(a, 8);
  int64_t raw_paths = a.CountPaths(8);
  EXPECT_EQ(raw_paths, 2);

  cfa::MinimizeStats stats = a.Minimize();
  EXPECT_EQ(stats.nodes_before, 4);
  EXPECT_EQ(stats.nodes_after, 2);
  EXPECT_EQ(stats.merges, 2);
  EXPECT_EQ(Language(a, 8), before);
  EXPECT_EQ(a.CountPaths(8), 1);
  // The surviving representatives keep the lowest original ids' identity.
  EXPECT_EQ(a.nodes()[0].op, &op_a_);
  EXPECT_EQ(a.nodes()[1].op, &op_b_);
}

TEST_F(CfaMinimizeTest, SentinelClassesNeverMerge) {
  // Same op, but one node bails to failure and the other returns: the
  // sentinel signature codes keep them apart (merging them would conflate
  // the success and failure languages).
  cfa::Cfa a;
  int n0 = a.NodeFor(&op_a_, Site(0), 0, nullptr);
  int n1 = a.NodeFor(&op_a_, Site(1), 0, nullptr);
  a.AddEdge(cfa::kEntry, n0);
  a.AddEdge(cfa::kEntry, n1);
  a.AddEdge(n0, cfa::kExit);
  a.AddEdge(n1, cfa::kFailure);

  std::set<std::vector<std::string>> before = Language(a, 8);
  cfa::MinimizeStats stats = a.Minimize();
  EXPECT_EQ(stats.merges, 0);
  EXPECT_EQ(a.num_nodes(), 2);
  EXPECT_EQ(Language(a, 8), before);
  // Sentinel edges survive the rebuild untouched.
  EXPECT_TRUE(a.edges().count({cfa::kEntry, 0}) != 0);
  EXPECT_TRUE(a.edges().count({0, cfa::kExit}) != 0 || a.edges().count({1, cfa::kExit}) != 0);
  EXPECT_TRUE(a.edges().count({0, cfa::kFailure}) != 0 ||
              a.edges().count({1, cfa::kFailure}) != 0);
}

TEST_F(CfaMinimizeTest, MergedNodesRemapBysiteEntriesToTheRepresentative) {
  cfa::Cfa a;
  int a1 = a.NodeFor(&op_a_, Site(0), 0, nullptr);
  int a2 = a.NodeFor(&op_a_, Site(1), 0, nullptr);
  a.AddEdge(cfa::kEntry, a1);
  a.AddEdge(cfa::kEntry, a2);
  a.AddEdge(a1, cfa::kExit);
  a.AddEdge(a2, cfa::kExit);
  ASSERT_EQ(a.Minimize().merges, 1);
  // Re-asking for either original emit site resolves to the surviving node
  // instead of minting a duplicate.
  EXPECT_EQ(a.NodeFor(&op_a_, Site(0), 0, nullptr), 0);
  EXPECT_EQ(a.NodeFor(&op_a_, Site(1), 0, nullptr), 0);
  EXPECT_EQ(a.num_nodes(), 1);
}

TEST_F(CfaMinimizeTest, CountPathsSaturatesAtLargeCapsWithoutOverflow) {
  // Two nodes with edges to each other and to exit: the number of paths
  // doubles per length step, overflowing int64 well before len 100. The old
  // sat_add computed a + b before clamping — signed overflow (UB) once the
  // cap exceeds INT64_MAX/2.
  cfa::Cfa a;
  int n0 = a.NodeFor(&op_a_, Site(0), 0, nullptr);
  int n1 = a.NodeFor(&op_b_, Site(1), 0, nullptr);
  a.AddEdge(cfa::kEntry, n0);
  a.AddEdge(n0, n0);
  a.AddEdge(n0, n1);
  a.AddEdge(n1, n0);
  a.AddEdge(n1, n1);
  a.AddEdge(n0, cfa::kExit);
  a.AddEdge(n1, cfa::kExit);
  EXPECT_EQ(a.CountPaths(100, INT64_MAX), INT64_MAX);
  EXPECT_EQ(a.CountPaths(100, INT64_MAX - 1), INT64_MAX - 1);
  // Small budgets still count exactly: len<=1 is the single path [A].
  EXPECT_EQ(a.CountPaths(1, INT64_MAX), 1);
}

TEST_F(CfaMinimizeTest, PlatformCfaMinimizationPreservesLanguage) {
  auto loaded = platform::Platform::Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  for (const char* name : {"tryAttachCompareString", "tryAttachInt32MinMax",
                           "tryAttachCompareNullUndefined", "bug1685925_buggy"}) {
    auto stub = loaded.value()->MakeMetaStub(name);
    ASSERT_TRUE(stub.ok()) << name;
    cfa::CfaBuilder builder(&loaded.value()->module(), &loaded.value()->externs());
    auto automaton = builder.Build(stub.value());
    ASSERT_TRUE(automaton.ok()) << name;
    std::set<std::vector<std::string>> before = Language(automaton.value(), 16);
    int64_t raw_paths = automaton.value().CountPaths(16);
    cfa::MinimizeStats stats = automaton.value().Minimize();
    EXPECT_EQ(stats.nodes_before - stats.nodes_after, stats.merges) << name;
    EXPECT_EQ(Language(automaton.value(), 16), before) << name;
    EXPECT_LE(automaton.value().CountPaths(16), raw_paths) << name;
  }
}

}  // namespace
}  // namespace icarus
