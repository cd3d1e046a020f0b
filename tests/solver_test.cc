#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sym/expr.h"
#include "src/sym/solver.h"
#include "src/sym/theory.h"

namespace icarus::sym {
namespace {

class SolverTest : public ::testing::Test {
 protected:
  Verdict Check(const std::vector<ExprRef>& conjuncts) {
    Solver solver;
    last_ = solver.Solve(conjuncts);
    return last_.verdict;
  }
  ExprPool pool_;
  SolveResult last_;
};

TEST_F(SolverTest, TrivialSatUnsat) {
  EXPECT_EQ(Check({pool_.True()}), Verdict::kSat);
  EXPECT_EQ(Check({pool_.False()}), Verdict::kUnsat);
  EXPECT_EQ(Check({}), Verdict::kSat);
}

TEST_F(SolverTest, PropositionalContradiction) {
  ExprRef p = pool_.Var("p", Sort::kBool);
  EXPECT_EQ(Check({p, pool_.Not(p)}), Verdict::kUnsat);
  EXPECT_EQ(Check({pool_.Or(p, pool_.Not(p))}), Verdict::kSat);
}

TEST_F(SolverTest, GuardAssertPairIsSameAtom) {
  // The common verifier query: path condition assumes isObject(v); the
  // assertion requires isObject(v). Hash-consing makes them one atom.
  ExprRef v = pool_.Var("value", Sort::kTerm);
  ExprRef tag = pool_.App("typeTag", {v}, Sort::kInt);
  ExprRef is_obj = pool_.Eq(tag, pool_.IntConst(7));
  EXPECT_EQ(Check({is_obj, pool_.Not(is_obj)}), Verdict::kUnsat);
}

TEST_F(SolverTest, EqualityTransitivity) {
  ExprRef a = pool_.Var("a", Sort::kTerm);
  ExprRef b = pool_.Var("b", Sort::kTerm);
  ExprRef c = pool_.Var("c", Sort::kTerm);
  EXPECT_EQ(Check({pool_.Eq(a, b), pool_.Eq(b, c), pool_.Ne(a, c)}), Verdict::kUnsat);
  EXPECT_EQ(Check({pool_.Eq(a, b), pool_.Ne(b, c)}), Verdict::kSat);
}

TEST_F(SolverTest, UninterpretedFunctionCongruence) {
  // shapeOf(o) == s  ∧  numFixedSlots(s) == 4  ⟹  numFixedSlots(shapeOf(o)) == 4.
  ExprRef o = pool_.Var("o", Sort::kTerm);
  ExprRef s = pool_.Var("s", Sort::kTerm);
  ExprRef shape_o = pool_.App("shapeOf", {o}, Sort::kTerm);
  ExprRef n_s = pool_.App("numFixedSlots", {s}, Sort::kInt);
  ExprRef n_shape_o = pool_.App("numFixedSlots", {shape_o}, Sort::kInt);
  // The TypedArray fixed-slot bound: slot 3 must be < numFixedSlots.
  ExprRef safe = pool_.Lt(pool_.IntConst(3), n_shape_o);
  // Guarded (GuardShape present): UNSAT, i.e. verified.
  EXPECT_EQ(Check({pool_.Eq(shape_o, s), pool_.Eq(n_s, pool_.IntConst(4)), pool_.Not(safe)}),
            Verdict::kUnsat);
  // Unguarded (megamorphic bug): SAT — a counterexample exists.
  EXPECT_EQ(Check({pool_.Eq(n_s, pool_.IntConst(4)), pool_.Not(safe)}), Verdict::kSat);
}

TEST_F(SolverTest, DistinctConstantsConflict) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  EXPECT_EQ(Check({pool_.Eq(x, pool_.IntConst(1)), pool_.Eq(x, pool_.IntConst(2))}),
            Verdict::kUnsat);
}

TEST_F(SolverTest, IntervalReasoning) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  // x < y ∧ y < x is UNSAT.
  EXPECT_EQ(Check({pool_.Lt(x, y), pool_.Lt(y, x)}), Verdict::kUnsat);
  // x < 5 ∧ x > 10 is UNSAT.
  EXPECT_EQ(Check({pool_.Lt(x, pool_.IntConst(5)), pool_.Gt(x, pool_.IntConst(10))}),
            Verdict::kUnsat);
  // 0 <= x ∧ x < 10 is SAT.
  EXPECT_EQ(Check({pool_.Le(pool_.IntConst(0), x), pool_.Lt(x, pool_.IntConst(10))}),
            Verdict::kSat);
  // Strictness chain: x < y ∧ y < z ∧ z < x+2 is UNSAT over ints... actually
  // x<y<z implies z >= x+2, and z < x+2 conflicts.
  ExprRef z = pool_.Var("z", Sort::kInt);
  EXPECT_EQ(Check({pool_.Lt(x, y), pool_.Lt(y, z),
                   pool_.Lt(z, pool_.Add(x, pool_.IntConst(2)))}),
            Verdict::kUnsat);
}

TEST_F(SolverTest, ArithmeticStructure) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef sum = pool_.Add(x, pool_.IntConst(1));
  // x == 3 ∧ x+1 != 4 is UNSAT (via interval propagation through kAdd).
  EXPECT_EQ(Check({pool_.Eq(x, pool_.IntConst(3)), pool_.Ne(sum, pool_.IntConst(4))}),
            Verdict::kUnsat);
  EXPECT_EQ(Check({pool_.Eq(x, pool_.IntConst(3)), pool_.Eq(sum, pool_.IntConst(4))}),
            Verdict::kSat);
}

TEST_F(SolverTest, Int32OverflowGuardPattern) {
  // Matches the Int32 Add stub: inputs in int32 range, the overflow branch
  // assumed not taken, assert the result is still in int32 range.
  ExprRef a = pool_.Var("a", Sort::kInt);
  ExprRef b = pool_.Var("b", Sort::kInt);
  ExprRef lo = pool_.IntConst(-2147483648LL);
  ExprRef hi = pool_.IntConst(2147483647LL);
  ExprRef sum = pool_.Add(a, b);
  std::vector<ExprRef> pc = {
      pool_.Le(lo, a), pool_.Le(a, hi), pool_.Le(lo, b), pool_.Le(b, hi),
      // Overflow guard passed:
      pool_.Le(lo, sum), pool_.Le(sum, hi),
  };
  // Assertion: sum in range. Negated → UNSAT.
  auto with_not = pc;
  with_not.push_back(pool_.Not(pool_.And(pool_.Le(lo, sum), pool_.Le(sum, hi))));
  EXPECT_EQ(Check(with_not), Verdict::kUnsat);
  // Without the guard, the negated assertion is satisfiable.
  std::vector<ExprRef> unguarded = {
      pool_.Le(lo, a), pool_.Le(a, hi), pool_.Le(lo, b), pool_.Le(b, hi),
      pool_.Not(pool_.And(pool_.Le(lo, sum), pool_.Le(sum, hi)))};
  EXPECT_EQ(Check(unguarded), Verdict::kSat);
}

TEST_F(SolverTest, BoolPredicateCongruence) {
  ExprRef x = pool_.Var("x", Sort::kTerm);
  ExprRef y = pool_.Var("y", Sort::kTerm);
  ExprRef px = pool_.App("isNative", {x}, Sort::kBool);
  ExprRef py = pool_.App("isNative", {y}, Sort::kBool);
  EXPECT_EQ(Check({pool_.Eq(x, y), px, pool_.Not(py)}), Verdict::kUnsat);
  EXPECT_EQ(Check({px, pool_.Not(py)}), Verdict::kSat);
}

TEST_F(SolverTest, ModelExtraction) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  ASSERT_EQ(Check({pool_.Eq(x, pool_.IntConst(7)), pool_.Lt(x, y)}), Verdict::kSat);
  int64_t xv = 0;
  int64_t yv = 0;
  ASSERT_TRUE(last_.model.Lookup(x, &xv));
  ASSERT_TRUE(last_.model.Lookup(y, &yv));
  EXPECT_EQ(xv, 7);
  EXPECT_GT(yv, xv);
}

TEST_F(SolverTest, ModelRespectsDisequalities) {
  ExprRef a = pool_.Var("a", Sort::kTerm);
  ExprRef b = pool_.Var("b", Sort::kTerm);
  ASSERT_EQ(Check({pool_.Ne(a, b)}), Verdict::kSat);
  int64_t av = 0;
  int64_t bv = 0;
  ASSERT_TRUE(last_.model.Lookup(a, &av));
  ASSERT_TRUE(last_.model.Lookup(b, &bv));
  EXPECT_NE(av, bv);
}

TEST_F(SolverTest, DeepNesting) {
  // f(f(f(x))) == x ∧ f(x) == x ⟹ f(f(f(x))) == x; negation UNSAT.
  ExprRef x = pool_.Var("x", Sort::kTerm);
  ExprRef fx = pool_.App("f", {x}, Sort::kTerm);
  ExprRef ffx = pool_.App("f", {fx}, Sort::kTerm);
  ExprRef fffx = pool_.App("f", {ffx}, Sort::kTerm);
  EXPECT_EQ(Check({pool_.Eq(fx, x), pool_.Ne(fffx, x)}), Verdict::kUnsat);
}

// ---------------------------------------------------------------------------
// CDCL-specific coverage: the incremental scope protocol, clause learning,
// backjumping, and unsat cores (docs/SOLVER.md documents the contract).
// ---------------------------------------------------------------------------

TEST_F(SolverTest, PushPopRestoresScopeState) {
  // The protocol every call site follows: Push/Assume/SolveAssuming/Pop must
  // retract assumptions completely — a conjunct assumed in a popped scope
  // cannot influence later queries.
  ExprRef p = pool_.Var("p", Sort::kBool);
  ExprRef q = pool_.Var("q", Sort::kBool);
  Solver solver;
  solver.Push();
  solver.Assume(p);
  EXPECT_EQ(solver.SolveAssuming().verdict, Verdict::kSat);
  solver.Push();
  solver.Assume(pool_.Not(p));
  EXPECT_EQ(solver.depth(), 2);
  EXPECT_EQ(solver.SolveAssuming().verdict, Verdict::kUnsat);
  solver.Pop();
  // Inner contradiction gone; outer scope must solve exactly as before.
  EXPECT_EQ(solver.SolveAssuming().verdict, Verdict::kSat);
  solver.Push();
  solver.Assume(q);
  EXPECT_EQ(solver.SolveAssuming().verdict, Verdict::kSat);
  solver.Pop();
  solver.Pop();
  EXPECT_EQ(solver.depth(), 0);
  // Fully popped: the empty conjunction is satisfiable even after an UNSAT
  // query was answered (assumptions are decisions, never clauses).
  EXPECT_EQ(solver.Solve({pool_.Not(p)}).verdict, Verdict::kSat);
}

TEST_F(SolverTest, TempClausesDieWithTheirScope) {
  ExprRef p = pool_.Var("p", Sort::kBool);
  ExprRef q = pool_.Var("q", Sort::kBool);
  Solver solver;
  solver.Push();
  solver.AddTempClause({p, q});          // p ∨ q while this scope is open.
  solver.Push();
  solver.Assume(pool_.Not(p));
  solver.Assume(pool_.Not(q));
  EXPECT_EQ(solver.SolveAssuming().verdict, Verdict::kUnsat);
  solver.Pop();
  solver.Pop();
  // The disjunction is retracted with its scope: ¬p ∧ ¬q is SAT again, even
  // though conflict clauses may have been learned from the guarded clause.
  EXPECT_EQ(solver.Solve({pool_.Not(p), pool_.Not(q)}).verdict, Verdict::kSat);
}

TEST_F(SolverTest, TempClausesAddedOnAWarmTrailTakeEffect) {
  // A persistent solver leaves the trail of its last query in place, so a
  // temporary clause added to an open scope between two queries can be
  // falsified on arrival: over two assumption levels (p, q assumed apart)
  // or within one (both propagated from p ∧ q). Repeating the query keeps
  // those levels, and must still see the clause.
  ExprRef p = pool_.Var("p", Sort::kBool);
  ExprRef q = pool_.Var("q", Sort::kBool);
  ExprRef r = pool_.Var("r", Sort::kBool);
  for (const std::vector<ExprRef>& query :
       {std::vector<ExprRef>{p, q}, std::vector<ExprRef>{pool_.And(p, q)}}) {
    Solver solver;
    solver.Push();
    solver.AddTempClause({r});  // Gives the scope its selector.
    solver.Push();
    for (ExprRef c : query) {
      solver.Assume(c);
    }
    EXPECT_EQ(solver.SolveAssuming().verdict, Verdict::kSat);
    solver.Pop();
    solver.AddTempClause({pool_.Not(p), pool_.Not(q)});
    solver.Push();
    for (ExprRef c : query) {
      solver.Assume(c);
    }
    EXPECT_EQ(solver.SolveAssuming().verdict, Verdict::kUnsat);
    EXPECT_EQ(solver.final_conflict().size(), query.size());
    solver.Pop();
    solver.Pop();
    EXPECT_EQ(solver.Solve(query).verdict, Verdict::kSat);
  }
}

TEST_F(SolverTest, LearnedClausesPersistAcrossQueriesSoundly) {
  // A persistent solver answers repeated and *sibling* queries after learning
  // from earlier ones; every verdict must match a fresh solver's. This is the
  // warm-solver configuration the meta-executor runs (one instance per
  // generator, all paths).
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  ExprRef f_x = pool_.App("f", {x}, Sort::kInt);
  ExprRef f_y = pool_.App("f", {y}, Sort::kInt);
  std::vector<std::vector<ExprRef>> queries = {
      {pool_.Lt(x, y), pool_.Lt(y, x)},                              // UNSAT
      {pool_.Lt(x, y), pool_.Lt(y, pool_.Add(x, pool_.IntConst(2)))},// SAT
      {pool_.Eq(x, y), pool_.Ne(f_x, f_y)},                          // UNSAT
      {pool_.Lt(x, y), pool_.Lt(y, x)},                              // repeat
      {pool_.Eq(x, y), pool_.Eq(f_x, f_y)},                          // SAT
  };
  Solver warm;
  for (const auto& q : queries) {
    Verdict fresh = Solver().Solve(q).verdict;
    EXPECT_EQ(warm.Solve(q).verdict, fresh);
  }
  EXPECT_GT(warm.stats().queries, 0);
}

TEST_F(SolverTest, BackjumpRefutesBranchingTheoryConflicts) {
  // Every assignment of the boolean selectors p,q forces the contradictory
  // pair x<y ∧ y<x, so refutation requires the search to branch, hit theory
  // conflicts, learn lemmas, and backjump across decision levels — the CDCL
  // loop end to end. Dropping the last row opens exactly one escape
  // (p ∧ q ∧ x<y), which the correctness half checks.
  ExprRef p = pool_.Var("sel_p", Sort::kBool);
  ExprRef q = pool_.Var("sel_q", Sort::kBool);
  ExprRef x = pool_.Var("bx", Sort::kInt);
  ExprRef y = pool_.Var("by", Sort::kInt);
  ExprRef xy = pool_.Lt(x, y);
  ExprRef yx = pool_.Lt(y, x);
  std::vector<ExprRef> cs;
  for (ExprRef pl : {p, pool_.Not(p)}) {
    for (ExprRef ql : {q, pool_.Not(q)}) {
      cs.push_back(pool_.Or(pl, pool_.Or(ql, xy)));
      cs.push_back(pool_.Or(pl, pool_.Or(ql, yx)));
    }
  }
  Solver solver;
  EXPECT_EQ(solver.Solve(cs).verdict, Verdict::kUnsat);
  // The refutation must have actually learned something (CDCL engaged).
  EXPECT_GT(solver.stats().learned_clauses, 0);
  cs.pop_back();  // Drop {¬p ∨ ¬q ∨ y<x}: p ∧ q ∧ x<y now satisfies.
  SolveResult r = solver.Solve(cs);
  ASSERT_EQ(r.verdict, Verdict::kSat);
  int64_t xv = 0;
  int64_t yv = 0;
  ASSERT_TRUE(r.model.Lookup(x, &xv));
  ASSERT_TRUE(r.model.Lookup(y, &yv));
  EXPECT_LT(xv, yv);
}

TEST_F(SolverTest, ModelSatisfiesEveryConjunct) {
  // Learned-clause soundness, checked from the SAT side: any model produced
  // after warm-up must still evaluate every conjunct of the *current* query
  // to true (a clause wrongly retained from a popped scope or an unsound
  // lemma would steer the model off the query).
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  Solver solver;
  // Warm up with a contradictory sibling so clauses get learned.
  EXPECT_EQ(solver.Solve({pool_.Lt(x, y), pool_.Lt(y, x)}).verdict, Verdict::kUnsat);
  SolveResult r = solver.Solve({pool_.Lt(x, y), pool_.Le(pool_.IntConst(10), x),
                                pool_.Le(y, pool_.IntConst(12))});
  ASSERT_EQ(r.verdict, Verdict::kSat);
  int64_t xv = 0;
  int64_t yv = 0;
  ASSERT_TRUE(r.model.Lookup(x, &xv));
  ASSERT_TRUE(r.model.Lookup(y, &yv));
  EXPECT_LT(xv, yv);
  EXPECT_GE(xv, 10);
  EXPECT_LE(yv, 12);
}

TEST_F(SolverTest, FinalConflictIsAnUnsatCore) {
  // final_conflict() must name a subset of the assumed conjuncts that is
  // itself UNSAT — and for this query, strictly smaller than the full set
  // (minimality smoke: the irrelevant conjuncts are dropped).
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef a = pool_.Var("a", Sort::kInt);
  ExprRef b = pool_.Var("b", Sort::kInt);
  ExprRef clash1 = pool_.Eq(x, pool_.IntConst(1));
  ExprRef clash2 = pool_.Eq(x, pool_.IntConst(2));
  std::vector<ExprRef> padding = {pool_.Lt(a, b), pool_.Le(pool_.IntConst(0), a),
                                  pool_.Le(b, pool_.IntConst(100))};
  Solver solver;
  solver.Push();
  for (ExprRef c : padding) {
    solver.Assume(c);
  }
  solver.Assume(clash1);
  solver.Assume(clash2);
  ASSERT_EQ(solver.SolveAssuming().verdict, Verdict::kUnsat);
  std::vector<ExprRef> core = solver.final_conflict();
  solver.Pop();
  ASSERT_FALSE(core.empty());
  EXPECT_LT(core.size(), padding.size() + 2) << "core did not shrink";
  // Every core member must be one of the assumed conjuncts...
  for (ExprRef c : core) {
    bool assumed = std::find(padding.begin(), padding.end(), c) != padding.end() ||
                   c == clash1 || c == clash2;
    EXPECT_TRUE(assumed);
  }
  // ...and the core alone must already be UNSAT.
  EXPECT_EQ(Solver().Solve(core).verdict, Verdict::kUnsat);
}

TEST_F(SolverTest, DecideOnlyAblationEngineAgrees) {
  // The --no-clause-learning engine must return the same verdicts (it is the
  // differential oracle, so pin it on a couple of fixed formulas too).
  Solver::Options no_learn;
  no_learn.clause_learning = false;
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  std::vector<std::vector<ExprRef>> queries = {
      {pool_.Lt(x, y), pool_.Lt(y, x)},
      {pool_.Le(pool_.IntConst(0), x), pool_.Lt(x, pool_.IntConst(3))},
  };
  for (const auto& q : queries) {
    Solver cdcl;
    Solver dpll(Solver::Limits{}, no_learn);
    EXPECT_EQ(cdcl.Solve(q).verdict, dpll.Solve(q).verdict);
  }
  // The ablation engine reports no CDCL activity.
  Solver dpll(Solver::Limits{}, no_learn);
  EXPECT_EQ(dpll.Solve({pool_.Lt(x, y), pool_.Lt(y, x)}).verdict, Verdict::kUnsat);
  EXPECT_EQ(dpll.stats().learned_clauses, 0);
  EXPECT_EQ(dpll.stats().propagations, 0);
  EXPECT_EQ(dpll.stats().restarts, 0);
}

TEST_F(SolverTest, PersistentLearningAmortizesPathPruningStream) {
  // The query stream a generator's path exploration sends one persistent
  // solver: 2^6 guard prefixes over a shared ordering chain v0 < ... < v9,
  // each path also asserting three disjunctions whose every disjunct reverses
  // a chain link (v_{i+1} < v_i, an atom distinct from the link's negation).
  // Every path is UNSAT, but only the theory sees it, and only through the
  // decided disjuncts. The decide-only engine re-derives each refutation from
  // scratch; the CDCL engine learns the per-link reversal lemmas once and
  // answers later queries by propagation. Counters, not wall clock, carry the
  // amortization claim (docs/SOLVER.md §"Why persistence pays").
  constexpr int kIntVars = 10;
  constexpr int kGuards = 6;
  constexpr int kPasses = 8;
  std::vector<ExprRef> ints;
  for (int i = 0; i < kIntVars; ++i) {
    ints.push_back(pool_.Var("v" + std::to_string(i), Sort::kInt));
  }
  std::vector<ExprRef> chain;
  for (size_t i = 0; i + 1 < ints.size(); ++i) {
    chain.push_back(pool_.Lt(ints[i], ints[i + 1]));
  }
  auto reversed = [&](int link) {
    size_t i = static_cast<size_t>(link % (kIntVars - 1));
    return pool_.Lt(ints[i + 1], ints[i]);
  };
  std::vector<std::vector<ExprRef>> stream;
  for (int p = 0; p < (1 << kGuards); ++p) {
    std::vector<ExprRef> q;
    for (int j = 0; j < kGuards; ++j) {
      ExprRef g = pool_.Var("g" + std::to_string(j), Sort::kBool);
      q.push_back((p >> j & 1) != 0 ? g : pool_.Not(g));
    }
    q.insert(q.end(), chain.begin(), chain.end());
    for (int j = 0; j < 3; ++j) {
      q.push_back(pool_.Or(reversed(p + 2 * j), reversed(p + 2 * j + 3)));
    }
    stream.push_back(std::move(q));
  }

  Solver::Options no_learn;
  no_learn.clause_learning = false;
  Solver decide_only(Solver::Limits{}, no_learn);
  Solver cdcl;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(decide_only.Solve(stream[i], /*want_model=*/false).verdict, Verdict::kUnsat) << "query " << i;
      ASSERT_EQ(cdcl.Solve(stream[i], /*want_model=*/false).verdict, Verdict::kUnsat) << "query " << i;
    }
  }
  EXPECT_GT(cdcl.stats().learned_clauses, 0);
  EXPECT_LE(cdcl.stats().decisions * 5, decide_only.stats().decisions)
      << cdcl.stats().decisions << " vs " << decide_only.stats().decisions;
  EXPECT_LE(cdcl.stats().theory_checks * 5, decide_only.stats().theory_checks)
      << cdcl.stats().theory_checks << " vs " << decide_only.stats().theory_checks;
}

// ---------------------------------------------------------------------------
// Differential fuzz: random formulas, CDCL vs the decide-only oracle. The
// formulas mix propositional structure with a small theory vocabulary so the
// lazy-SMT loop (lemma learning from theory conflicts) is exercised, not just
// the boolean core. Deterministic PRNG: failures reproduce by seed.
// ---------------------------------------------------------------------------

class SolverFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverFuzzTest, CdclMatchesDecideOnlyOracle) {
  uint64_t state = GetParam() * 0x9E3779B97F4A7C15ULL + 1;
  auto rnd = [&state](int n) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % static_cast<uint64_t>(n));
  };
  ExprPool pool;
  // Vocabulary: bools p0..p2, ints i0..i2, constants 0..3.
  std::vector<ExprRef> bools;
  std::vector<ExprRef> ints;
  for (int i = 0; i < 3; ++i) {
    bools.push_back(pool.Var("p" + std::to_string(i), Sort::kBool));
    ints.push_back(pool.Var("i" + std::to_string(i), Sort::kInt));
  }
  auto atom = [&]() -> ExprRef {
    switch (rnd(4)) {
      case 0:
        return bools[static_cast<size_t>(rnd(3))];
      case 1:
        return pool.Lt(ints[static_cast<size_t>(rnd(3))], ints[static_cast<size_t>(rnd(3))]);
      case 2:
        return pool.Eq(ints[static_cast<size_t>(rnd(3))], pool.IntConst(rnd(4)));
      default:
        return pool.Le(ints[static_cast<size_t>(rnd(3))],
                       pool.Add(ints[static_cast<size_t>(rnd(3))], pool.IntConst(rnd(3))));
    }
  };
  auto literal = [&]() {
    ExprRef a = atom();
    return rnd(2) == 0 ? a : pool.Not(a);
  };
  Solver cdcl;  // Persistent across the whole sweep: warm-state soundness.
  Solver::Options no_learn;
  no_learn.clause_learning = false;
  for (int round = 0; round < 24; ++round) {
    // Random CNF-ish conjunction: 2-6 conjuncts, each a literal or a small
    // disjunction of literals.
    std::vector<ExprRef> conjuncts;
    int n = 2 + rnd(5);
    for (int i = 0; i < n; ++i) {
      ExprRef c = literal();
      if (rnd(3) == 0) {
        c = pool.Or(c, literal());
      }
      if (rnd(6) == 0) {
        c = pool.Or(c, literal());
      }
      conjuncts.push_back(c);
    }
    Solver oracle(Solver::Limits{}, no_learn);  // Fresh + learning-free.
    Verdict expect = oracle.Solve(conjuncts).verdict;
    ASSERT_NE(expect, Verdict::kUnknown);
    SolveResult got = cdcl.Solve(conjuncts);
    ASSERT_EQ(got.verdict, expect)
        << "divergence at seed " << GetParam() << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFormulas, SolverFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Parameterized sweep: push-pop style random clauses keep the solver total
// (either SAT with a model or UNSAT) across formula shapes.
class SolverSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverSweepTest, ChainOfBoundsIsDecided) {
  ExprPool pool;
  int n = GetParam();
  // x0 < x1 < ... < xn ∧ xn < x0 + n  (UNSAT: needs at least n gaps).
  std::vector<ExprRef> vars;
  vars.reserve(static_cast<size_t>(n) + 1);
  for (int i = 0; i <= n; ++i) {
    vars.push_back(pool.Var("x" + std::to_string(i), Sort::kInt));
  }
  std::vector<ExprRef> cs;
  for (int i = 0; i < n; ++i) {
    cs.push_back(pool.Lt(vars[static_cast<size_t>(i)], vars[static_cast<size_t>(i) + 1]));
  }
  cs.push_back(pool.Lt(vars.back(), pool.Add(vars[0], pool.IntConst(n))));
  Solver solver;
  EXPECT_EQ(solver.Solve(cs).verdict, Verdict::kUnsat);
  // Relaxing the bound by one makes it SAT.
  cs.back() = pool.Lt(vars.back(), pool.Add(vars[0], pool.IntConst(n + 1)));
  Solver solver2;
  EXPECT_EQ(solver2.Solve(cs).verdict, Verdict::kSat);
}

INSTANTIATE_TEST_SUITE_P(Chains, SolverSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16, 32, 48, 64));

// ---------------------------------------------------------------------------
// Chains whose verdicts are known by construction, at sizes on both sides of
// where conflict cores used to be truncated. Each formula goes through one
// warm solver (shared by all four formulas of a size, so lemmas learned on
// one carry into the next) and a fresh decide-only solver; every SAT model
// must satisfy each conjunct when evaluated concretely.
// ---------------------------------------------------------------------------

// Evaluates integer/term `e` under `model`: variables by witness, constants
// and + by arithmetic, applications by the value of their class.
bool EvalTerm(const Model& model, ExprRef e, int64_t* out) {
  switch (e->kind) {
    case Kind::kConstInt:
      *out = e->value;
      return true;
    case Kind::kVar:
      return model.LookupWitness(e->name, out);
    case Kind::kAdd: {
      int64_t a = 0;
      int64_t b = 0;
      if (!EvalTerm(model, e->args[0], &a) || !EvalTerm(model, e->args[1], &b)) {
        return false;
      }
      *out = a + b;
      return true;
    }
    default:
      return model.Lookup(e, out);
  }
}

// Checks that `literal` (an atom or its negation) holds under `model`.
void ExpectHolds(const Model& model, ExprRef literal) {
  bool want = true;
  if (literal->kind == Kind::kNot) {
    want = false;
    literal = literal->args[0];
  }
  int64_t a = 0;
  int64_t b = 0;
  ASSERT_TRUE(EvalTerm(model, literal->args[0], &a)) << ExprPool::ToString(literal);
  ASSERT_TRUE(EvalTerm(model, literal->args[1], &b)) << ExprPool::ToString(literal);
  bool holds = false;
  switch (literal->kind) {
    case Kind::kEq:
      holds = a == b;
      break;
    case Kind::kLt:
      holds = a < b;
      break;
    case Kind::kLe:
      holds = a <= b;
      break;
    default:
      FAIL() << "unexpected atom " << ExprPool::ToString(literal);
  }
  EXPECT_EQ(holds, want) << ExprPool::ToString(literal) << " with " << a << ", " << b;
}

// f^n(t).
ExprRef Iterate(ExprPool* pool, ExprRef t, int n) {
  for (int i = 0; i < n; ++i) {
    t = pool->App("f", {t}, Sort::kTerm);
  }
  return t;
}

class KnownVerdictChainTest : public ::testing::TestWithParam<int> {
 protected:
  // `apps` are unary applications of one symbol whose values must form a
  // function in every SAT model: equal arguments, equal values.
  void Expect(const std::vector<ExprRef>& conjuncts, Verdict want,
              const std::vector<ExprRef>& apps = {}) {
    Solver::Options no_learn;
    no_learn.clause_learning = false;
    Solver decide_only(Solver::Limits{}, no_learn);
    for (Solver* solver : {&warm_, &decide_only}) {
      SolveResult r = solver->Solve(conjuncts);
      ASSERT_EQ(r.verdict, want) << (solver == &warm_ ? "warm CDCL" : "decide-only");
      if (r.verdict == Verdict::kSat) {
        for (ExprRef c : conjuncts) {
          ExpectHolds(r.model, c);
        }
        // The model's f must be a function: equal arguments, equal values.
        for (int i = 1; i <= GetParam(); ++i) {
          int64_t fa = 0;
          int64_t fb = 0;
          int64_t a = 0;
          int64_t b = 0;
          ExprRef ta = Iterate(&pool_, a_, i);
          ExprRef tb = Iterate(&pool_, b_, i);
          if (EvalTerm(r.model, ta->args[0], &a) && EvalTerm(r.model, tb->args[0], &b) &&
              a == b && EvalTerm(r.model, ta, &fa) && EvalTerm(r.model, tb, &fb)) {
            EXPECT_EQ(fa, fb) << "f is not functional at depth " << i;
          }
        }
        for (size_t i = 0; i < apps.size(); ++i) {
          for (size_t j = i + 1; j < apps.size(); ++j) {
            int64_t a = 0;
            int64_t b = 0;
            int64_t fa = 0;
            int64_t fb = 0;
            ASSERT_TRUE(EvalTerm(r.model, apps[i]->args[0], &a));
            ASSERT_TRUE(EvalTerm(r.model, apps[j]->args[0], &b));
            ASSERT_TRUE(EvalTerm(r.model, apps[i], &fa));
            ASSERT_TRUE(EvalTerm(r.model, apps[j], &fb));
            EXPECT_TRUE(a != b || fa == fb)
                << ExprPool::ToString(apps[i]) << " = " << fa << " and "
                << ExprPool::ToString(apps[j]) << " = " << fb << " at argument " << a;
          }
        }
      }
    }
  }
  ExprPool pool_;
  Solver warm_;
  ExprRef a_ = pool_.Var("a", Sort::kTerm);
  ExprRef b_ = pool_.Var("b", Sort::kTerm);
};

TEST_P(KnownVerdictChainTest, DifferenceAndCongruenceChains) {
  const int n = GetParam();
  std::vector<ExprRef> x;
  for (int i = 0; i <= n; ++i) {
    x.push_back(pool_.Var("x" + std::to_string(i), Sort::kInt));
  }
  std::vector<ExprRef> chain;
  for (int i = 0; i < n; ++i) {
    chain.push_back(pool_.Lt(x[static_cast<size_t>(i)], x[static_cast<size_t>(i) + 1]));
  }
  ExprRef x0_plus_n = pool_.Add(x[0], pool_.IntConst(n));
  // x0 < ... < xn ∧ xn < x0 + n: UNSAT (the chain needs n gaps).
  std::vector<ExprRef> unsat = chain;
  unsat.push_back(pool_.Lt(x.back(), x0_plus_n));
  Expect(unsat, Verdict::kUnsat);
  // x0 < ... < xn ∧ xn <= x0 + n: SAT, tight.
  std::vector<ExprRef> sat = chain;
  sat.push_back(pool_.Le(x.back(), x0_plus_n));
  Expect(sat, Verdict::kSat);

  // f^n(a) != f^n(b) ∧ a = b: UNSAT by n congruences.
  ExprRef differ = pool_.Ne(Iterate(&pool_, a_, n), Iterate(&pool_, b_, n));
  Expect({differ, pool_.Eq(a_, b_)}, Verdict::kUnsat);
  // Without the closing equality: SAT.
  Expect({differ}, Verdict::kSat);
}

TEST_P(KnownVerdictChainTest, DistinctApplicationsGetDistinctIntegerArguments) {
  // g(x) != g(y) over integers: congruence keeps x and y in distinct
  // classes, and a model that still values both 0 is not a function — its
  // witness does not replay. Then all n+1 applications pairwise distinct
  // with arguments in [0, n]: exactly enough room for distinct arguments.
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  ExprRef gx = pool_.App("g", {x}, Sort::kInt);
  ExprRef gy = pool_.App("g", {y}, Sort::kInt);
  Expect({pool_.Ne(gx, gy)}, Verdict::kSat, {gx, gy});
  const int n = GetParam();
  std::vector<ExprRef> apps;
  std::vector<ExprRef> conjuncts;
  for (int i = 0; i <= n; ++i) {
    ExprRef v = pool_.Var("u" + std::to_string(i), Sort::kInt);
    apps.push_back(pool_.App("g", {v}, Sort::kInt));
    conjuncts.push_back(pool_.Le(pool_.IntConst(0), v));
    conjuncts.push_back(pool_.Le(v, pool_.IntConst(n)));
  }
  for (size_t i = 0; i < apps.size(); ++i) {
    for (size_t j = i + 1; j < apps.size(); ++j) {
      conjuncts.push_back(pool_.Ne(apps[i], apps[j]));
    }
  }
  Expect(conjuncts, Verdict::kSat, apps);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KnownVerdictChainTest,
                         ::testing::Values(1, 2, 8, 16, 32, 48, 64));

// ---------------------------------------------------------------------------
// Warm prefix. A persistent solver keeps the trail levels of the assumptions
// a query repeats from the one before (docs/SOLVER.md §"Warm prefix").
// Streams shaped like a depth-first path exploration (extend by a conjunct,
// flip the last one, truncate to a random depth) go through warm solvers
// and, query by query, through a fresh CDCL solver and a fresh decide-only
// solver. Mixed in: temporary-clause scopes that stay open across queries
// (their Pop disables a selector that sits on the kept trail), a warm solver
// with a one-decision budget (kUnknown mid-stream), and atoms that are
// theory-false on their own (unit lemmas, learned at level 0).
// ---------------------------------------------------------------------------

// Truth of boolean `e` under the atom assignment of `model`: 1, 0, or -1
// when it depends on an atom the model leaves unassigned.
int EvalSkeleton(const Model& model, ExprRef e) {
  switch (e->kind) {
    case Kind::kConstBool:
      return e->value != 0 ? 1 : 0;
    case Kind::kNot: {
      const int v = EvalSkeleton(model, e->args[0]);
      return v < 0 ? -1 : 1 - v;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      const int absorbing = e->kind == Kind::kAnd ? 0 : 1;
      const int a = EvalSkeleton(model, e->args[0]);
      const int b = EvalSkeleton(model, e->args[1]);
      if (a == absorbing || b == absorbing) {
        return absorbing;
      }
      return a < 0 || b < 0 ? -1 : 1 - absorbing;
    }
    default:
      for (const auto& [atom, truth] : model.atoms) {
        if (atom == e) {
          return truth ? 1 : 0;
        }
      }
      return -1;
  }
}

// Every atom the model assigns must agree with the concrete values it gives
// (atoms over a term without a value of its own are skipped).
void ExpectAtomsAgreeWithValues(const Model& model) {
  for (const auto& [atom, truth] : model.atoms) {
    if (atom->kind == Kind::kVar) {
      int64_t v = 0;
      if (model.LookupWitness(atom->name, &v)) {
        EXPECT_EQ(v != 0, truth) << atom->name;
      }
      continue;
    }
    int64_t a = 0;
    int64_t b = 0;
    if (atom->kind == Kind::kApp || !EvalTerm(model, atom->args[0], &a) ||
        !EvalTerm(model, atom->args[1], &b)) {
      continue;
    }
    const bool holds = atom->kind == Kind::kEq ? a == b : atom->kind == Kind::kLt ? a < b : a <= b;
    EXPECT_EQ(holds, truth) << ExprPool::ToString(atom) << " with " << a << ", " << b;
  }
}

class WarmPrefixStreamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WarmPrefixStreamTest, MatchesFreshAndDecideOnlyEngines) {
  uint64_t state = GetParam() * 0x9E3779B97F4A7C15ULL + 3;
  auto rnd = [&state](int n) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % static_cast<uint64_t>(n));
  };
  ExprPool pool;
  std::vector<ExprRef> bools;
  std::vector<ExprRef> ints;
  for (int i = 0; i < 3; ++i) {
    bools.push_back(pool.Var("p" + std::to_string(i), Sort::kBool));
    ints.push_back(pool.Var("i" + std::to_string(i), Sort::kInt));
  }
  auto any_int = [&]() { return ints[static_cast<size_t>(rnd(3))]; };
  auto atom = [&]() -> ExprRef {
    switch (rnd(7)) {
      case 0:
        return bools[static_cast<size_t>(rnd(3))];
      case 1:
        return pool.Lt(any_int(), any_int());
      case 2:
        return pool.Eq(any_int(), pool.IntConst(rnd(4)));
      case 3:
        return pool.Le(any_int(), pool.Add(any_int(), pool.IntConst(rnd(3))));
      case 4:
        return pool.Eq(pool.App("g", {any_int()}, Sort::kInt),
                       pool.App("g", {any_int()}, Sort::kInt));
      case 5:
        return pool.Eq(pool.App("g", {any_int()}, Sort::kInt), any_int());
      default: {
        // Theory-false alone: asserting it true learns a unit lemma.
        ExprRef v = any_int();
        return pool.Lt(pool.Add(v, pool.IntConst(1 + rnd(2))), v);
      }
    }
  };
  auto literal = [&]() {
    ExprRef a = atom();
    return rnd(2) == 0 ? a : pool.Not(a);
  };
  auto conjunct = [&]() {
    ExprRef c = literal();
    if (rnd(3) == 0) {
      c = pool.Or(c, literal());
    }
    return c;
  };

  Solver::Options no_learn;
  no_learn.clause_learning = false;
  Solver warm;
  Solver budgeted(Solver::Limits{/*max_decisions=*/1, /*max_seconds=*/0.0});
  std::vector<ExprRef> path;
  // The clauses of the open temporary scope; empty while none is open.
  std::vector<std::vector<ExprRef>> temp_clauses;
  int64_t assumptions_asked = 0;
  int unknowns = 0;
  // One query through `solver`'s scope protocol; the temp scope, if any, is
  // opened here only for one-shot (fresh) solvers.
  auto run = [&](Solver* solver, bool fresh, std::vector<ExprRef>* core) {
    if (fresh && !temp_clauses.empty()) {
      solver->Push();
      for (const auto& clause : temp_clauses) {
        solver->AddTempClause(clause);
      }
    }
    solver->Push();
    for (ExprRef c : path) {
      solver->Assume(c);
    }
    SolveResult r = solver->SolveAssuming();
    *core = solver->final_conflict();
    solver->Pop();
    if (fresh && !temp_clauses.empty()) {
      solver->Pop();
    }
    return r;
  };
  auto check = [&](const SolveResult& r, const std::vector<ExprRef>& core, const char* who,
                   int step) {
    SCOPED_TRACE(::testing::Message() << who << " at step " << step);
    if (r.verdict == Verdict::kUnsat) {
      for (ExprRef c : core) {
        EXPECT_NE(std::find(path.begin(), path.end(), c), path.end())
            << who << ": core names a non-assumption at step " << step;
      }
      Solver::Options oracle_options;
      oracle_options.clause_learning = false;
      Solver alone(Solver::Limits{}, oracle_options);
      std::vector<ExprRef> saved = path;
      path = core;
      std::vector<ExprRef> ignored;
      EXPECT_EQ(run(&alone, /*fresh=*/true, &ignored).verdict, Verdict::kUnsat)
          << who << ": core is satisfiable at step " << step;
      path = std::move(saved);
    } else if (r.verdict == Verdict::kSat) {
      for (ExprRef c : path) {
        EXPECT_EQ(EvalSkeleton(r.model, c), 1)
            << who << ": model falsifies " << ExprPool::ToString(c) << " at step " << step;
      }
      for (const auto& clause : temp_clauses) {
        int any = 0;
        for (ExprRef l : clause) {
          any = std::max(any, EvalSkeleton(r.model, l));
        }
        EXPECT_EQ(any, 1) << who << ": model falsifies a temporary clause at step " << step;
      }
      ExpectAtomsAgreeWithValues(r.model);
    }
  };

  for (int step = 0; step < 120; ++step) {
    const int op = rnd(10);
    if (path.empty() || op < 5) {
      path.push_back(conjunct());
    } else if (op < 7) {
      path.back() = pool.Not(path.back());
    } else if (op < 9) {
      path.resize(static_cast<size_t>(rnd(static_cast<int>(path.size()) + 1)));
    } else if (temp_clauses.empty() || rnd(2) == 0) {
      // Open a scope, or add to the open one: a clause added after a query
      // meets a trail on which it may already be unit or conflicting.
      std::vector<ExprRef> clause = {literal()};
      if (rnd(3) != 0) {
        clause.push_back(literal());
      }
      for (Solver* s : {&warm, &budgeted}) {
        if (temp_clauses.empty()) {
          s->Push();
        }
        s->AddTempClause(clause);
      }
      temp_clauses.push_back(std::move(clause));
    } else {
      temp_clauses.clear();
      for (Solver* s : {&warm, &budgeted}) {
        s->Pop();
      }
    }
    std::vector<ExprRef> core;
    Solver oracle(Solver::Limits{}, no_learn);
    const Verdict expect = run(&oracle, /*fresh=*/true, &core).verdict;
    ASSERT_NE(expect, Verdict::kUnknown);
    Solver fresh;
    SolveResult r = run(&fresh, /*fresh=*/true, &core);
    ASSERT_EQ(r.verdict, expect) << "fresh CDCL diverges at seed " << GetParam() << " step " << step;
    check(r, core, "fresh", step);
    r = run(&warm, /*fresh=*/false, &core);
    ASSERT_EQ(r.verdict, expect) << "warm CDCL diverges at seed " << GetParam() << " step " << step;
    check(r, core, "warm", step);
    assumptions_asked += static_cast<int64_t>(path.size() + (temp_clauses.empty() ? 0 : 1));
    r = run(&budgeted, /*fresh=*/false, &core);
    if (r.verdict == Verdict::kUnknown) {
      ++unknowns;
    } else {
      ASSERT_EQ(r.verdict, expect) << "budgeted CDCL diverges at seed " << GetParam()
                                   << " step " << step;
      check(r, core, "budgeted", step);
    }
  }
  // The warm solver re-placed fewer assumption levels than it was asked for.
  EXPECT_LT(warm.stats().assumptions_placed, assumptions_asked);
  EXPECT_GT(warm.stats().theory_conflicts, 0);
  EXPECT_GT(unknowns, 0) << "the one-decision budget never ran out";
}

INSTANTIATE_TEST_SUITE_P(DepthFirstStreams, WarmPrefixStreamTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Theory cores. Random literal sets over a small mixed vocabulary are
// asserted into one long-lived Theory (undone between rounds) and into a
// fresh one; both must agree, and whenever they report a conflict the core
// must be a subset of the asserted literals that conflicts again on its own
// in a fresh state.
// ---------------------------------------------------------------------------

// Asserts `literals` (atom, truth) into `theory` in order and runs the final
// check. Returns true when consistent; `ids` receives the atom ids.
bool AssertAll(Theory* theory, const std::vector<std::pair<ExprRef, bool>>& literals,
               std::vector<int>* ids) {
  ids->clear();
  for (const auto& [atom, truth] : literals) {
    ids->push_back(theory->AddAtom(atom));
  }
  for (size_t i = 0; i < literals.size(); ++i) {
    if ((*ids)[i] >= 0 && !theory->Assert((*ids)[i], literals[i].second)) {
      return false;
    }
  }
  return theory->Check();
}

class TheoryCoreTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoryCoreTest, CoresAreAssertedAndConflictAlone) {
  uint64_t state = GetParam() * 0x9E3779B97F4A7C15ULL + 7;
  auto rnd = [&state](int n) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % static_cast<uint64_t>(n));
  };
  ExprPool pool;
  std::vector<ExprRef> ints;
  std::vector<ExprRef> terms;
  for (int i = 0; i < 4; ++i) {
    ints.push_back(pool.Var("i" + std::to_string(i), Sort::kInt));
  }
  for (int i = 0; i < 3; ++i) {
    terms.push_back(pool.Var("t" + std::to_string(i), Sort::kTerm));
  }
  auto int_term = [&]() -> ExprRef {
    ExprRef v = ints[static_cast<size_t>(rnd(4))];
    switch (rnd(10)) {
      case 0:
        return pool.IntConst(rnd(5) - 1);
      case 1:
        return pool.Add(v, pool.IntConst(rnd(3) + 1));
      case 2:
        return pool.Sub(v, ints[static_cast<size_t>(rnd(4))]);
      case 3:
        return pool.App("len", {terms[static_cast<size_t>(rnd(3))]}, Sort::kInt);
      case 4:
        return pool.Mul(v, pool.IntConst(2));
      case 5:
        return pool.Div(v, ints[static_cast<size_t>(rnd(4))]);
      case 6:
        return pool.Mod(v, ints[static_cast<size_t>(rnd(4))]);
      case 7:
        return pool.Neg(v);
      default:
        return v;
    }
  };
  auto term_term = [&]() -> ExprRef {
    ExprRef t = terms[static_cast<size_t>(rnd(3))];
    for (int d = rnd(3); d > 0; --d) {
      t = pool.App("f", {t}, Sort::kTerm);
    }
    return t;
  };
  auto atom = [&]() -> ExprRef {
    switch (rnd(6)) {
      case 0:
        return pool.Lt(int_term(), int_term());
      case 1:
        return pool.Le(int_term(), int_term());
      case 2:
        return pool.Eq(int_term(), int_term());
      case 3:
        return pool.Eq(term_term(), term_term());
      case 4:
        return pool.App("p", {term_term()}, Sort::kBool);
      default:
        return pool.Eq(ints[static_cast<size_t>(rnd(4))], int_term());
    }
  };
  Theory warm;
  int conflicts = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::pair<ExprRef, bool>> literals;
    const int n = 1 + rnd(8);
    for (int i = 0; i < n; ++i) {
      ExprRef a = atom();
      if (a->kind == Kind::kConstBool) {
        continue;  // Folded by the pool.
      }
      bool duplicate = false;
      for (const auto& [b, truth] : literals) {
        duplicate |= (a == b);
      }
      if (!duplicate) {
        literals.emplace_back(a, rnd(2) == 0);
      }
    }
    warm.Undo(0);
    std::vector<int> ids;
    const bool warm_ok = AssertAll(&warm, literals, &ids);
    Theory fresh;
    std::vector<int> fresh_ids;
    ASSERT_EQ(AssertAll(&fresh, literals, &fresh_ids), warm_ok)
        << "warm and fresh theories disagree at seed " << GetParam() << " round " << round;
    // Popping a suffix and asserting it again must land on the same verdict.
    if (warm_ok && literals.size() > 1) {
      const size_t keep = static_cast<size_t>(rnd(static_cast<int>(literals.size())));
      warm.Undo(0);
      for (size_t i = 0; i < keep; ++i) {
        if (ids[i] >= 0) {
          ASSERT_TRUE(warm.Assert(ids[i], literals[i].second));
        }
      }
      const size_t mark = warm.Mark();
      for (int pass = 0; pass < 2; ++pass) {
        warm.Undo(mark);
        for (size_t i = keep; i < literals.size(); ++i) {
          if (ids[i] >= 0) {
            ASSERT_TRUE(warm.Assert(ids[i], literals[i].second));
          }
        }
        ASSERT_TRUE(warm.Check()) << "verdict changed after undo at round " << round;
      }
    }
    if (warm_ok) {
      continue;
    }
    ++conflicts;
    std::vector<std::pair<ExprRef, bool>> core;
    for (int id : warm.conflict()) {
      auto it = std::find(ids.begin(), ids.end(), id);
      ASSERT_NE(it, ids.end()) << "core names an atom that was never asserted";
      const auto& lit = literals[static_cast<size_t>(it - ids.begin())];
      ASSERT_EQ(warm.asserted_truth(id), lit.second);
      core.push_back(lit);
    }
    Theory alone;
    std::vector<int> core_ids;
    EXPECT_FALSE(AssertAll(&alone, core, &core_ids))
        << "core does not conflict on its own at seed " << GetParam() << " round " << round;
  }
  EXPECT_GT(conflicts, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomLiteralSets, TheoryCoreTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace icarus::sym
