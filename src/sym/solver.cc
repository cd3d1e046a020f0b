#include "src/sym/solver.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "src/obs/metrics.h"
#include "src/support/check.h"
#include "src/support/failpoint.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/sym/solver_cache.h"
#include "src/sym/theory.h"

namespace icarus::sym {

namespace {

enum class Tri : uint8_t { kFalse, kTrue, kUnknown };

bool IsAtomKind(ExprRef e) {
  if (e->sort != Sort::kBool) {
    return false;
  }
  switch (e->kind) {
    case Kind::kEq:
    case Kind::kLt:
    case Kind::kLe:
    case Kind::kVar:
    case Kind::kApp:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Atom collection and three-valued evaluation of the boolean skeleton.
// ---------------------------------------------------------------------------

void CollectAtoms(ExprRef e, std::vector<ExprRef>* atoms, std::unordered_set<ExprRef>* seen) {
  if (!seen->insert(e).second) {
    return;
  }
  if (IsAtomKind(e)) {
    atoms->push_back(e);
    return;
  }
  switch (e->kind) {
    case Kind::kNot:
    case Kind::kAnd:
    case Kind::kOr:
      for (ExprRef a : e->args) {
        CollectAtoms(a, atoms, seen);
      }
      break;
    case Kind::kConstBool:
      break;
    default:
      // Non-boolean structure below an atom is handled by the theory layer.
      break;
  }
}

class SkeletonEval {
 public:
  explicit SkeletonEval(const std::unordered_map<ExprRef, Tri>* assignment)
      : assignment_(assignment) {}

  Tri Eval(ExprRef e) {
    if (e->kind == Kind::kConstBool) {
      return e->value != 0 ? Tri::kTrue : Tri::kFalse;
    }
    if (IsAtomKind(e)) {
      auto it = assignment_->find(e);
      return it == assignment_->end() ? Tri::kUnknown : it->second;
    }
    switch (e->kind) {
      case Kind::kNot: {
        Tri v = Eval(e->args[0]);
        if (v == Tri::kUnknown) {
          return Tri::kUnknown;
        }
        return v == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
      }
      case Kind::kAnd: {
        Tri a = Eval(e->args[0]);
        if (a == Tri::kFalse) {
          return Tri::kFalse;
        }
        Tri b = Eval(e->args[1]);
        if (b == Tri::kFalse) {
          return Tri::kFalse;
        }
        if (a == Tri::kTrue && b == Tri::kTrue) {
          return Tri::kTrue;
        }
        return Tri::kUnknown;
      }
      case Kind::kOr: {
        Tri a = Eval(e->args[0]);
        if (a == Tri::kTrue) {
          return Tri::kTrue;
        }
        Tri b = Eval(e->args[1]);
        if (b == Tri::kTrue) {
          return Tri::kTrue;
        }
        if (a == Tri::kFalse && b == Tri::kFalse) {
          return Tri::kFalse;
        }
        return Tri::kUnknown;
      }
      default:
        ICARUS_BUG("non-boolean node in skeleton");
    }
  }

  // First undecided atom in `e`, or nullptr.
  ExprRef PickUndecided(ExprRef e) {
    if (e->kind == Kind::kConstBool) {
      return nullptr;
    }
    if (IsAtomKind(e)) {
      return assignment_->count(e) != 0 ? nullptr : e;
    }
    for (ExprRef a : e->args) {
      if (ExprRef pick = PickUndecided(a)) {
        return pick;
      }
    }
    return nullptr;
  }

 private:
  const std::unordered_map<ExprRef, Tri>* assignment_;
};

}  // namespace

std::string Witness::ToString() const {
  switch (sort) {
    case Sort::kBool:
      return StrCat(name, " = ", value != 0 ? "true" : "false");
    case Sort::kTerm:
      // Uninterpreted individuals: the value is the abstract id of the
      // congruence class the model placed the variable in.
      return StrCat(name, " = @", value);
    case Sort::kInt:
      break;
  }
  return StrCat(name, " = ", value);
}

std::string Model::ToString() const {
  if (!rendered.empty()) {
    return rendered;  // Cache-restored model: already rendered, no live terms.
  }
  std::vector<std::string> parts;
  for (const auto& [atom, truth] : atoms) {
    parts.push_back(StrCat(truth ? "" : "!", ExprPool::ToString(atom)));
  }
  for (const auto& [term, value] : terms) {
    if (term->kind == Kind::kConstInt) {
      continue;
    }
    parts.push_back(StrCat(ExprPool::ToString(term), " = ", value));
  }
  return Join(parts, "\n");
}

bool Model::Lookup(ExprRef term, int64_t* out) const {
  for (const auto& [t, v] : terms) {
    if (t == term) {
      *out = v;
      return true;
    }
  }
  return false;
}

bool Model::LookupWitness(std::string_view name, int64_t* out) const {
  for (const Witness& w : witnesses) {
    if (w.name == name) {
      *out = w.value;
      return true;
    }
  }
  return false;
}


// ---------------------------------------------------------------------------
// The CDCL engine.
//
// A classic conflict-driven clause-learning SAT core specialized for the
// meta-executor's workload: queries are conjunctions of hash-consed boolean
// terms that share long prefixes across sibling paths, so the engine is built
// to be *persistent* — the Tseitin encoding and every learned clause survive
// across queries, and each query is solved under MiniSat-style assumptions
// rather than by asserting its conjuncts. The trail survives too: the levels
// of the assumptions a query shares with the one before stay in place (the
// warm prefix, docs/SOLVER.md). Theory reasoning is layered on top
// (lazy SMT): at each full assignment of the query-relevant variables the
// engine's Theory (theory.h) is brought up to date with the trail and
// checked, and a theory conflict is turned into a theory lemma — the
// negation of the conflict core the theory explains, a clause valid in every
// model — that is learned permanently. The theory state persists like the
// clause database: it is asserted incrementally as the trail grows and
// popped with it on backjumps.
//
// Relevancy bounding: decisions are restricted to variables in the Tseitin
// closure of the current query (assumptions + active temporary clauses), so
// a warm solver carrying thousands of variables from earlier queries does
// not enumerate assignments for atoms the current query never mentions.
// This is sound in both directions: UNSAT answers are derived by resolution
// from clauses that are consequences of the query + valid definitions, and a
// SAT answer's partial assignment extends to a full model because every
// clause in the database is a consequence of Tseitin definitions (valid by
// construction over fresh aux variables) and theory lemmas (valid outright).
// ---------------------------------------------------------------------------
class Solver::Cdcl {
 public:
  // A literal is var*2 + sign (sign 1 = negated); clause refs index clauses_.
  using Lit = int32_t;

  explicit Cdcl(SolverStats* stats) : stats_(stats) {
    // Variable 0 is the distinguished "true" variable, pinned by a level-0
    // unit clause; ConstBool terms encode to ±true_var_.
    true_var_ = NewVar(nullptr, /*is_atom=*/false);
    AddClauseLits({MkLit(true_var_, false)});
  }

  // Fresh guard variable for one assumption scope's temporary clauses.
  int NewSelectorVar() { return NewVar(nullptr, /*is_atom=*/false); }

  // Permanently falsifies a selector, deactivating every clause guarded by
  // it — including learned clauses derived from them, which all contain ¬sel.
  void DisableSelector(int v) { AddClauseLits({MkLit(v, true)}); }

  // Stores a scope-local clause as {¬sel ∨ lits}: active only while `sel`
  // is assumed, dead forever once DisableSelector(sel) runs.
  void AddGuardedClause(int selector, const std::vector<ExprRef>& terms) {
    std::vector<Lit> lits;
    lits.reserve(terms.size() + 1);
    lits.push_back(MkLit(selector, true));
    for (ExprRef t : terms) {
      lits.push_back(EncodeTerm(t));
    }
    AddClauseLits(std::move(lits));
  }

  // Solves the conjunction of `assumptions` under the active guarded clauses
  // (whose selectors are assumed true). On kUnsat, `out_core` receives the
  // subset of assumption terms involved in the final conflict.
  SolveResult Solve(const std::vector<ExprRef>& assumptions,
                    const std::vector<int>& selectors,
                    const std::vector<ExprRef>& clause_roots, const Limits& limits,
                    bool want_model, std::vector<ExprRef>* out_core) {
    SolveResult res;
    out_core->clear();
    if (!ok_) {
      res.verdict = Verdict::kUnsat;
      return res;
    }
    // Warm prefix (trail reuse): a query repeats most of the previous one's
    // assumptions, and trail levels 1..k still hold the previous query's
    // first k assumptions with their propagations and the theory state
    // asserted for them. Keep the longest prefix the new query repeats and
    // encode, mark and place only the rest.
    const size_t num_selectors = selectors.size();
    const size_t n = num_selectors + assumptions.size();
    auto term_at = [&](size_t i) {
      return i < num_selectors ? nullptr : assumptions[i - num_selectors];
    };
    size_t keep = 0;
    while (keep < n && keep < assump_lits_.size() && assump_terms_[keep] == term_at(keep) &&
           (term_at(keep) != nullptr || assump_lits_[keep] == MkLit(selectors[keep], false))) {
      ++keep;
    }
    TruncateAssumptions(keep);
    CancelUntil(static_cast<int>(keep));
    // Encoding may add Tseitin clauses above level 0 (AddClauseLits keeps
    // the trail consistent with them). Relevancy: decisions (and hence
    // theory-check size) are confined to the closure of this query's
    // assumptions and active temporary clauses.
    for (size_t i = keep; i < n; ++i) {
      const ExprRef t = term_at(i);
      const Lit lit = t == nullptr ? MkLit(selectors[i], false) : EncodeTerm(t);
      assump_lits_.push_back(lit);
      assump_terms_.push_back(t);
      int& index = vars_[static_cast<size_t>(VarOf(lit))].assump_index;
      if (index < 0) {
        index = static_cast<int>(i);
      }
      if (t != nullptr) {
        MarkRelevant(t);
      }
      relevant_ends_.push_back(relevant_list_.size());
    }
    for (ExprRef t : clause_roots) {
      MarkRelevant(t);
    }
    if (!ok_) {
      res.verdict = Verdict::kUnsat;
      return res;
    }

    // Budgets are per query; decisions count from this query's start.
    const int64_t decisions_at_start = stats_->decisions;
    WallTimer query_timer;
    int64_t ticks = 0;
    int64_t conflicts_since_restart = 0;
    int64_t restart_seq = 0;
    int64_t restart_limit = kRestartBase * Luby(restart_seq);

    Verdict verdict = Verdict::kUnknown;
    for (;;) {
      int confl = Propagate();
      if (confl == kCRefUndef) {
        if (stats_->decisions - decisions_at_start > limits.max_decisions) {
          break;  // kUnknown: decision budget exhausted.
        }
        if (limits.max_seconds > 0.0 && (++ticks % 64 == 0) &&
            query_timer.ElapsedSeconds() > limits.max_seconds) {
          break;  // kUnknown: wall-clock budget exhausted.
        }
        if (conflicts_since_restart >= restart_limit) {
          ++stats_->restarts;
          ++restart_seq;
          restart_limit = kRestartBase * Luby(restart_seq);
          conflicts_since_restart = 0;
          CancelUntil(0);
          continue;
        }
        if (DecisionLevel() < static_cast<int>(assump_lits_.size())) {
          // Place the next assumption on its own decision level. Assumptions
          // are decisions, never clauses: nothing learned can depend on them.
          int idx = DecisionLevel();
          ++stats_->assumptions_placed;
          Lit p = assump_lits_[static_cast<size_t>(idx)];
          if (LitValue(p) == LB::kTrue) {
            NewDecisionLevel();  // Dummy level keeps index == level in sync.
          } else if (LitValue(p) == LB::kFalse) {
            AnalyzeFinal(p, idx, out_core);
            verdict = Verdict::kUnsat;
            break;
          } else {
            NewDecisionLevel();
            UncheckedEnqueue(p, kCRefUndef);
          }
          continue;
        }
        int v = PickBranchVar();
        if (v >= 0) {
          ICARUS_FAILPOINT(failpoint::kSolverDecision);
          ++stats_->decisions;
          NewDecisionLevel();
          UncheckedEnqueue(MkLit(v, !vars_[static_cast<size_t>(v)].phase), kCRefUndef);
          continue;
        }
        // Full assignment over the relevant closure: consult the theory.
        TheoryOutcome outcome = TheoryCheckFull(want_model, &res.model, &confl);
        if (outcome == TheoryOutcome::kConsistent) {
          verdict = Verdict::kSat;
          break;
        }
        if (outcome == TheoryOutcome::kGlobalUnsat) {
          verdict = Verdict::kUnsat;
          break;
        }
        if (outcome == TheoryOutcome::kUnitLemma) {
          ++stats_->conflicts;
          ++conflicts_since_restart;
          continue;
        }
        // TheoryOutcome::kLemmaConflict: fall through with confl set.
      }
      ++stats_->conflicts;
      ++conflicts_since_restart;
      if (DecisionLevel() == 0) {
        // Conflict with no decisions or assumptions on the trail: the clause
        // database itself is inconsistent — everything is unsat from now on.
        ok_ = false;
        out_core->clear();
        verdict = Verdict::kUnsat;
        break;
      }
      std::vector<Lit> learnt;
      int bt = 0;
      Analyze(confl, &learnt, &bt);
      CancelUntil(bt);
      if (learnt.size() == 1) {
        UncheckedEnqueue(learnt[0], kCRefUndef);  // Permanent level-0 fact.
      } else {
        int cr = AttachClause(std::move(learnt));
        UncheckedEnqueue(clauses_[static_cast<size_t>(cr)][0], cr);
      }
      ++stats_->learned_clauses;
      var_inc_ /= kActivityDecay;
    }
    // The trail is left in place: the next query keeps what it repeats.
    if (verdict == Verdict::kUnknown) {
      ++stats_->budget_exhausted;
    }
    res.verdict = verdict;
    return res;
  }

 private:
  enum class LB : uint8_t { kTrue, kFalse, kUndef };
  enum class TheoryOutcome { kConsistent, kLemmaConflict, kUnitLemma, kGlobalUnsat };

  static constexpr int kCRefUndef = -1;
  static constexpr Lit kLitUndef = -1;
  static constexpr int64_t kRestartBase = 64;
  static constexpr double kActivityDecay = 0.95;
  static constexpr double kActivityLimit = 1e100;

  struct VarData {
    ExprRef term = nullptr;  // The atom for is_atom vars; null for aux vars.
    LB value = LB::kUndef;
    bool phase = true;   // Saved polarity; starts true (try-true-first, like
                         // the decide-only engine).
    bool is_atom = false;
    bool relevant = false;  // Listed in relevant_list_.
    int atom = -1;  // Theory atom id; -1 for aux vars and boolean variables.
    int level = 0;
    int reason = kCRefUndef;
    int assump_index = -1;  // First index in assump_lits_ on this variable.
    double activity = 0.0;
  };

  static Lit MkLit(int var, bool neg) { return var * 2 + (neg ? 1 : 0); }
  static Lit Negate(Lit l) { return l ^ 1; }
  static int VarOf(Lit l) { return l >> 1; }
  static bool SignOf(Lit l) { return (l & 1) != 0; }

  // The x-th element of the Luby restart sequence 1,1,2,1,1,2,4,...
  static int64_t Luby(int64_t x) {
    int64_t size = 1;
    int64_t seq = 0;
    while (size < x + 1) {
      ++seq;
      size = 2 * size + 1;
    }
    while (size - 1 != x) {
      size = (size - 1) / 2;
      --seq;
      x = x % size;
    }
    return seq < 62 ? (int64_t{1} << seq) : (int64_t{1} << 62);
  }

  LB LitValue(Lit l) const {
    LB v = vars_[static_cast<size_t>(VarOf(l))].value;
    if (v == LB::kUndef) {
      return LB::kUndef;
    }
    return ((v == LB::kTrue) != SignOf(l)) ? LB::kTrue : LB::kFalse;
  }

  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  void NewDecisionLevel() { trail_lim_.push_back(static_cast<int>(trail_.size())); }

  int NewVar(ExprRef term, bool is_atom) {
    int v = static_cast<int>(vars_.size());
    VarData vd;
    vd.term = term;
    vd.is_atom = is_atom;
    vars_.push_back(vd);
    watches_.emplace_back();
    watches_.emplace_back();
    seen_.push_back(0);
    return v;
  }

  // Tseitin encoding of a boolean term, memoized across queries (hash-consing
  // makes the subterm → literal map stable for the life of the pool).
  Lit EncodeTerm(ExprRef e) {
    if (e->kind == Kind::kConstBool) {
      return MkLit(true_var_, e->value == 0);
    }
    auto it = enc_cache_.find(e);
    if (it != enc_cache_.end()) {
      return it->second;
    }
    Lit out = kLitUndef;
    if (IsAtomKind(e)) {
      int v = NewVar(e, /*is_atom=*/true);
      const int atom = theory_.AddAtom(e);
      vars_[static_cast<size_t>(v)].atom = atom;
      if (atom >= 0) {
        if (atom_var_.size() <= static_cast<size_t>(atom)) {
          atom_var_.resize(static_cast<size_t>(atom) + 1, -1);
        }
        atom_var_[static_cast<size_t>(atom)] = v;
      }
      out = MkLit(v, false);
    } else {
      switch (e->kind) {
        case Kind::kNot:
          out = Negate(EncodeTerm(e->args[0]));
          break;
        case Kind::kAnd: {
          Lit a = EncodeTerm(e->args[0]);
          Lit b = EncodeTerm(e->args[1]);
          Lit v = MkLit(NewVar(e, /*is_atom=*/false), false);
          AddClauseLits({Negate(v), a});
          AddClauseLits({Negate(v), b});
          AddClauseLits({v, Negate(a), Negate(b)});
          out = v;
          break;
        }
        case Kind::kOr: {
          Lit a = EncodeTerm(e->args[0]);
          Lit b = EncodeTerm(e->args[1]);
          Lit v = MkLit(NewVar(e, /*is_atom=*/false), false);
          AddClauseLits({v, Negate(a)});
          AddClauseLits({v, Negate(b)});
          AddClauseLits({Negate(v), a, b});
          out = v;
          break;
        }
        default:
          ICARUS_BUG("non-boolean node in skeleton");
      }
    }
    enc_cache_[e] = out;
    return out;
  }

  // Variables in the Tseitin closure of `root`, memoized per root term.
  // Requires `root` to have been encoded already.
  const std::vector<int>& ClosureVars(ExprRef root) {
    auto it = closure_cache_.find(root);
    if (it != closure_cache_.end()) {
      return it->second;
    }
    std::vector<int> vars;
    std::unordered_set<ExprRef> seen;
    CollectClosure(root, &vars, &seen);
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    return closure_cache_.emplace(root, std::move(vars)).first->second;
  }

  void CollectClosure(ExprRef e, std::vector<int>* out,
                      std::unordered_set<ExprRef>* seen) {
    if (!seen->insert(e).second) {
      return;
    }
    if (e->kind == Kind::kConstBool) {
      out->push_back(true_var_);
      return;
    }
    if (IsAtomKind(e)) {
      out->push_back(VarOf(enc_cache_.at(e)));
      return;
    }
    // kNot has no variable of its own; kAnd/kOr own a Tseitin aux variable.
    if (e->kind != Kind::kNot) {
      out->push_back(VarOf(enc_cache_.at(e)));
    }
    for (ExprRef a : e->args) {
      CollectClosure(a, out, seen);
    }
  }

  void MarkRelevant(ExprRef root) {
    for (int v : ClosureVars(root)) {
      VarData& vd = vars_[static_cast<size_t>(v)];
      if (!vd.relevant) {
        vd.relevant = true;
        relevant_list_.push_back(v);
      }
    }
  }

  // Drops the assumptions from index `keep` on, with their relevancy marks
  // (and those of the temporary clauses, which follow the assumptions).
  void TruncateAssumptions(size_t keep) {
    for (size_t i = keep; i < assump_lits_.size(); ++i) {
      int& index = vars_[static_cast<size_t>(VarOf(assump_lits_[i]))].assump_index;
      if (index == static_cast<int>(i)) {
        index = -1;
      }
    }
    assump_lits_.resize(keep);
    assump_terms_.resize(keep);
    const size_t relevant_end = keep == 0 ? 0 : relevant_ends_[keep - 1];
    for (size_t j = relevant_end; j < relevant_list_.size(); ++j) {
      vars_[static_cast<size_t>(relevant_list_[j])].relevant = false;
    }
    relevant_list_.resize(relevant_end);
    relevant_ends_.resize(keep);
  }

  int LevelOf(Lit l) const { return vars_[static_cast<size_t>(VarOf(l))].level; }

  // Adds a permanent clause, simplified against level-0 facts only. The
  // trail may be non-empty (a kept warm prefix): the watches go to the two
  // literals falsified last, and a clause that is unit or conflicting on
  // the trail backtracks to the level where it becomes so and, when one
  // literal is left, propagates it there. A unit clause is a level-0 fact.
  void AddClauseLits(std::vector<Lit> lits) {
    if (!ok_) {
      return;
    }
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    size_t out = 0;
    for (size_t i = 0; i < lits.size(); ++i) {
      if (i + 1 < lits.size() && VarOf(lits[i]) == VarOf(lits[i + 1])) {
        return;  // l and ¬l adjacent after sorting: tautology.
      }
      const LB v = LitValue(lits[i]);
      if (v != LB::kUndef && LevelOf(lits[i]) == 0) {
        if (v == LB::kTrue) {
          return;  // Already satisfied at level 0.
        }
        continue;  // Falsified at level 0: drop the literal.
      }
      lits[out++] = lits[i];
    }
    lits.resize(out);
    if (lits.empty()) {
      ok_ = false;
      return;
    }
    if (lits.size() == 1) {
      CancelUntil(0);
      UncheckedEnqueue(lits[0], kCRefUndef);
      return;
    }
    // A falsified literal ranks by its level; an unfalsified one above all.
    auto rank = [this](Lit l) {
      return LitValue(l) == LB::kFalse ? LevelOf(l) : std::numeric_limits<int>::max();
    };
    for (size_t w = 0; w < 2; ++w) {
      for (size_t i = w + 1; i < lits.size(); ++i) {
        if (rank(lits[i]) > rank(lits[w])) {
          std::swap(lits[i], lits[w]);
        }
      }
    }
    const Lit first = lits[0];
    const Lit second = lits[1];
    const int cr = AttachClause(std::move(lits));
    if (LitValue(second) != LB::kFalse) {
      return;
    }
    const int level = LevelOf(second);
    if (LitValue(first) == LB::kTrue && LevelOf(first) <= level) {
      return;  // Satisfied before it could become unit.
    }
    if (LitValue(first) == LB::kFalse && LevelOf(first) == level) {
      CancelUntil(level - 1);  // Conflicting at one level: unassign both watches.
      return;
    }
    CancelUntil(level);
    UncheckedEnqueue(first, cr);
  }

  int AttachClause(std::vector<Lit> lits) {
    int cr = static_cast<int>(clauses_.size());
    watches_[static_cast<size_t>(lits[0])].push_back(cr);
    watches_[static_cast<size_t>(lits[1])].push_back(cr);
    clauses_.push_back(std::move(lits));
    return cr;
  }

  void UncheckedEnqueue(Lit p, int reason) {
    VarData& vd = vars_[static_cast<size_t>(VarOf(p))];
    vd.value = SignOf(p) ? LB::kFalse : LB::kTrue;
    vd.level = DecisionLevel();
    vd.reason = reason;
    trail_.push_back(p);
  }

  // Two-watched-literal unit propagation. Returns the conflicting clause
  // ref, or kCRefUndef. Invariant for conflict analysis: a reason clause
  // keeps its implied literal at position 0 for as long as it is a reason.
  int Propagate() {
    int confl = kCRefUndef;
    while (qhead_ < trail_.size()) {
      Lit p = trail_[qhead_++];
      Lit false_lit = Negate(p);
      std::vector<int>& ws = watches_[static_cast<size_t>(false_lit)];
      size_t i = 0;
      size_t j = 0;
      while (i < ws.size()) {
        int cr = ws[i++];
        std::vector<Lit>& c = clauses_[static_cast<size_t>(cr)];
        if (c[0] == false_lit) {
          std::swap(c[0], c[1]);
        }
        if (LitValue(c[0]) == LB::kTrue) {
          ws[j++] = cr;
          continue;
        }
        bool moved = false;
        for (size_t k = 2; k < c.size(); ++k) {
          if (LitValue(c[k]) != LB::kFalse) {
            std::swap(c[1], c[k]);
            watches_[static_cast<size_t>(c[1])].push_back(cr);
            moved = true;
            break;
          }
        }
        if (moved) {
          continue;  // Watch moved; drop from this list.
        }
        ws[j++] = cr;
        if (LitValue(c[0]) == LB::kFalse) {
          confl = cr;
          qhead_ = trail_.size();
          while (i < ws.size()) {
            ws[j++] = ws[i++];
          }
          break;
        }
        UncheckedEnqueue(c[0], cr);
        ++stats_->propagations;
      }
      ws.resize(j);
      if (confl != kCRefUndef) {
        break;
      }
    }
    return confl;
  }

  void CancelUntil(int level) {
    if (DecisionLevel() <= level) {
      return;
    }
    for (int i = static_cast<int>(trail_.size()) - 1;
         i >= trail_lim_[static_cast<size_t>(level)]; --i) {
      VarData& vd = vars_[static_cast<size_t>(VarOf(trail_[static_cast<size_t>(i)]))];
      vd.phase = (vd.value == LB::kTrue);  // Phase saving.
      vd.value = LB::kUndef;
      vd.reason = kCRefUndef;
    }
    trail_.resize(static_cast<size_t>(trail_lim_[static_cast<size_t>(level)]));
    trail_lim_.resize(static_cast<size_t>(level));
    qhead_ = trail_.size();
    // Pop the theory state asserted from the removed trail suffix.
    if (theory_head_ > trail_.size()) {
      size_t mark = theory_.Mark();
      while (!theory_marks_.empty() && theory_marks_.back().first >= trail_.size()) {
        mark = theory_marks_.back().second;
        theory_marks_.pop_back();
      }
      theory_.Undo(mark);
      theory_head_ = trail_.size();
    }
  }

  // Highest-activity unassigned variable among this query's relevant set.
  int PickBranchVar() const {
    int best = -1;
    double best_act = -1.0;
    for (int v : relevant_list_) {
      const VarData& vd = vars_[static_cast<size_t>(v)];
      if (vd.value != LB::kUndef) {
        continue;
      }
      if (best < 0 || vd.activity > best_act) {
        best = v;
        best_act = vd.activity;
      }
    }
    return best;
  }

  void BumpActivity(int v) {
    double& a = vars_[static_cast<size_t>(v)].activity;
    a += var_inc_;
    if (a > kActivityLimit) {
      for (VarData& vd : vars_) {
        vd.activity *= 1e-100;
      }
      var_inc_ *= 1e-100;
    }
  }

  // Standard 1-UIP conflict analysis: resolves the conflict clause backward
  // along the trail until exactly one literal of the current decision level
  // remains. learnt[0] is the asserting literal; out_btlevel the backjump
  // target (the second-highest level in the clause).
  void Analyze(int confl, std::vector<Lit>* out_learnt, int* out_btlevel) {
    out_learnt->clear();
    out_learnt->push_back(kLitUndef);  // Slot for the asserting literal.
    int pathC = 0;
    Lit p = kLitUndef;
    int index = static_cast<int>(trail_.size()) - 1;
    do {
      ICARUS_REQUIRE_MSG(confl != kCRefUndef, "conflict analysis lost its reason chain");
      const std::vector<Lit>& c = clauses_[static_cast<size_t>(confl)];
      for (size_t j = (p == kLitUndef) ? 0 : 1; j < c.size(); ++j) {
        int v = VarOf(c[j]);
        VarData& vd = vars_[static_cast<size_t>(v)];
        if (seen_[static_cast<size_t>(v)] == 0 && vd.level > 0) {
          BumpActivity(v);
          seen_[static_cast<size_t>(v)] = 1;
          if (vd.level >= DecisionLevel()) {
            ++pathC;
          } else {
            out_learnt->push_back(c[j]);
          }
        }
      }
      while (seen_[static_cast<size_t>(VarOf(trail_[static_cast<size_t>(index)]))] == 0) {
        --index;
      }
      p = trail_[static_cast<size_t>(index)];
      --index;
      confl = vars_[static_cast<size_t>(VarOf(p))].reason;
      seen_[static_cast<size_t>(VarOf(p))] = 0;
      --pathC;
    } while (pathC > 0);
    (*out_learnt)[0] = Negate(p);
    if (out_learnt->size() == 1) {
      *out_btlevel = 0;
    } else {
      size_t max_i = 1;
      for (size_t i = 2; i < out_learnt->size(); ++i) {
        if (vars_[static_cast<size_t>(VarOf((*out_learnt)[i]))].level >
            vars_[static_cast<size_t>(VarOf((*out_learnt)[max_i]))].level) {
          max_i = i;
        }
      }
      std::swap((*out_learnt)[1], (*out_learnt)[max_i]);
      *out_btlevel = vars_[static_cast<size_t>(VarOf((*out_learnt)[1]))].level;
    }
    for (Lit l : *out_learnt) {
      seen_[static_cast<size_t>(VarOf(l))] = 0;
    }
  }

  // Assumption-level unsat core: called when assumption `p` (index `p_index`
  // in assump_terms_) is already false at placement time. Walks the trail
  // top-down expanding reasons; assumptions hit along the way (and `p`'s own
  // term) form the core. Selector pseudo-assumptions carry a null term and
  // are skipped — a conflict caused purely by a temporary clause yields an
  // empty core, as documented in the header.
  void AnalyzeFinal(Lit p, int p_index, std::vector<ExprRef>* out_core) {
    out_core->clear();
    ExprRef own = assump_terms_[static_cast<size_t>(p_index)];
    if (own != nullptr) {
      out_core->push_back(own);
    }
    seen_[static_cast<size_t>(VarOf(p))] = 1;
    int lo = trail_lim_.empty() ? static_cast<int>(trail_.size()) : trail_lim_[0];
    for (int i = static_cast<int>(trail_.size()) - 1; i >= lo; --i) {
      int v = VarOf(trail_[static_cast<size_t>(i)]);
      if (seen_[static_cast<size_t>(v)] == 0) {
        continue;
      }
      seen_[static_cast<size_t>(v)] = 0;
      int reason = vars_[static_cast<size_t>(v)].reason;
      if (reason == kCRefUndef) {
        // A decision below the search levels is an assumption.
        const int index = vars_[static_cast<size_t>(v)].assump_index;
        if (index >= 0) {
          ExprRef t = assump_terms_[static_cast<size_t>(index)];
          if (t != nullptr &&
              std::find(out_core->begin(), out_core->end(), t) == out_core->end()) {
            out_core->push_back(t);
          }
        }
      } else {
        // Skip the implied literal itself: marking it again would leave a
        // stale seen_ flag behind the walk, and Analyze would then drop
        // that variable from a later learned clause.
        for (Lit l : clauses_[static_cast<size_t>(reason)]) {
          const int u = VarOf(l);
          if (u != v && vars_[static_cast<size_t>(u)].level > 0) {
            seen_[static_cast<size_t>(u)] = 1;
          }
        }
      }
    }
    seen_[static_cast<size_t>(VarOf(p))] = 0;
  }

  // Theory check at a full assignment of the relevant closure. Asserts the
  // trail suffix the theory has not seen (every assigned atom, a superset of
  // the relevant ones — all assigned literals are consequences of the
  // current context, so including them is sound and makes lemmas reusable),
  // then runs the final check. On conflict, the theory's core becomes a
  // lemma, staged as either a unit level-0 fact or a conflict clause for
  // Analyze.
  TheoryOutcome TheoryCheckFull(bool want_model, Model* model, int* out_confl) {
    ++stats_->theory_checks;
    bool consistent = true;
    for (; theory_head_ < trail_.size(); ++theory_head_) {
      const Lit p = trail_[theory_head_];
      const int atom = vars_[static_cast<size_t>(VarOf(p))].atom;
      if (atom < 0) {
        continue;
      }
      const size_t mark = theory_.Mark();
      if (!theory_.Assert(atom, !SignOf(p))) {
        // Retract the failed assertion's partial effects; the prefix stays.
        theory_.Undo(mark);
        consistent = false;
        break;
      }
      theory_marks_.emplace_back(theory_head_, mark);
    }
    if (consistent && theory_.Check()) {
      if (want_model) {
        for (Lit p : trail_) {
          const VarData& vd = vars_[static_cast<size_t>(VarOf(p))];
          if (vd.is_atom) {
            model->atoms.emplace_back(vd.term, vd.value == LB::kTrue);
          }
        }
        theory_.BuildModel(model);
        // Boolean variables are atoms, not theory terms; record their
        // truth values as witnesses alongside the class values.
        for (const auto& [atom, truth] : model->atoms) {
          if (atom->kind == Kind::kVar && atom->sort == Sort::kBool) {
            model->witnesses.push_back(Witness{atom->name, Sort::kBool, truth ? 1 : 0});
          }
        }
      }
      return TheoryOutcome::kConsistent;
    }
    ++stats_->theory_conflicts;
    const std::vector<int>& core = theory_.conflict();
    stats_->theory_core_literals += static_cast<int64_t>(core.size());
    // The lemma: at least one core literal must flip. Valid in every model
    // (it mentions no aux variables), so it is learned permanently and keeps
    // pruning across queries and scopes.
    std::vector<Lit> lemma;
    lemma.reserve(core.size());
    int max_level = 0;
    for (int atom : core) {
      const int v = atom_var_[static_cast<size_t>(atom)];
      // Negation of the current literal.
      lemma.push_back(MkLit(v, vars_[static_cast<size_t>(v)].value == LB::kTrue));
      max_level = std::max(max_level, vars_[static_cast<size_t>(v)].level);
    }
    if (max_level == 0) {
      // The level-0 facts alone are theory-inconsistent: globally unsat.
      ok_ = false;
      return TheoryOutcome::kGlobalUnsat;
    }
    if (lemma.size() == 1) {
      CancelUntil(0);
      AddClauseLits({lemma[0]});
      ++stats_->learned_clauses;
      return TheoryOutcome::kUnitLemma;
    }
    // Backtrack so the lemma has a literal at the (new) current level, put
    // the two highest-level literals in the watch positions, and hand it to
    // conflict analysis as the conflicting clause.
    CancelUntil(max_level);
    auto level_of = [this](Lit l) {
      return vars_[static_cast<size_t>(VarOf(l))].level;
    };
    size_t hi0 = 0;
    for (size_t i = 1; i < lemma.size(); ++i) {
      if (level_of(lemma[i]) > level_of(lemma[hi0])) {
        hi0 = i;
      }
    }
    std::swap(lemma[0], lemma[hi0]);
    size_t hi1 = 1;
    for (size_t i = 2; i < lemma.size(); ++i) {
      if (level_of(lemma[i]) > level_of(lemma[hi1])) {
        hi1 = i;
      }
    }
    std::swap(lemma[1], lemma[hi1]);
    int cr = AttachClause(std::move(lemma));
    ++stats_->learned_clauses;
    *out_confl = cr;
    return TheoryOutcome::kLemmaConflict;
  }

  SolverStats* stats_;
  bool ok_ = true;  // False once the clause database is inconsistent.
  int true_var_ = 0;
  std::vector<VarData> vars_;
  std::vector<std::vector<Lit>> clauses_;  // Arena; a clause ref indexes it.
  std::vector<std::vector<int>> watches_;  // Per literal: clauses watching it.
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;
  std::vector<uint8_t> seen_;  // Scratch for Analyze/AnalyzeFinal, per var.
  double var_inc_ = 1.0;
  // Relevant variables in marking order: assumption i's closure adds the
  // entries up to relevant_ends_[i], the temporary clauses' the rest.
  std::vector<int> relevant_list_;
  std::vector<size_t> relevant_ends_;
  std::unordered_map<ExprRef, Lit> enc_cache_;
  Theory theory_;
  std::vector<int> atom_var_;  // Theory atom id → variable.
  // Trail entries [0, theory_head_) are asserted in theory_; theory_marks_
  // pairs each asserted atom's trail position with the undo mark before it.
  size_t theory_head_ = 0;
  std::vector<std::pair<size_t, size_t>> theory_marks_;
  std::unordered_map<ExprRef, std::vector<int>> closure_cache_;
  // The current query's assumptions; assumption i sits on trail level i+1
  // while that level exists.
  std::vector<Lit> assump_lits_;
  std::vector<ExprRef> assump_terms_;  // Parallel; null = scope selector.
};

// ---------------------------------------------------------------------------
// Solver: the incremental interface over the engines.
// ---------------------------------------------------------------------------

Solver::Solver() : Solver(Limits{}, Options{}) {}
Solver::Solver(Limits limits) : Solver(limits, Options{}) {}
Solver::Solver(Limits limits, Options options) : limits_(limits), options_(options) {}
Solver::~Solver() = default;

void Solver::Push() { scopes_.emplace_back(); }

void Solver::Pop() {
  ICARUS_REQUIRE_MSG(!scopes_.empty(), "Pop without a matching Push");
  if (scopes_.back().selector_var >= 0 && cdcl_ != nullptr) {
    cdcl_->DisableSelector(scopes_.back().selector_var);
  }
  scopes_.pop_back();
}

int Solver::depth() const { return static_cast<int>(scopes_.size()); }

void Solver::Assume(ExprRef conjunct) {
  ICARUS_REQUIRE_MSG(!scopes_.empty(), "Assume outside an assumption scope");
  ICARUS_REQUIRE_MSG(conjunct->sort == Sort::kBool, "non-boolean conjunct in solver query");
  scopes_.back().assumed.push_back(conjunct);
}

void Solver::AddTempClause(const std::vector<ExprRef>& lits) {
  ICARUS_REQUIRE_MSG(!scopes_.empty(), "AddTempClause outside an assumption scope");
  ICARUS_REQUIRE_MSG(!lits.empty(), "empty temporary clause");
  for (ExprRef l : lits) {
    ICARUS_REQUIRE_MSG(l->sort == Sort::kBool, "non-boolean literal in temporary clause");
  }
  Scope& scope = scopes_.back();
  scope.temp_clauses.push_back(lits);
  if (options_.clause_learning) {
    if (cdcl_ == nullptr) {
      cdcl_ = std::make_unique<Cdcl>(&stats_);
    }
    if (scope.selector_var < 0) {
      scope.selector_var = cdcl_->NewSelectorVar();
    }
    cdcl_->AddGuardedClause(scope.selector_var, lits);
  }
}

std::vector<ExprRef> Solver::FlattenAssumptions() const {
  std::vector<ExprRef> out;
  for (const Scope& s : scopes_) {
    out.insert(out.end(), s.assumed.begin(), s.assumed.end());
  }
  return out;
}

bool Solver::HasTempClauses() const {
  for (const Scope& s : scopes_) {
    if (!s.temp_clauses.empty()) {
      return true;
    }
  }
  return false;
}

SolveResult Solver::Solve(const std::vector<ExprRef>& conjuncts, bool want_model) {
  Push();
  for (ExprRef c : conjuncts) {
    Assume(c);
  }
  SolveResult result = SolveAssuming(want_model);
  Pop();
  return result;
}

SolveResult Solver::SolveAssuming(bool want_model) {
  ++stats_.queries;
  if (!obs::Enabled()) {
    return SolveImpl(want_model);
  }
  // Observability wrapper: per-outcome latency histograms plus counters for
  // search effort and cache traffic. Deltas are measured against this
  // solver's own stats so persistent (per-generator) Solver instances
  // attribute each query exactly once.
  static auto& reg = obs::Registry::Global();
  static obs::Counter* queries =
      reg.GetCounter("icarus_solver_queries_total", "Satisfiability queries issued");
  static obs::Counter* decisions =
      reg.GetCounter("icarus_solver_decisions_total", "Branching decisions");
  static obs::Counter* propagations = reg.GetCounter(
      "icarus_solver_propagations_total", "Literals assigned by unit propagation");
  static obs::Counter* conflicts =
      reg.GetCounter("icarus_solver_conflicts_total", "Conflicts (propositional + theory)");
  static obs::Counter* learned = reg.GetCounter("icarus_solver_learned_clauses_total",
                                                "Clauses learned (1-UIP + theory lemmas)");
  static obs::Counter* restarts =
      reg.GetCounter("icarus_solver_restarts_total", "Search restarts (Luby policy)");
  static obs::Counter* theory_checks = reg.GetCounter(
      "icarus_solver_theory_checks_total", "Theory checks (congruence + intervals)");
  static obs::Counter* theory_core_literals =
      reg.GetCounter("icarus_solver_theory_core_literals_total",
                     "Literals across the cores of theory conflicts");
  static obs::Counter* assumptions_placed =
      reg.GetCounter("icarus_solver_assumptions_placed_total",
                     "Assumption levels placed on the trail (a kept prefix is not re-placed)");
  static obs::Counter* exhausted = reg.GetCounter("icarus_solver_budget_exhausted_total",
                                                  "Queries degraded to UNKNOWN by a budget");
  static obs::Counter* cache_hits =
      reg.GetCounter("icarus_solver_cache_hits_total", "Queries answered by a decisive entry");
  static obs::Counter* cache_negative = reg.GetCounter(
      "icarus_solver_cache_negative_hits_total", "Queries answered by a kUnknown entry");
  static obs::Counter* cache_misses =
      reg.GetCounter("icarus_solver_cache_misses_total", "Cache consulted, no usable entry");
  static obs::Histogram* lat_sat = reg.GetHistogram("icarus_solver_latency_sat_seconds",
                                                    "Per-query wall clock, SAT outcomes");
  static obs::Histogram* lat_unsat = reg.GetHistogram("icarus_solver_latency_unsat_seconds",
                                                      "Per-query wall clock, UNSAT outcomes");
  static obs::Histogram* lat_unknown = reg.GetHistogram(
      "icarus_solver_latency_unknown_seconds", "Per-query wall clock, UNKNOWN outcomes");
  const SolverStats before = stats_;
  WallTimer timer;
  SolveResult result = SolveImpl(want_model);
  double seconds = timer.ElapsedSeconds();
  queries->Add(1);
  decisions->Add(stats_.decisions - before.decisions);
  propagations->Add(stats_.propagations - before.propagations);
  conflicts->Add(stats_.conflicts - before.conflicts);
  learned->Add(stats_.learned_clauses - before.learned_clauses);
  restarts->Add(stats_.restarts - before.restarts);
  theory_checks->Add(stats_.theory_checks - before.theory_checks);
  theory_core_literals->Add(stats_.theory_core_literals - before.theory_core_literals);
  assumptions_placed->Add(stats_.assumptions_placed - before.assumptions_placed);
  exhausted->Add(stats_.budget_exhausted - before.budget_exhausted);
  cache_hits->Add(stats_.cache_hits - before.cache_hits);
  cache_negative->Add(stats_.cache_negative_hits - before.cache_negative_hits);
  cache_misses->Add(stats_.cache_misses - before.cache_misses);
  switch (result.verdict) {
    case Verdict::kSat:
      lat_sat->Observe(seconds);
      break;
    case Verdict::kUnsat:
      lat_unsat->Observe(seconds);
      break;
    case Verdict::kUnknown:
      lat_unknown->Observe(seconds);
      break;
  }
  return result;
}

SolveResult Solver::SolveImpl(bool want_model) {
  std::vector<ExprRef> conjuncts = FlattenAssumptions();
  // The cache key is the flattened assumption set; active temporary clauses
  // are not part of the key, so queries made while any scope holds a temp
  // clause bypass the cache entirely (in both directions).
  if (cache_ == nullptr || HasTempClauses()) {
    return SolveCore(conjuncts, want_model);
  }
  QueryKey key = FingerprintQuery(conjuncts);
  // A kSat entry stored without a model cannot serve a model-needing caller,
  // and a kUnknown entry produced under a strictly smaller budget cannot
  // serve this query; Lookup reports both as misses and the re-solve below
  // upgrades the resident entry.
  std::optional<SolverCache::Entry> entry = cache_->Lookup(key, want_model, &limits_);
  if (entry.has_value()) {
    SolveResult cached;
    cached.verdict = entry->verdict;
    if (entry->verdict == Verdict::kSat && want_model) {
      cached.model.rendered = std::move(entry->model_text);
      cached.model.witnesses = std::move(entry->witnesses);
    }
    if (entry->verdict == Verdict::kUnknown) {
      // Negative entry earned under at-least-this budget: an earlier attempt
      // already blew an equal-or-larger budget on this exact query; don't
      // burn another budget rediscovering that.
      ++stats_.cache_negative_hits;
    } else {
      ++stats_.cache_hits;
    }
    if (entry->verdict == Verdict::kUnsat) {
      // Cached entries carry no core; the full assumption set is the sound
      // over-approximation of the final conflict.
      final_conflict_ = std::move(conjuncts);
    }
    return cached;
  }
  ++stats_.cache_misses;
  SolveResult result = SolveCore(conjuncts, want_model);
  SolverCache::Entry fresh;
  fresh.verdict = result.verdict;
  if (result.verdict == Verdict::kSat && want_model) {
    // Rendering the model is the expensive part of an insertion; skip it for
    // verdict-only callers (the entry can be upgraded later if needed).
    fresh.has_model = true;
    fresh.model_text = result.model.ToString();
    fresh.witnesses = result.model.witnesses;
  }
  if (result.verdict == Verdict::kUnknown) {
    // Stamp the budget this give-up happened under; only strictly larger
    // budgets will miss past it. Decisive verdicts are budget-independent —
    // including ones found cheaply via learned clauses: a learned clause is
    // a logical consequence of the database, so any answer derived from it
    // would also have been found by uninformed search.
    fresh.budget_decisions = limits_.max_decisions;
    fresh.budget_seconds = limits_.max_seconds;
  }
  cache_->Insert(key, std::move(fresh));
  return result;
}

SolveResult Solver::SolveCore(const std::vector<ExprRef>& conjuncts, bool want_model) {
  // One failpoint hit per searched (cache-missed) query, in addition to the
  // per-decision hits inside the engines, so fault-injection tests observe
  // query-grained activity even when learned clauses answer with few or no
  // decisions. Cache hits do not fire.
  ICARUS_FAILPOINT(failpoint::kSolverDecision);
  final_conflict_.clear();
  if (!options_.clause_learning) {
    std::vector<std::vector<ExprRef>> clauses;
    for (const Scope& s : scopes_) {
      clauses.insert(clauses.end(), s.temp_clauses.begin(), s.temp_clauses.end());
    }
    SolveResult result = SolveDecideOnly(conjuncts, clauses);
    if (result.verdict == Verdict::kUnsat) {
      // The decide-only engine has no conflict analysis; every assumed
      // conjunct is reported (a sound over-approximation of the core).
      final_conflict_ = conjuncts;
    }
    return result;
  }
  if (cdcl_ == nullptr) {
    cdcl_ = std::make_unique<Cdcl>(&stats_);
  }
  std::vector<int> selectors;
  std::vector<ExprRef> clause_roots;
  for (const Scope& s : scopes_) {
    if (s.selector_var >= 0) {
      selectors.push_back(s.selector_var);
    }
    for (const auto& clause : s.temp_clauses) {
      clause_roots.insert(clause_roots.end(), clause.begin(), clause.end());
    }
  }
  return cdcl_->Solve(conjuncts, selectors, clause_roots, limits_, want_model,
                      &final_conflict_);
}

// The retained pre-CDCL engine: recursive DPLL over the query's atoms with
// early skeleton evaluation, fresh per call, no learning. Serves as the
// --no-clause-learning ablation engine and as the oracle for the solver's
// differential fuzz tests. Each full assignment is asserted into the same
// Theory the CDCL engine uses, from an empty state; the conflict core is
// not used.
SolveResult Solver::SolveDecideOnly(const std::vector<ExprRef>& conjuncts,
                                    const std::vector<std::vector<ExprRef>>& clauses) {
  std::vector<ExprRef> atoms;
  std::unordered_set<ExprRef> seen;
  for (ExprRef c : conjuncts) {
    CollectAtoms(c, &atoms, &seen);
  }
  for (const auto& clause : clauses) {
    for (ExprRef l : clause) {
      CollectAtoms(l, &atoms, &seen);
    }
  }

  Theory theory;
  std::unordered_map<ExprRef, int> theory_atoms;
  for (ExprRef a : atoms) {
    theory_atoms.emplace(a, theory.AddAtom(a));
  }

  std::unordered_map<ExprRef, Tri> assignment;
  SolveResult result;
  bool exhausted = false;
  // Budgets are per query: decisions are counted relative to this query's
  // start, and the wall clock (checked every 64 decisions to keep it off the
  // hot path) starts now.
  const int64_t decisions_at_start = stats_.decisions;
  WallTimer query_timer;

  auto search = [&](auto&& self) -> bool {
    if (stats_.decisions - decisions_at_start > limits_.max_decisions) {
      exhausted = true;
      return false;
    }
    if (limits_.max_seconds > 0.0 &&
        (stats_.decisions - decisions_at_start) % 64 == 0 &&
        query_timer.ElapsedSeconds() > limits_.max_seconds) {
      exhausted = true;
      return false;
    }
    SkeletonEval eval(&assignment);
    ExprRef branch_atom = nullptr;
    for (ExprRef c : conjuncts) {
      Tri v = eval.Eval(c);
      if (v == Tri::kFalse) {
        return false;
      }
      if (v == Tri::kUnknown && branch_atom == nullptr) {
        branch_atom = eval.PickUndecided(c);
      }
    }
    for (const auto& clause : clauses) {
      // Disjunctive temporary clause: or-fold its literals.
      Tri v = Tri::kFalse;
      ExprRef undecided = nullptr;
      for (ExprRef l : clause) {
        Tri lv = eval.Eval(l);
        if (lv == Tri::kTrue) {
          v = Tri::kTrue;
          break;
        }
        if (lv == Tri::kUnknown) {
          v = Tri::kUnknown;
          if (undecided == nullptr) {
            undecided = eval.PickUndecided(l);
          }
        }
      }
      if (v == Tri::kFalse) {
        return false;
      }
      if (v == Tri::kUnknown && branch_atom == nullptr) {
        branch_atom = undecided;
      }
    }
    if (branch_atom == nullptr) {
      // Everything propositionally true; check the decided literals against
      // the theory.
      ++stats_.theory_checks;
      std::vector<std::pair<ExprRef, bool>> literals;
      literals.reserve(assignment.size());
      theory.Undo(0);
      bool consistent = true;
      for (const auto& [atom, tri] : assignment) {
        literals.emplace_back(atom, tri == Tri::kTrue);
        const int id = theory_atoms.at(atom);
        if (consistent && id >= 0) {
          consistent = theory.Assert(id, tri == Tri::kTrue);
        }
      }
      if (!consistent || !theory.Check()) {
        return false;
      }
      result.verdict = Verdict::kSat;
      result.model.atoms = literals;
      theory.BuildModel(&result.model);
      // Boolean variables are atoms, not theory terms; record their truth
      // values as witnesses alongside the integer/term class values.
      for (const auto& [atom, truth] : literals) {
        if (atom->kind == Kind::kVar && atom->sort == Sort::kBool) {
          result.model.witnesses.push_back(Witness{atom->name, Sort::kBool, truth ? 1 : 0});
        }
      }
      return true;
    }
    for (Tri choice : {Tri::kTrue, Tri::kFalse}) {
      ICARUS_FAILPOINT(failpoint::kSolverDecision);
      ++stats_.decisions;
      assignment[branch_atom] = choice;
      if (self(self)) {
        return true;
      }
      assignment.erase(branch_atom);
      if (exhausted) {
        return false;
      }
    }
    return false;
  };

  if (search(search)) {
    return result;
  }
  if (exhausted) {
    ++stats_.budget_exhausted;
    result.verdict = Verdict::kUnknown;
  } else {
    result.verdict = Verdict::kUnsat;
  }
  return result;
}

}  // namespace icarus::sym
