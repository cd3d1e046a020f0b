// The theory layer of the lazy-SMT solver: equality with uninterpreted
// functions, integer difference bounds and interval propagation, kept as one
// backtrackable state that explains its own conflicts.
//
// The CDCL engine (solver.cc) owns one Theory for its whole life. Atoms get a
// dense id when the Tseitin encoder first meets them; their first-order
// subterms get dense term ids at the same time, so no check ever hashes a
// term pointer. Asserting a literal is incremental and undoable:
//   - congruence closure is a union-find (union by rank, no path
//     compression) with a proof forest that records the literal or the
//     congruence behind every merge (Nieuwenhuis & Oliveras);
//   - difference bounds are edges of a constraint graph whose potential
//     function is repaired Dijkstra-style on every insertion, so a negative
//     cycle is found the moment the edge that closes it is added;
//   - every change is logged, and Undo(mark) pops the log back to `mark`.
// Check() runs the final tests that are recomputed per check over the dense
// arrays: disequalities against the current classes, and the interval
// fixpoint, which records a reason for every bound it tightens.
//
// A conflict (Assert or Check returning false) leaves its core in
// conflict(): asserted atom ids whose literals (at their asserted truth) are
// jointly T-unsatisfiable. The core is read off the proof-forest paths, the
// negative cycle's edges, or the interval reason DAG — no re-checking.
//
// Terms are *active* while some asserted atom mentions them; only active
// terms take part in congruence, bounds and models, so a long-lived theory
// that has registered thousands of terms does per-check work proportional to
// the current assignment.
#ifndef ICARUS_SYM_THEORY_H_
#define ICARUS_SYM_THEORY_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sym/expr.h"

namespace icarus::sym {

struct Model;  // solver.h

class Theory {
 public:
  Theory();
  ~Theory();
  Theory(const Theory&) = delete;
  Theory& operator=(const Theory&) = delete;

  // Registers `atom` (a boolean kEq/kLt/kLe/kApp/kVar node) and its
  // first-order subterms. Returns the atom's dense id, or -1 when the atom
  // carries no theory content (boolean variables). Idempotent. May be called
  // at any point; registration changes no asserted state.
  int AddAtom(ExprRef atom);

  // Undo-log position; Undo(mark) retracts everything asserted since.
  size_t Mark() const { return undo_.size(); }
  void Undo(size_t mark);

  // Asserts atom `atom` with `truth`. Returns false on a theory conflict,
  // with the core in conflict(); the caller then undoes to a mark taken
  // before the failing assertion.
  bool Assert(int atom, bool truth);
  // The final check of the asserted set. Returns false on conflict.
  bool Check();
  // After a false return: asserted atom ids forming the conflict core.
  const std::vector<int>& conflict() const { return conflict_; }
  // The truth value `atom` was last asserted with.
  bool asserted_truth(int atom) const { return atoms_[static_cast<size_t>(atom)].truth; }

  // After Check() returned true: appends concrete values per congruence
  // class of the active terms (model->terms) and a witness per named
  // variable among them (model->witnesses).
  void BuildModel(Model* model);

 private:
  struct Term {
    ExprRef node = nullptr;
    int fn = -1;         // Congruence symbol; -1 when not an application.
    int arg_begin = 0;   // First-order arguments, in args_.
    int num_args = 0;
    int atom = -1;       // Atom id when the term is a boolean predicate.
  };
  struct Atom {
    Kind kind = Kind::kVar;
    int a = -1;  // Argument terms (kEq/kLt/kLe), or the predicate term (kApp).
    int b = -1;
    bool is_int = false;
    bool truth = false;
  };
  // A difference constraint to - from <= w. Its reason is an atom, a
  // proof-forest edge (eq_a, eq_b), or nothing (an axiom about constants
  // and +/- by a constant).
  struct Edge {
    int from;
    int to;
    __int128 w;
    int atom;
    int eq_a;
    int eq_b;
  };
  struct MergeRecord {
    int child;
    int root;
    int proof_a;  // The proof-forest edge the merge added.
    int proof_b;
    bool rank_bumped;
    size_t uses_len;
    int old_const;
    int old_pred;
    size_t erased_begin;      // Signature-table entries erased before the
    size_t reinserted_begin;  // union, then those (re)inserted after it,
    size_t reinserted_end;    // as ranges of undo_terms_.
  };
  enum class UndoKind : uint8_t { kActivate, kInsert, kMerge, kEdge, kCmp, kDiseq, kPred };
  struct UndoEntry {
    UndoKind kind;
    int a;
    int b;
  };
  struct Pending {
    int x;
    int y;
    int why;
  };
  // A bound "anchor >= v" or "anchor <= v" derived by the interval
  // fixpoint, with its antecedents in antes_[ante_begin, ante_end).
  struct Bound {
    int anchor;
    int atom;
    int ante_begin;
    int ante_end;
  };
  // Antecedent: bound record `rec` read through term `a` (so a = anchor(rec)
  // is implied), or, with rec < 0, the equality a = b.
  struct Ante {
    int rec;
    int a;
    int b;
  };

  int AddTerm(ExprRef t);
  bool IsInt(int t) const {
    return t == 0 || terms_[static_cast<size_t>(t)].node->sort == Sort::kInt;
  }
  int Arg(int t, int i) const {
    return args_[static_cast<size_t>(terms_[static_cast<size_t>(t)].arg_begin + i)];
  }

  // Congruence closure.
  int Find(int t) const;
  bool Activate(int t);
  bool ProcessPending();
  bool Merge(int x, int y, int why);
  void Reroot(int t);
  uint64_t SigHash(int t) const;
  bool SigEqual(int t, int u) const;
  int SigLookup(int t) const;
  void SigInsert(int t);
  void SigErase(int t);
  void SigGrow();

  // Difference logic.
  bool AddConstraint(int x, int y, __int128 w, int atom, int eq_a, int eq_b);

  // Intervals.
  bool PropagateIntervals();
  void EnsureIv(int root);
  int64_t Lo(int t);
  int64_t Hi(int t);
  Ante LoAnte(int t);
  Ante HiAnte(int t);
  // Raise t's class lower (upper) bound to v because of `atom` and the
  // antecedents; false when v is not tighter.
  bool TightenLo(int t, int64_t v, int atom, std::initializer_list<Ante> antes,
                 const std::vector<Ante>* extra = nullptr);
  bool TightenHi(int t, int64_t v, int atom, std::initializer_list<Ante> antes,
                 const std::vector<Ante>* extra = nullptr);
  int NewBound(int anchor, int atom, std::initializer_list<Ante> antes,
               const std::vector<Ante>* extra);
  bool IvEmpty(int t);
  bool IvFail(int t);  // Conflict: t's class interval is empty.
  bool DivisorNonzero(int t, std::vector<Ante>* why, int* atom);

  // Conflict explanation.
  void BeginConflict();
  void AddCoreAtom(int atom);
  void ExplainEq(int a, int b);
  void ExplainEdge(int e);
  void ExplainBound(int rec);
  void ExplainAnte(const Ante& ante);

  // Registration (never consulted by a check).
  std::unordered_map<ExprRef, int> term_ids_;
  std::unordered_map<ExprRef, int> atom_ids_;
  std::unordered_map<std::string, int> fn_ids_;
  std::vector<Term> terms_;  // terms_[0] is the difference-logic origin ZERO.
  std::vector<int> args_;
  std::vector<Atom> atoms_;

  // Per-term state, indexed by term id.
  std::vector<int> find_;
  std::vector<uint8_t> rank_;
  std::vector<int> proof_target_;
  std::vector<int> proof_why_;  // Atom id, or kCongruence.
  std::vector<uint8_t> active_;
  std::vector<std::vector<int>> uses_;  // Per root: applications over the class.
  std::vector<int> const_of_;          // Per root: a constant in the class.
  std::vector<int> pred_of_;           // Per root: an asserted predicate in it.
  std::vector<__int128> potential_;
  std::vector<std::vector<int>> out_;  // Difference edges leaving a term.
  std::vector<int> in_degree_;         // Difference edges entering a term.

  // Asserted state, all undone through undo_.
  std::vector<UndoEntry> undo_;
  std::vector<MergeRecord> merges_;
  std::vector<int> undo_terms_;
  std::vector<int> active_list_;  // Activation order (pre-order per atom).
  std::vector<int> cmp_atoms_;    // Asserted integer comparisons.
  std::vector<int> diseq_atoms_;  // Equalities asserted false.
  std::vector<Edge> edges_;
  std::vector<Pending> pending_;

  // Signature table: open addressing over term ids, keyed by
  // (fn, argument roots).
  struct SigSlot {
    uint64_t hash;
    int term;
  };
  std::vector<SigSlot> sig_slots_;
  size_t sig_count_ = 0;

  // Scratch for the potential repair (indexed by term id).
  std::vector<__int128> gamma_;
  std::vector<int> pred_edge_;
  std::vector<uint32_t> dl_seen_;
  std::vector<uint32_t> dl_done_;
  uint32_t dl_stamp_ = 0;
  std::vector<std::pair<__int128, int>> heap_;
  std::vector<int> dl_touched_;

  // Per-check interval state (indexed by root term id, stamped per check).
  std::vector<int64_t> lo_;
  std::vector<int64_t> hi_;
  std::vector<int> lo_why_;
  std::vector<int> hi_why_;
  std::vector<uint32_t> iv_stamp_;
  uint32_t iv_epoch_ = 0;
  std::vector<Bound> bounds_;
  std::vector<Ante> antes_;
  std::vector<Ante> div_why_;

  // Conflict assembly.
  std::vector<int> conflict_;
  std::vector<uint32_t> atom_mark_;
  std::vector<uint32_t> edge_mark_;   // Per proof node: edge already explained.
  std::vector<uint32_t> bound_mark_;
  uint32_t conflict_stamp_ = 0;
  mutable std::vector<uint32_t> anc_mark_;
  mutable uint32_t anc_stamp_ = 0;
  std::vector<std::pair<int, int>> eq_work_;
};

}  // namespace icarus::sym

#endif  // ICARUS_SYM_THEORY_H_
