#include "src/sym/theory.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/support/check.h"
#include "src/sym/solver.h"

namespace icarus::sym {

namespace {

constexpr int kZero = 0;          // Term id of the difference-logic origin.
constexpr int kNoWhy = -1;        // proof_why_ of a proof-forest root.
constexpr int kCongruence = -2;   // proof_why_ of a congruence merge.
constexpr int kIntervalRounds = 64;

// Interval endpoints saturate here; kIntMin/kIntMax stand for "unbounded".
constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min() / 4;
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max() / 4;

int64_t Saturate(__int128 r) {
  if (r < kIntMin) {
    return kIntMin;
  }
  if (r > kIntMax) {
    return kIntMax;
  }
  return static_cast<int64_t>(r);
}

int64_t SatAdd(int64_t a, int64_t b) { return Saturate(static_cast<__int128>(a) + b); }
int64_t SatMul(int64_t a, int64_t b) { return Saturate(static_cast<__int128>(a) * b); }

// Negation and absolute value without overflow at INT64_MIN.
int64_t Neg(int64_t a) {
  return a == std::numeric_limits<int64_t>::min() ? std::numeric_limits<int64_t>::max() : -a;
}
int64_t Abs(int64_t a) { return a < 0 ? Neg(a) : a; }
int64_t Step(int64_t a, int delta) {
  __int128 r = static_cast<__int128>(a) + delta;
  r = std::clamp<__int128>(r, std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max());
  return static_cast<int64_t>(r);
}

// Advances an epoch counter; on wrap-around clears the stamps it guards.
void NextStamp(uint32_t* stamp, std::initializer_list<std::vector<uint32_t>*> marks) {
  if (++*stamp == 0) {
    for (std::vector<uint32_t>* m : marks) {
      std::fill(m->begin(), m->end(), 0);
    }
    *stamp = 1;
  }
}

// A difference constraint between model classes: value(to) - value(from) <= w.
struct ClassEdge {
  int from;
  int to;
  int64_t w;
};

// Shortest distances from a virtual source to `nodes` nodes; false when a
// negative cycle keeps them from settling.
bool ShortestDistances(const std::vector<ClassEdge>& edges, size_t nodes,
                       std::vector<int64_t>* dist) {
  dist->assign(nodes, 0);
  for (size_t round = 0; round <= nodes; ++round) {
    bool changed = false;
    for (const ClassEdge& e : edges) {
      const int64_t d = SatAdd((*dist)[static_cast<size_t>(e.from)], e.w);
      if (d < (*dist)[static_cast<size_t>(e.to)]) {
        (*dist)[static_cast<size_t>(e.to)] = d;
        changed = true;
      }
    }
    if (!changed) {
      return true;
    }
  }
  return false;
}

// An application of a model: its symbol, its argument classes, and its
// result class (or, for a predicate, result < 0 and its truth).
struct ModelApp {
  int fn = -1;
  int result = -1;
  int64_t truth = 0;
  std::vector<int> args;
};

// Mends a draft of integer class values (Theory::BuildModel) so that
// disequal classes differ and applications of one symbol with different
// results have arguments that differ. The first remedy moves one class
// together with every class tied to it at a fixed offset (x and x + 1,
// i < j <= i + 1, a constant and ZERO, which never moves) to the nearest
// offset that keeps intervals, disequalities and difference constraints.
// When no such offset exists, the second orders the pair (a < b or b < a)
// and re-solves the difference constraints with the class intervals
// added. Best effort: both searches are bounded. Node n (one past the last
// class) is ZERO.
class ModelRepair {
 public:
  ModelRepair(std::vector<int64_t>* chosen, std::vector<int64_t> lo, std::vector<int64_t> hi,
              std::vector<std::vector<int>> diseq, std::vector<ClassEdge> edges,
              std::vector<uint8_t> pinned, std::vector<ModelApp> apps,
              std::vector<std::pair<int, int>> distinct)
      : chosen_(*chosen),
        n_(chosen->size()),
        zero_(static_cast<int>(chosen->size())),
        lo_(std::move(lo)),
        hi_(std::move(hi)),
        diseq_(std::move(diseq)),
        edges_(std::move(edges)),
        pinned_(std::move(pinned)),
        apps_(std::move(apps)),
        distinct_(std::move(distinct)) {
    std::stable_sort(apps_.begin(), apps_.end(),
                     [](const ModelApp& a, const ModelApp& b) { return a.fn < b.fn; });
  }

  void Run() {
    Regroup();
    const size_t rounds = 8 + 4 * (distinct_.size() + apps_.size());
    for (size_t round = 0; round < rounds; ++round) {
      bool moved = false;
      for (const auto& [a, b] : distinct_) {
        if (a != b && Value(a) == Value(b) && Separate(a, b, [](int64_t) { return false; })) {
          moved = true;
        }
      }
      for (size_t i = 0; i < apps_.size(); ++i) {
        for (size_t j = i + 1; j < apps_.size() && apps_[j].fn == apps_[i].fn; ++j) {
          moved |= SeparateApps(apps_[i], apps_[j]);
        }
      }
      if (!moved) {
        return;
      }
    }
  }

 private:
  int64_t Value(int c) const { return c == zero_ ? 0 : chosen_[static_cast<size_t>(c)]; }
  int64_t ResultOf(const ModelApp& app) const {
    return app.result < 0 ? app.truth : Value(app.result);
  }

  // Separates two applications whose results differ but whose argument
  // values agree, at the first position whose classes differ, moving an
  // argument to a value no other application of the symbol has there.
  bool SeparateApps(const ModelApp& t, const ModelApp& u) {
    if (t.args.size() != u.args.size() || (t.result >= 0 && t.result == u.result) ||
        ResultOf(t) == ResultOf(u)) {
      return false;
    }
    for (size_t i = 0; i < t.args.size(); ++i) {
      if (Value(t.args[i]) != Value(u.args[i])) {
        return false;
      }
    }
    for (size_t i = 0; i < t.args.size(); ++i) {
      const int a = t.args[i];
      const int b = u.args[i];
      if (a == b) {
        continue;
      }
      auto taken = [&](int64_t v) {
        for (const ModelApp& other : apps_) {
          if (other.fn == t.fn && other.args.size() == t.args.size() && other.args[i] != a &&
              other.args[i] != b && Value(other.args[i]) == v) {
            return true;
          }
        }
        return false;
      };
      if (Separate(a, b, taken)) {
        return true;
      }
    }
    return false;
  }

  // Gives a and b different values: shifts b's group, then a's, to a value
  // `avoid` accepts, or else orders the pair.
  template <typename Avoid>
  bool Separate(int a, int b, const Avoid& avoid) {
    return Shift(b, avoid) || Shift(a, avoid) || Order(a, b) || Order(b, a);
  }

  // Groups: classes on a zero-weight cycle of difference constraints keep
  // fixed offsets in every model. Each edge of such a cycle is tight under
  // any solution, so the groups are the strongly connected components of
  // the tight edges (Kosaraju: finish order forward, components backward).
  void Regroup() {
    std::vector<std::vector<int>> fwd(n_ + 1);
    std::vector<std::vector<int>> rev(n_ + 1);
    for (const ClassEdge& e : edges_) {
      if (SatAdd(Value(e.from), e.w) == Value(e.to)) {
        fwd[static_cast<size_t>(e.from)].push_back(e.to);
        rev[static_cast<size_t>(e.to)].push_back(e.from);
      }
    }
    std::vector<int> order;
    std::vector<uint8_t> visited(n_ + 1, 0);
    std::vector<std::pair<int, size_t>> stack;
    for (size_t root = 0; root <= n_; ++root) {
      if (visited[root] != 0) {
        continue;
      }
      visited[root] = 1;
      stack.emplace_back(static_cast<int>(root), 0);
      while (!stack.empty()) {
        const auto u = static_cast<size_t>(stack.back().first);
        const size_t next = stack.back().second++;
        if (next == fwd[u].size()) {
          order.push_back(static_cast<int>(u));
          stack.pop_back();
          continue;
        }
        const int v = fwd[u][next];
        if (visited[static_cast<size_t>(v)] == 0) {
          visited[static_cast<size_t>(v)] = 1;
          stack.emplace_back(v, 0);
        }
      }
    }
    group_.assign(n_ + 1, -1);
    members_.assign(n_ + 1, {});
    movable_.assign(n_ + 1, 1);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (group_[static_cast<size_t>(*it)] >= 0) {
        continue;
      }
      std::vector<int> work = {*it};
      group_[static_cast<size_t>(*it)] = *it;
      while (!work.empty()) {
        const int u = work.back();
        work.pop_back();
        for (int v : rev[static_cast<size_t>(u)]) {
          if (group_[static_cast<size_t>(v)] < 0) {
            group_[static_cast<size_t>(v)] = *it;
            work.push_back(v);
          }
        }
      }
    }
    movable_[static_cast<size_t>(group_[static_cast<size_t>(zero_)])] = 0;
    for (size_t c = 0; c < n_; ++c) {
      const auto g = static_cast<size_t>(group_[c]);
      members_[g].push_back(static_cast<int>(c));
      if (pinned_[c] != 0) {
        movable_[g] = 0;
      }
    }
  }

  bool CanShift(int g, int64_t delta) const {
    for (int m : members_[static_cast<size_t>(g)]) {
      const auto mc = static_cast<size_t>(m);
      const int64_t v = SatAdd(chosen_[mc], delta);
      if (v < lo_[mc] || v > hi_[mc]) {
        return false;
      }
      for (int other : diseq_[mc]) {
        if (group_[static_cast<size_t>(other)] != g && Value(other) == v) {
          return false;
        }
      }
    }
    for (const ClassEdge& e : edges_) {
      const bool from_in = group_[static_cast<size_t>(e.from)] == g;
      const bool to_in = group_[static_cast<size_t>(e.to)] == g;
      if (from_in != to_in &&
          SatAdd(Value(e.to), to_in ? delta : 0) >
              SatAdd(SatAdd(Value(e.from), from_in ? delta : 0), e.w)) {
        return false;
      }
    }
    return true;
  }

  // Shifts c's group to the nearest offset at which c takes a value `avoid`
  // accepts and every constraint still holds.
  template <typename Avoid>
  bool Shift(int c, const Avoid& avoid) {
    const int g = group_[static_cast<size_t>(c)];
    if (movable_[static_cast<size_t>(g)] == 0) {
      return false;
    }
    const auto tries = static_cast<int64_t>(8 + 2 * (apps_.size() + distinct_.size()));
    for (int64_t k = 1; k <= tries; ++k) {
      for (int64_t delta : {k, Neg(k)}) {
        if (!avoid(SatAdd(Value(c), delta)) && CanShift(g, delta)) {
          for (int m : members_[static_cast<size_t>(g)]) {
            chosen_[static_cast<size_t>(m)] = SatAdd(chosen_[static_cast<size_t>(m)], delta);
          }
          return true;
        }
      }
    }
    return false;
  }

  // Adds a < b to the difference constraints (with every integer class's
  // interval) and re-solves them; false, changing nothing, if infeasible.
  bool Order(int a, int b) {
    if (pinned_[static_cast<size_t>(a)] != 0 || pinned_[static_cast<size_t>(b)] != 0) {
      return false;
    }
    std::vector<ClassEdge> trial = edges_;
    if (!bounded_) {
      for (size_t c = 0; c < n_; ++c) {
        if (pinned_[c] != 0) {
          continue;
        }
        if (hi_[c] < kIntMax) {
          trial.push_back({zero_, static_cast<int>(c), hi_[c]});
        }
        if (lo_[c] > kIntMin) {
          trial.push_back({static_cast<int>(c), zero_, Neg(lo_[c])});
        }
      }
    }
    trial.push_back({b, a, -1});
    std::vector<int64_t> dist;
    if (!ShortestDistances(trial, n_ + 1, &dist)) {
      return false;
    }
    std::vector<uint8_t> in_graph(n_ + 1, 0);
    for (const ClassEdge& e : trial) {
      in_graph[static_cast<size_t>(e.from)] = 1;
      in_graph[static_cast<size_t>(e.to)] = 1;
    }
    for (size_t c = 0; c < n_; ++c) {
      if (in_graph[c] != 0) {
        chosen_[c] = dist[c] - dist[n_];
      }
    }
    edges_ = std::move(trial);
    bounded_ = true;
    Regroup();
    return true;
  }

  std::vector<int64_t>& chosen_;
  const size_t n_;
  const int zero_;
  const std::vector<int64_t> lo_;
  const std::vector<int64_t> hi_;
  const std::vector<std::vector<int>> diseq_;
  std::vector<ClassEdge> edges_;
  const std::vector<uint8_t> pinned_;
  std::vector<ModelApp> apps_;
  const std::vector<std::pair<int, int>> distinct_;
  bool bounded_ = false;  // edges_ holds the class intervals.
  std::vector<int> group_;
  std::vector<std::vector<int>> members_;
  std::vector<uint8_t> movable_;
};

}  // namespace

Theory::Theory() {
  // Term 0 is ZERO, the origin that pins constants in the difference graph.
  AddTerm(nullptr);
}

Theory::~Theory() = default;

// ---------------------------------------------------------------------------
// Registration.
// ---------------------------------------------------------------------------

int Theory::AddTerm(ExprRef t) {
  if (t != nullptr) {
    auto it = term_ids_.find(t);
    if (it != term_ids_.end()) {
      return it->second;
    }
  }
  Term term;
  term.node = t;
  std::vector<int> kids;
  if (t != nullptr) {
    // Boolean arguments take no part in the theory; an application with one
    // is not a congruence candidate.
    bool first_order = !t->args.empty();
    for (ExprRef a : t->args) {
      if (a->sort == Sort::kBool) {
        first_order = false;
      } else {
        kids.push_back(AddTerm(a));
      }
    }
    if (first_order) {
      if (t->kind == Kind::kApp) {
        std::string key = t->name;
        key.push_back('\0');
        key.push_back(static_cast<char>('0' + static_cast<int>(t->sort)));
        auto [it, inserted] =
            fn_ids_.emplace(std::move(key), 64 + static_cast<int>(fn_ids_.size()));
        term.fn = it->second;
      } else {
        term.fn = static_cast<int>(t->kind);
      }
    }
  }
  const int id = static_cast<int>(terms_.size());
  term.arg_begin = static_cast<int>(args_.size());
  term.num_args = static_cast<int>(kids.size());
  args_.insert(args_.end(), kids.begin(), kids.end());
  terms_.push_back(term);
  find_.push_back(id);
  rank_.push_back(0);
  proof_target_.push_back(-1);
  proof_why_.push_back(kNoWhy);
  active_.push_back(0);
  uses_.emplace_back();
  const_of_.push_back(-1);
  pred_of_.push_back(-1);
  potential_.push_back(0);
  out_.emplace_back();
  in_degree_.push_back(0);
  gamma_.push_back(0);
  pred_edge_.push_back(-1);
  dl_seen_.push_back(0);
  dl_done_.push_back(0);
  lo_.push_back(kIntMin);
  hi_.push_back(kIntMax);
  lo_why_.push_back(-1);
  hi_why_.push_back(-1);
  iv_stamp_.push_back(0);
  edge_mark_.push_back(0);
  anc_mark_.push_back(0);
  if (t != nullptr) {
    term_ids_.emplace(t, id);
  }
  return id;
}

int Theory::AddAtom(ExprRef atom) {
  auto it = atom_ids_.find(atom);
  if (it != atom_ids_.end()) {
    return it->second;
  }
  Atom at;
  at.kind = atom->kind;
  switch (atom->kind) {
    case Kind::kEq:
    case Kind::kLt:
    case Kind::kLe:
      at.a = AddTerm(atom->args[0]);
      at.b = AddTerm(atom->args[1]);
      at.is_int = atom->args[0]->sort == Sort::kInt;
      break;
    case Kind::kApp:
      // Boolean predicates are terms too, so that p(x) and p(y) with x = y
      // are congruent and must agree.
      at.a = AddTerm(atom);
      break;
    default:
      atom_ids_.emplace(atom, -1);
      return -1;
  }
  const int id = static_cast<int>(atoms_.size());
  atoms_.push_back(at);
  atom_mark_.push_back(0);
  if (atom->kind == Kind::kApp) {
    terms_[static_cast<size_t>(at.a)].atom = id;
  }
  atom_ids_.emplace(atom, id);
  return id;
}

// ---------------------------------------------------------------------------
// Assertion and undo.
// ---------------------------------------------------------------------------

bool Theory::Assert(int atom, bool truth) {
  Atom& at = atoms_[static_cast<size_t>(atom)];
  at.truth = truth;
  switch (at.kind) {
    case Kind::kEq:
      if (!Activate(at.a) || !Activate(at.b)) {
        return false;
      }
      if (truth) {
        pending_.push_back({at.a, at.b, atom});
      } else {
        diseq_atoms_.push_back(atom);
        undo_.push_back({UndoKind::kDiseq, 0, 0});
      }
      break;
    case Kind::kLt:
    case Kind::kLe: {
      if (!Activate(at.a) || !Activate(at.b)) {
        return false;
      }
      if (!at.is_int) {
        break;
      }
      cmp_atoms_.push_back(atom);
      undo_.push_back({UndoKind::kCmp, 0, 0});
      const bool strict = at.kind == Kind::kLt;
      // a < b is a - b <= -1; its negation b <= a is b - a <= 0.
      bool ok = truth ? AddConstraint(at.a, at.b, strict ? -1 : 0, atom, -1, -1)
                      : AddConstraint(at.b, at.a, strict ? 0 : -1, atom, -1, -1);
      if (!ok) {
        return false;
      }
      break;
    }
    case Kind::kApp: {
      if (!Activate(at.a)) {
        return false;
      }
      const int root = Find(at.a);
      const int other = pred_of_[static_cast<size_t>(root)];
      if (other < 0) {
        pred_of_[static_cast<size_t>(root)] = at.a;
        undo_.push_back({UndoKind::kPred, root, -1});
      } else {
        const int other_atom = terms_[static_cast<size_t>(other)].atom;
        if (atoms_[static_cast<size_t>(other_atom)].truth != truth) {
          BeginConflict();
          AddCoreAtom(atom);
          AddCoreAtom(other_atom);
          ExplainEq(at.a, other);
          return false;
        }
      }
      break;
    }
    default:
      break;
  }
  return ProcessPending();
}

void Theory::Undo(size_t mark) {
  pending_.clear();
  while (undo_.size() > mark) {
    const UndoEntry e = undo_.back();
    undo_.pop_back();
    switch (e.kind) {
      case UndoKind::kActivate:
        active_[static_cast<size_t>(e.a)] = 0;
        active_list_.pop_back();
        const_of_[static_cast<size_t>(e.a)] = -1;
        break;
      case UndoKind::kInsert: {
        if (e.b != 0) {
          SigErase(e.a);
        }
        const Term& term = terms_[static_cast<size_t>(e.a)];
        for (int i = term.num_args - 1; i >= 0; --i) {
          uses_[static_cast<size_t>(Find(Arg(e.a, i)))].pop_back();
        }
        break;
      }
      case UndoKind::kMerge: {
        const MergeRecord rec = merges_.back();
        merges_.pop_back();
        for (size_t i = rec.reinserted_begin; i < rec.reinserted_end; ++i) {
          SigErase(undo_terms_[i]);
        }
        const auto root = static_cast<size_t>(rec.root);
        const_of_[root] = rec.old_const;
        pred_of_[root] = rec.old_pred;
        uses_[root].resize(rec.uses_len);
        if (rec.rank_bumped) {
          --rank_[root];
        }
        find_[static_cast<size_t>(rec.child)] = rec.child;
        // Later re-rootings may have flipped the edge; cut it at whichever
        // end now stores it. Both halves stay valid trees.
        int cut = rec.proof_a;
        if (proof_target_[static_cast<size_t>(cut)] != rec.proof_b) {
          cut = rec.proof_b;
          ICARUS_REQUIRE_MSG(proof_target_[static_cast<size_t>(cut)] == rec.proof_a,
                             "proof-forest edge lost before its merge was undone");
        }
        proof_target_[static_cast<size_t>(cut)] = -1;
        proof_why_[static_cast<size_t>(cut)] = kNoWhy;
        for (size_t i = rec.erased_begin; i < rec.reinserted_begin; ++i) {
          SigInsert(undo_terms_[i]);
        }
        undo_terms_.resize(rec.erased_begin);
        break;
      }
      case UndoKind::kEdge:
        out_[static_cast<size_t>(edges_.back().from)].pop_back();
        --in_degree_[static_cast<size_t>(edges_.back().to)];
        edges_.pop_back();
        break;
      case UndoKind::kCmp:
        cmp_atoms_.pop_back();
        break;
      case UndoKind::kDiseq:
        diseq_atoms_.pop_back();
        break;
      case UndoKind::kPred:
        pred_of_[static_cast<size_t>(e.a)] = e.b;
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Congruence closure.
// ---------------------------------------------------------------------------

int Theory::Find(int t) const {
  while (find_[static_cast<size_t>(t)] != t) {
    t = find_[static_cast<size_t>(t)];
  }
  return t;
}

// Makes `t` and its subterms active: pushes it in pre-order (the order the
// model lists classes in), adds the difference axioms of constants and of
// +/- by a constant, and enters applications into the use lists and the
// signature table (a congruent partner becomes a pending merge).
bool Theory::Activate(int t) {
  const auto ti = static_cast<size_t>(t);
  if (active_[ti] != 0) {
    return true;
  }
  active_[ti] = 1;
  active_list_.push_back(t);
  undo_.push_back({UndoKind::kActivate, t, 0});
  ExprRef n = terms_[ti].node;
  if (n->kind == Kind::kConstInt) {
    const_of_[ti] = t;
  }
  const int num_args = terms_[ti].num_args;
  for (int i = 0; i < num_args; ++i) {
    if (!Activate(Arg(t, i))) {
      return false;
    }
  }
  if (n->kind == Kind::kConstInt) {
    const __int128 c = n->value;
    if (!AddConstraint(t, kZero, c, -1, -1, -1) || !AddConstraint(kZero, t, -c, -1, -1, -1)) {
      return false;
    }
  }
  // The pool puts the constant of x +/- c on the right.
  if ((n->kind == Kind::kAdd || n->kind == Kind::kSub) && num_args == 2 &&
      n->args[1]->kind == Kind::kConstInt) {
    const __int128 c = n->kind == Kind::kAdd ? static_cast<__int128>(n->args[1]->value)
                                             : -static_cast<__int128>(n->args[1]->value);
    const int x = Arg(t, 0);
    if (!AddConstraint(t, x, c, -1, -1, -1) || !AddConstraint(x, t, -c, -1, -1, -1)) {
      return false;
    }
  }
  if (terms_[ti].fn >= 0) {
    for (int i = 0; i < num_args; ++i) {
      uses_[static_cast<size_t>(Find(Arg(t, i)))].push_back(t);
    }
    const int q = SigLookup(t);
    if (q < 0) {
      SigInsert(t);
    } else if (Find(q) != Find(t)) {
      pending_.push_back({t, q, kCongruence});
    }
    undo_.push_back({UndoKind::kInsert, t, q < 0 ? 1 : 0});
  }
  return true;
}

bool Theory::ProcessPending() {
  while (!pending_.empty()) {
    const Pending p = pending_.back();
    pending_.pop_back();
    if (!Merge(p.x, p.y, p.why)) {
      pending_.clear();
      return false;
    }
  }
  return true;
}

// Merges the classes of x and y because of `why` (an atom, or kCongruence
// for two applications with equal signatures). The proof forest gains the
// edge x — y, labelled with `why`.
bool Theory::Merge(int x, int y, int why) {
  int rx = Find(x);
  int ry = Find(y);
  if (rx == ry) {
    return true;
  }
  if (rank_[static_cast<size_t>(rx)] > rank_[static_cast<size_t>(ry)]) {
    std::swap(x, y);
    std::swap(rx, ry);
  }
  const auto cx = static_cast<size_t>(rx);
  const auto cy = static_cast<size_t>(ry);
  Reroot(x);
  proof_target_[static_cast<size_t>(x)] = y;
  proof_why_[static_cast<size_t>(x)] = why;

  MergeRecord rec;
  rec.child = rx;
  rec.root = ry;
  rec.proof_a = x;
  rec.proof_b = y;
  rec.rank_bumped = rank_[cx] == rank_[cy];
  rec.uses_len = uses_[cy].size();
  rec.old_const = const_of_[cy];
  rec.old_pred = pred_of_[cy];
  // Applications over the child class change signature: take them out of
  // the table, union, and put them back, collecting congruences.
  rec.erased_begin = undo_terms_.size();
  for (int p : uses_[cx]) {
    if (SigLookup(p) == p) {
      SigErase(p);
      undo_terms_.push_back(p);
    }
  }
  rec.reinserted_begin = undo_terms_.size();
  find_[cx] = ry;
  if (rec.rank_bumped) {
    ++rank_[cy];
  }
  uses_[cy].insert(uses_[cy].end(), uses_[cx].begin(), uses_[cx].end());
  for (size_t i = rec.erased_begin; i < rec.reinserted_begin; ++i) {
    const int p = undo_terms_[i];
    const int q = SigLookup(p);
    if (q < 0) {
      SigInsert(p);
      undo_terms_.push_back(p);
    } else if (Find(q) != Find(p)) {
      pending_.push_back({p, q, kCongruence});
    }
  }
  rec.reinserted_end = undo_terms_.size();
  if (const_of_[cy] < 0) {
    const_of_[cy] = const_of_[cx];
  }
  if (pred_of_[cy] < 0) {
    pred_of_[cy] = pred_of_[cx];
  }
  merges_.push_back(rec);
  undo_.push_back({UndoKind::kMerge, 0, 0});

  const int kx = const_of_[cx];
  const int ky = rec.old_const;
  if (kx >= 0 && ky >= 0 &&
      terms_[static_cast<size_t>(kx)].node->value != terms_[static_cast<size_t>(ky)].node->value) {
    BeginConflict();
    ExplainEq(kx, ky);
    return false;
  }
  const int px = pred_of_[cx];
  const int py = rec.old_pred;
  if (px >= 0 && py >= 0) {
    const int ax = terms_[static_cast<size_t>(px)].atom;
    const int ay = terms_[static_cast<size_t>(py)].atom;
    if (atoms_[static_cast<size_t>(ax)].truth != atoms_[static_cast<size_t>(ay)].truth) {
      BeginConflict();
      AddCoreAtom(ax);
      AddCoreAtom(ay);
      ExplainEq(px, py);
      return false;
    }
  }
  if (IsInt(x) && IsInt(y)) {
    // Equal integers differ by 0 both ways; the proof edge is the reason.
    return AddConstraint(x, y, 0, -1, x, y) && AddConstraint(y, x, 0, -1, x, y);
  }
  return true;
}

// Reverses the proof-forest path from `t` to its root, making `t` the root.
void Theory::Reroot(int t) {
  int prev = -1;
  int prev_why = kNoWhy;
  int cur = t;
  while (cur >= 0) {
    const auto c = static_cast<size_t>(cur);
    const int next = proof_target_[c];
    const int why = proof_why_[c];
    proof_target_[c] = prev;
    proof_why_[c] = prev_why;
    prev = cur;
    prev_why = why;
    cur = next;
  }
}

uint64_t Theory::SigHash(int t) const {
  const Term& term = terms_[static_cast<size_t>(t)];
  uint64_t h = static_cast<uint64_t>(term.fn) * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(term.num_args);
  for (int i = 0; i < term.num_args; ++i) {
    h ^= static_cast<uint64_t>(Find(Arg(t, i))) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool Theory::SigEqual(int t, int u) const {
  const Term& a = terms_[static_cast<size_t>(t)];
  const Term& b = terms_[static_cast<size_t>(u)];
  if (a.fn != b.fn || a.num_args != b.num_args) {
    return false;
  }
  for (int i = 0; i < a.num_args; ++i) {
    if (Find(Arg(t, i)) != Find(Arg(u, i))) {
      return false;
    }
  }
  return true;
}

int Theory::SigLookup(int t) const {
  if (sig_slots_.empty()) {
    return -1;
  }
  const uint64_t h = SigHash(t);
  const size_t mask = sig_slots_.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    const SigSlot& s = sig_slots_[i];
    if (s.term < 0) {
      return -1;
    }
    if (s.hash == h && SigEqual(s.term, t)) {
      return s.term;
    }
  }
}

void Theory::SigInsert(int t) {
  if ((sig_count_ + 1) * 2 > sig_slots_.size()) {
    SigGrow();
  }
  const uint64_t h = SigHash(t);
  const size_t mask = sig_slots_.size() - 1;
  size_t i = h & mask;
  while (sig_slots_[i].term >= 0) {
    i = (i + 1) & mask;
  }
  sig_slots_[i] = {h, t};
  ++sig_count_;
}

// Linear-probing delete with backward shift (no tombstones).
void Theory::SigErase(int t) {
  const uint64_t h = SigHash(t);
  const size_t mask = sig_slots_.size() - 1;
  size_t i = h & mask;
  while (sig_slots_[i].term != t) {
    ICARUS_REQUIRE_MSG(sig_slots_[i].term >= 0, "signature table lost an entry");
    i = (i + 1) & mask;
  }
  for (size_t j = (i + 1) & mask; sig_slots_[j].term >= 0; j = (j + 1) & mask) {
    const size_t home = sig_slots_[j].hash & mask;
    const bool stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
    if (!stays) {
      sig_slots_[i] = sig_slots_[j];
      i = j;
    }
  }
  sig_slots_[i].term = -1;
  --sig_count_;
}

void Theory::SigGrow() {
  std::vector<SigSlot> old = std::move(sig_slots_);
  sig_slots_.assign(std::max<size_t>(16, old.size() * 2), SigSlot{0, -1});
  const size_t mask = sig_slots_.size() - 1;
  for (const SigSlot& s : old) {
    if (s.term < 0) {
      continue;
    }
    size_t i = s.hash & mask;
    while (sig_slots_[i].term >= 0) {
      i = (i + 1) & mask;
    }
    sig_slots_[i] = s;
  }
}

// ---------------------------------------------------------------------------
// Difference logic.
// ---------------------------------------------------------------------------

// Adds x - y <= w (the edge y -> x of weight w). The potential function
// stays feasible (potential[to] - potential[from] <= w on every edge), so a
// violated new edge is repaired by raising its tail when nothing enters the
// tail (raising it only slackens its other edges), and otherwise by a
// Dijkstra pass over reduced costs from its head; reaching the tail again
// closes a negative cycle, whose edges are the conflict.
bool Theory::AddConstraint(int x, int y, __int128 w, int atom, int eq_a, int eq_b) {
  const int from = y;
  const int to = x;
  const int id = static_cast<int>(edges_.size());
  edges_.push_back({from, to, w, atom, eq_a, eq_b});
  out_[static_cast<size_t>(from)].push_back(id);
  ++in_degree_[static_cast<size_t>(to)];
  undo_.push_back({UndoKind::kEdge, 0, 0});
  if (potential_[static_cast<size_t>(to)] - potential_[static_cast<size_t>(from)] <= w) {
    return true;
  }
  if (in_degree_[static_cast<size_t>(from)] == 0) {
    potential_[static_cast<size_t>(from)] = potential_[static_cast<size_t>(to)] - w;
    return true;
  }
  NextStamp(&dl_stamp_, {&dl_seen_, &dl_done_});
  auto later = [](const std::pair<__int128, int>& a, const std::pair<__int128, int>& b) {
    return a.first > b.first;
  };
  heap_.clear();
  dl_touched_.clear();
  const auto t0 = static_cast<size_t>(to);
  gamma_[t0] = potential_[static_cast<size_t>(from)] + w - potential_[t0];
  pred_edge_[t0] = id;
  dl_seen_[t0] = dl_stamp_;
  heap_.emplace_back(gamma_[t0], to);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [g, u] = heap_.back();
    heap_.pop_back();
    const auto ui = static_cast<size_t>(u);
    if (dl_done_[ui] == dl_stamp_ || g != gamma_[ui]) {
      continue;
    }
    dl_done_[ui] = dl_stamp_;
    dl_touched_.push_back(u);
    const __int128 pu = potential_[ui] + g;
    for (int e : out_[ui]) {
      const Edge& edge = edges_[static_cast<size_t>(e)];
      const auto vi = static_cast<size_t>(edge.to);
      const __int128 cand = pu + edge.w - potential_[vi];
      if (cand >= 0) {
        continue;
      }
      if (edge.to == from) {
        BeginConflict();
        ExplainEdge(e);
        for (int v = u;;) {
          const int pe = pred_edge_[static_cast<size_t>(v)];
          ExplainEdge(pe);
          if (pe == id) {
            break;
          }
          v = edges_[static_cast<size_t>(pe)].from;
        }
        return false;
      }
      if (dl_done_[vi] == dl_stamp_) {
        continue;
      }
      if (dl_seen_[vi] != dl_stamp_ || cand < gamma_[vi]) {
        dl_seen_[vi] = dl_stamp_;
        gamma_[vi] = cand;
        pred_edge_[vi] = e;
        heap_.emplace_back(cand, edge.to);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  for (int u : dl_touched_) {
    potential_[static_cast<size_t>(u)] += gamma_[static_cast<size_t>(u)];
  }
  return true;
}

// ---------------------------------------------------------------------------
// The final check: disequalities and the interval fixpoint.
// ---------------------------------------------------------------------------

bool Theory::Check() {
  for (int atom : diseq_atoms_) {
    const Atom& at = atoms_[static_cast<size_t>(atom)];
    if (Find(at.a) == Find(at.b)) {
      BeginConflict();
      AddCoreAtom(atom);
      ExplainEq(at.a, at.b);
      return false;
    }
  }
  if (!PropagateIntervals()) {
    return false;
  }
  // Two classes pinned to the same single value cannot be disequal.
  for (int atom : diseq_atoms_) {
    const Atom& at = atoms_[static_cast<size_t>(atom)];
    if (!at.is_int) {
      continue;
    }
    if (Lo(at.a) == Hi(at.a) && Lo(at.b) == Hi(at.b) && Lo(at.a) == Lo(at.b)) {
      BeginConflict();
      AddCoreAtom(atom);
      for (const Ante& ante : {LoAnte(at.a), HiAnte(at.a), LoAnte(at.b), HiAnte(at.b)}) {
        ExplainAnte(ante);
      }
      return false;
    }
  }
  return true;
}

void Theory::EnsureIv(int root) {
  const auto r = static_cast<size_t>(root);
  if (iv_stamp_[r] != iv_epoch_) {
    iv_stamp_[r] = iv_epoch_;
    lo_[r] = kIntMin;
    hi_[r] = kIntMax;
    lo_why_[r] = -1;
    hi_why_[r] = -1;
  }
}

int64_t Theory::Lo(int t) {
  const int r = Find(t);
  EnsureIv(r);
  return lo_[static_cast<size_t>(r)];
}

int64_t Theory::Hi(int t) {
  const int r = Find(t);
  EnsureIv(r);
  return hi_[static_cast<size_t>(r)];
}

Theory::Ante Theory::LoAnte(int t) {
  const int r = Find(t);
  EnsureIv(r);
  return {lo_why_[static_cast<size_t>(r)], t, -1};
}

Theory::Ante Theory::HiAnte(int t) {
  const int r = Find(t);
  EnsureIv(r);
  return {hi_why_[static_cast<size_t>(r)], t, -1};
}

int Theory::NewBound(int anchor, int atom, std::initializer_list<Ante> antes,
                     const std::vector<Ante>* extra) {
  Bound b;
  b.anchor = anchor;
  b.atom = atom;
  b.ante_begin = static_cast<int>(antes_.size());
  for (const Ante& a : antes) {
    if (a.rec >= 0 || a.b >= 0) {
      antes_.push_back(a);
    }
  }
  if (extra != nullptr) {
    antes_.insert(antes_.end(), extra->begin(), extra->end());
  }
  b.ante_end = static_cast<int>(antes_.size());
  bounds_.push_back(b);
  return static_cast<int>(bounds_.size()) - 1;
}

bool Theory::TightenLo(int t, int64_t v, int atom, std::initializer_list<Ante> antes,
                       const std::vector<Ante>* extra) {
  const int r = Find(t);
  EnsureIv(r);
  if (v <= lo_[static_cast<size_t>(r)]) {
    return false;
  }
  const int rec = NewBound(t, atom, antes, extra);
  lo_[static_cast<size_t>(r)] = v;
  lo_why_[static_cast<size_t>(r)] = rec;
  return true;
}

bool Theory::TightenHi(int t, int64_t v, int atom, std::initializer_list<Ante> antes,
                       const std::vector<Ante>* extra) {
  const int r = Find(t);
  EnsureIv(r);
  if (v >= hi_[static_cast<size_t>(r)]) {
    return false;
  }
  const int rec = NewBound(t, atom, antes, extra);
  hi_[static_cast<size_t>(r)] = v;
  hi_why_[static_cast<size_t>(r)] = rec;
  return true;
}

bool Theory::IvEmpty(int t) { return Lo(t) > Hi(t); }

bool Theory::IvFail(int t) {
  BeginConflict();
  ExplainAnte(LoAnte(t));
  ExplainAnte(HiAnte(t));
  return false;
}

// True when the divisor of kDiv/kMod term `t` is provably nonzero: its
// interval excludes 0, or a disequality literal separates its class from a
// class that is 0. `why` receives the reason; `*atom` the disequality used.
bool Theory::DivisorNonzero(int t, std::vector<Ante>* why, int* atom) {
  why->clear();
  *atom = -1;
  const int d = Arg(t, 1);
  if (Lo(d) > 0) {
    why->push_back(LoAnte(d));
    return true;
  }
  if (Hi(d) < 0) {
    why->push_back(HiAnte(d));
    return true;
  }
  const int cls = Find(d);
  auto zero = [&](int term) {
    const int k = const_of_[static_cast<size_t>(Find(term))];
    if (k >= 0) {
      if (terms_[static_cast<size_t>(k)].node->value != 0) {
        return false;
      }
      why->push_back({-1, term, k});
      return true;
    }
    if (Lo(term) == 0 && Hi(term) == 0) {
      why->push_back(LoAnte(term));
      why->push_back(HiAnte(term));
      return true;
    }
    return false;
  };
  for (int a : diseq_atoms_) {
    const Atom& at = atoms_[static_cast<size_t>(a)];
    if (!at.is_int) {
      continue;
    }
    // `side` is the disequality's argument in the divisor's class.
    int side = -1;
    if (Find(at.a) == cls && zero(at.b)) {
      side = at.a;
    } else if (Find(at.b) == cls && zero(at.a)) {
      side = at.b;
    }
    if (side >= 0) {
      why->push_back({-1, d, side});
      *atom = a;
      return true;
    }
  }
  return false;
}

// Interval propagation to a fixpoint (at most kIntervalRounds rounds) over
// the classes of the active terms: constants, comparison literals,
// disequalities against a pinned class, and the arithmetic structure of the
// active terms in both directions. Every tightened bound records the
// literals and bounds it was derived from, so an empty interval explains
// itself.
bool Theory::PropagateIntervals() {
  NextStamp(&iv_epoch_, {&iv_stamp_});
  bounds_.clear();
  antes_.clear();
  for (int t : active_list_) {
    ExprRef n = terms_[static_cast<size_t>(t)].node;
    if (n->kind != Kind::kConstInt) {
      continue;
    }
    TightenLo(t, n->value, -1, {});
    TightenHi(t, n->value, -1, {});
    if (IvEmpty(t)) {
      return IvFail(t);
    }
  }
  std::vector<Ante>& why = div_why_;
  for (int round = 0; round < kIntervalRounds; ++round) {
    bool changed = false;
    for (int atom : cmp_atoms_) {
      const Atom& at = atoms_[static_cast<size_t>(atom)];
      const int a = at.a;
      const int b = at.b;
      const bool strict = at.kind == Kind::kLt;
      if (at.truth) {
        // a < b (or a <= b).
        const int off = strict ? 1 : 0;
        changed |= TightenHi(a, SatAdd(Hi(b), -off), atom, {HiAnte(b)});
        changed |= TightenLo(b, SatAdd(Lo(a), off), atom, {LoAnte(a)});
      } else {
        // !(a < b) is b <= a; !(a <= b) is b < a.
        const int off = strict ? 0 : 1;
        changed |= TightenHi(b, SatAdd(Hi(a), -off), atom, {HiAnte(a)});
        changed |= TightenLo(a, SatAdd(Lo(b), off), atom, {LoAnte(b)});
      }
      if (IvEmpty(a)) {
        return IvFail(a);
      }
      if (IvEmpty(b)) {
        return IvFail(b);
      }
    }
    // x != c tightens x's interval when c sits exactly on an endpoint (this
    // is what turns the compiler's "bail if lhs == INT_MIN" guard into a
    // usable bound).
    for (int atom : diseq_atoms_) {
      const Atom& at = atoms_[static_cast<size_t>(atom)];
      if (!at.is_int) {
        continue;
      }
      int x = -1;
      int pinned = -1;
      if (Lo(at.a) == Hi(at.a)) {
        x = at.b;
        pinned = at.a;
      } else if (Lo(at.b) == Hi(at.b)) {
        x = at.a;
        pinned = at.b;
      }
      if (x >= 0) {
        const int64_t c = Lo(pinned);
        if (Lo(x) == c) {
          changed |= TightenLo(x, Step(c, 1), atom,
                               {LoAnte(x), LoAnte(pinned), HiAnte(pinned)});
        }
        if (Hi(x) == c) {
          changed |= TightenHi(x, Step(c, -1), atom,
                               {HiAnte(x), LoAnte(pinned), HiAnte(pinned)});
        }
      }
      if (IvEmpty(at.a)) {
        return IvFail(at.a);
      }
      if (IvEmpty(at.b)) {
        return IvFail(at.b);
      }
    }
    // Arithmetic structure: a node's class interval against its children's.
    for (int t : active_list_) {
      const Term& term = terms_[static_cast<size_t>(t)];
      const Kind kind = term.node->kind;
      int64_t lo = 0;
      int64_t hi = 0;
      int atom = -1;
      const int a = term.num_args > 0 ? Arg(t, 0) : -1;
      const int b = term.num_args > 1 ? Arg(t, 1) : -1;
      switch (kind) {
        case Kind::kAdd:
          lo = SatAdd(Lo(a), Lo(b));
          hi = SatAdd(Hi(a), Hi(b));
          changed |= TightenLo(t, lo, -1, {LoAnte(a), LoAnte(b)});
          changed |= TightenHi(t, hi, -1, {HiAnte(a), HiAnte(b)});
          break;
        case Kind::kSub:
          lo = SatAdd(Lo(a), Neg(Hi(b)));
          hi = SatAdd(Hi(a), Neg(Lo(b)));
          changed |= TightenLo(t, lo, -1, {LoAnte(a), HiAnte(b)});
          changed |= TightenHi(t, hi, -1, {HiAnte(a), LoAnte(b)});
          break;
        case Kind::kMul: {
          const int64_t c1 = SatMul(Lo(a), Lo(b));
          const int64_t c2 = SatMul(Lo(a), Hi(b));
          const int64_t c3 = SatMul(Hi(a), Lo(b));
          const int64_t c4 = SatMul(Hi(a), Hi(b));
          lo = std::min(std::min(c1, c2), std::min(c3, c4));
          hi = std::max(std::max(c1, c2), std::max(c3, c4));
          const Ante all[4] = {LoAnte(a), HiAnte(a), LoAnte(b), HiAnte(b)};
          changed |= TightenLo(t, lo, -1, {all[0], all[1], all[2], all[3]});
          changed |= TightenHi(t, hi, -1, {all[0], all[1], all[2], all[3]});
          break;
        }
        case Kind::kNeg:
          lo = Neg(Hi(a));
          hi = Neg(Lo(a));
          changed |= TightenLo(t, lo, -1, {HiAnte(a)});
          changed |= TightenHi(t, hi, -1, {LoAnte(a)});
          break;
        case Kind::kDiv: {
          // Truncating division with a provably nonzero divisor satisfies
          // |a/b| <= |a|. (With a possibly-zero divisor the term stays
          // unconstrained, matching SMT-LIB's arbitrary div-by-zero.)
          if (!DivisorNonzero(t, &why, &atom)) {
            continue;
          }
          const int64_t m = std::max(Abs(Lo(a)), Abs(Hi(a)));
          const Ante ea = LoAnte(a);
          const Ante eb = HiAnte(a);
          changed |= TightenLo(t, Neg(m), atom, {ea, eb}, &why);
          changed |= TightenHi(t, m, atom, {ea, eb}, &why);
          break;
        }
        case Kind::kMod: {
          if (!DivisorNonzero(t, &why, &atom)) {
            continue;
          }
          const int64_t ma = std::max(Abs(Lo(a)), Abs(Hi(a)));
          const int64_t mb = std::max(Abs(Lo(b)), Abs(Hi(b)));
          const int64_t m = std::min(ma, mb > 0 ? mb - 1 : 0);
          const Ante all[4] = {LoAnte(a), HiAnte(a), LoAnte(b), HiAnte(b)};
          changed |= TightenLo(t, Neg(m), atom, {all[0], all[1], all[2], all[3]}, &why);
          changed |= TightenHi(t, m, atom, {all[0], all[1], all[2], all[3]}, &why);
          break;
        }
        default:
          continue;
      }
      if (IvEmpty(t)) {
        return IvFail(t);
      }
      // Backward propagation for Add/Sub/Neg (exact inverses). All
      // arguments, so both ends of a child's new interval, are evaluated
      // before either end is applied.
      auto narrow = [&](int child, int64_t new_lo, Ante lo1, Ante lo2, int64_t new_hi, Ante hi1,
                        Ante hi2) {
        changed |= TightenLo(child, new_lo, -1, {lo1, lo2});
        changed |= TightenHi(child, new_hi, -1, {hi1, hi2});
      };
      const Ante none{-1, -1, -1};
      if (kind == Kind::kAdd) {
        narrow(a, SatAdd(Lo(t), Neg(Hi(b))), LoAnte(t), HiAnte(b), SatAdd(Hi(t), Neg(Lo(b))),
               HiAnte(t), LoAnte(b));
        narrow(b, SatAdd(Lo(t), Neg(Hi(a))), LoAnte(t), HiAnte(a), SatAdd(Hi(t), Neg(Lo(a))),
               HiAnte(t), LoAnte(a));
      } else if (kind == Kind::kSub) {
        narrow(a, SatAdd(Lo(t), Lo(b)), LoAnte(t), LoAnte(b), SatAdd(Hi(t), Hi(b)), HiAnte(t),
               HiAnte(b));
        narrow(b, SatAdd(Lo(a), Neg(Hi(t))), LoAnte(a), HiAnte(t), SatAdd(Hi(a), Neg(Lo(t))),
               HiAnte(a), LoAnte(t));
      } else if (kind == Kind::kNeg) {
        narrow(a, Neg(Hi(t)), HiAnte(t), none, Neg(Lo(t)), LoAnte(t), none);
      }
      for (int i = 0; i < term.num_args; ++i) {
        if (IvEmpty(Arg(t, i))) {
          return IvFail(Arg(t, i));
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Conflict explanation.
// ---------------------------------------------------------------------------

void Theory::BeginConflict() {
  conflict_.clear();
  bound_mark_.assign(bounds_.size(), 0);
  NextStamp(&conflict_stamp_, {&atom_mark_, &edge_mark_});
}

void Theory::AddCoreAtom(int atom) {
  uint32_t& mark = atom_mark_[static_cast<size_t>(atom)];
  if (mark != conflict_stamp_) {
    mark = conflict_stamp_;
    conflict_.push_back(atom);
  }
}

// Adds the literals behind a = b: the labels on the proof-forest path
// between them, a congruence label expanding to its argument pairs.
void Theory::ExplainEq(int a, int b) {
  eq_work_.emplace_back(a, b);
  while (!eq_work_.empty()) {
    const auto [x, y] = eq_work_.back();
    eq_work_.pop_back();
    if (x == y) {
      continue;
    }
    NextStamp(&anc_stamp_, {&anc_mark_});
    for (int u = x; u >= 0; u = proof_target_[static_cast<size_t>(u)]) {
      anc_mark_[static_cast<size_t>(u)] = anc_stamp_;
    }
    int lca = y;
    while (anc_mark_[static_cast<size_t>(lca)] != anc_stamp_) {
      lca = proof_target_[static_cast<size_t>(lca)];
      ICARUS_REQUIRE_MSG(lca >= 0, "explaining an equality between different classes");
    }
    for (int start : {x, y}) {
      for (int u = start; u != lca; u = proof_target_[static_cast<size_t>(u)]) {
        const auto ui = static_cast<size_t>(u);
        if (edge_mark_[ui] == conflict_stamp_) {
          continue;
        }
        edge_mark_[ui] = conflict_stamp_;
        const int why = proof_why_[ui];
        if (why >= 0) {
          AddCoreAtom(why);
        } else {
          const int v = proof_target_[ui];
          for (int i = 0; i < terms_[ui].num_args; ++i) {
            eq_work_.emplace_back(Arg(u, i), Arg(v, i));
          }
        }
      }
    }
  }
}

void Theory::ExplainEdge(int e) {
  const Edge& edge = edges_[static_cast<size_t>(e)];
  if (edge.atom >= 0) {
    AddCoreAtom(edge.atom);
  }
  if (edge.eq_a >= 0) {
    ExplainEq(edge.eq_a, edge.eq_b);
  }
}

void Theory::ExplainAnte(const Ante& ante) {
  if (ante.rec >= 0) {
    ExplainEq(ante.a, bounds_[static_cast<size_t>(ante.rec)].anchor);
    ExplainBound(ante.rec);
  } else if (ante.b >= 0) {
    ExplainEq(ante.a, ante.b);
  }
}

// Walks the reason DAG below bound record `rec`.
void Theory::ExplainBound(int rec) {
  std::vector<int> stack = {rec};
  while (!stack.empty()) {
    const int r = stack.back();
    stack.pop_back();
    if (bound_mark_[static_cast<size_t>(r)] != 0) {
      continue;
    }
    bound_mark_[static_cast<size_t>(r)] = 1;
    const Bound& b = bounds_[static_cast<size_t>(r)];
    if (b.atom >= 0) {
      AddCoreAtom(b.atom);
    }
    for (int i = b.ante_begin; i < b.ante_end; ++i) {
      const Ante& ante = antes_[static_cast<size_t>(i)];
      if (ante.rec >= 0) {
        ExplainEq(ante.a, bounds_[static_cast<size_t>(ante.rec)].anchor);
        stack.push_back(ante.rec);
      } else if (ante.b >= 0) {
        ExplainEq(ante.a, ante.b);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Model extraction.
// ---------------------------------------------------------------------------

void Theory::BuildModel(Model* model) {
  // Classes of the active terms, in order of their first member.
  std::vector<int> class_of(terms_.size(), -1);
  std::vector<std::vector<int>> classes;
  std::vector<int> roots;
  for (int t : active_list_) {
    const int r = Find(t);
    int& c = class_of[static_cast<size_t>(r)];
    if (c < 0) {
      c = static_cast<int>(classes.size());
      classes.emplace_back();
      roots.push_back(r);
    }
    classes[static_cast<size_t>(c)].push_back(t);
  }
  auto cls = [&](int t) { return class_of[static_cast<size_t>(Find(t))]; };
  const size_t n = classes.size();
  // Disequal classes must receive distinct values.
  std::vector<std::vector<int>> diseq(n);
  for (int atom : diseq_atoms_) {
    const Atom& at = atoms_[static_cast<size_t>(atom)];
    diseq[static_cast<size_t>(cls(at.a))].push_back(cls(at.b));
    diseq[static_cast<size_t>(cls(at.b))].push_back(cls(at.a));
  }
  // Difference constraints between classes (node n is ZERO). Shortest
  // distances from a virtual source satisfy every one of them, strict
  // chains included, so they are the preferred witness.
  std::vector<ClassEdge> edges;
  std::vector<uint8_t> in_graph(n + 1, 0);
  auto constrain = [&](int x, int y, int64_t w) {  // x - y <= w
    edges.push_back({y, x, w});
    in_graph[static_cast<size_t>(x)] = 1;
    in_graph[static_cast<size_t>(y)] = 1;
  };
  const int zero = static_cast<int>(n);
  for (int atom : cmp_atoms_) {
    const Atom& at = atoms_[static_cast<size_t>(atom)];
    const bool strict = at.kind == Kind::kLt;
    if (at.truth) {
      constrain(cls(at.a), cls(at.b), strict ? -1 : 0);
    } else {
      constrain(cls(at.b), cls(at.a), strict ? 0 : -1);
    }
  }
  for (size_t c = 0; c < n; ++c) {
    const int k = const_of_[static_cast<size_t>(roots[c])];
    if (k >= 0) {
      const int64_t v = terms_[static_cast<size_t>(k)].node->value;
      constrain(static_cast<int>(c), zero, v);
      constrain(zero, static_cast<int>(c), Neg(v));
    }
  }
  for (int t : active_list_) {
    ExprRef node = terms_[static_cast<size_t>(t)].node;
    if ((node->kind == Kind::kAdd || node->kind == Kind::kSub) &&
        node->args[1]->kind == Kind::kConstInt) {
      const int64_t c = node->kind == Kind::kAdd ? node->args[1]->value : Neg(node->args[1]->value);
      constrain(cls(t), cls(Arg(t, 0)), c);
      constrain(cls(Arg(t, 0)), cls(t), Neg(c));
    }
  }
  std::vector<uint8_t> has_potential(n, 0);
  std::vector<int64_t> potential(n, 0);
  if (!edges.empty()) {
    const int nodes = static_cast<int>(std::count(in_graph.begin(), in_graph.end(), 1));
    std::vector<int64_t> dist(n + 1, 0);
    for (int round = 0; round < nodes; ++round) {
      bool changed = false;
      for (const ClassEdge& e : edges) {
        const int64_t d = SatAdd(dist[static_cast<size_t>(e.from)], e.w);
        if (d < dist[static_cast<size_t>(e.to)]) {
          dist[static_cast<size_t>(e.to)] = d;
          changed = true;
        }
      }
      if (!changed) {
        break;
      }
    }
    for (size_t c = 0; c < n; ++c) {
      if (in_graph[c] != 0) {
        has_potential[c] = 1;
        potential[c] = dist[c] - dist[n];
      }
    }
  }
  std::vector<int64_t> chosen(n, 0);
  std::vector<uint8_t> is_chosen(n, 0);
  std::vector<int64_t> class_lo(n, kIntMin);
  std::vector<int64_t> class_hi(n, kIntMax);
  int64_t next_individual = 0;
  auto collides = [&](size_t c, int64_t cand) {
    for (int other : diseq[c]) {
      if (is_chosen[static_cast<size_t>(other)] != 0 &&
          chosen[static_cast<size_t>(other)] == cand) {
        return true;
      }
    }
    return false;
  };
  for (size_t c = 0; c < n; ++c) {
    const auto r = static_cast<size_t>(roots[c]);
    if (iv_stamp_[r] == iv_epoch_) {
      class_lo[c] = lo_[r];
      class_hi[c] = hi_[r];
    }
    const int64_t lo = class_lo[c];
    const int64_t hi = class_hi[c];
    int64_t v;
    if (terms_[static_cast<size_t>(classes[c].front())].node->sort == Sort::kTerm) {
      // Uninterpreted individuals: one distinct id per class. Distinct
      // classes of a congruence-closed partition may always differ, and then
      // every application's value is a function of its arguments' values.
      v = next_individual++;
    } else if (const_of_[r] >= 0) {
      v = terms_[static_cast<size_t>(const_of_[r])].node->value;
    } else if (has_potential[c] != 0) {
      v = potential[c];
    } else {
      // Prefer small non-negative witnesses; keep bumping past neighbours
      // that must be distinct.
      v = std::max(lo, std::min<int64_t>(0, hi));
      while (collides(c, v) && v < hi) {
        ++v;
      }
      while (collides(c, v) && v > lo) {
        --v;
      }
    }
    chosen[c] = v;
    is_chosen[c] = 1;
  }
  // Repair what the values above can break: a potential ignores
  // disequalities, and independently valued classes can give applications
  // of one symbol equal arguments but different results (g(x) != g(y) would
  // get x = y = 0), which is not a function and does not replay. Classes
  // under arithmetic other than `x +/- c` keep their values, as do the
  // classes of other sorts.
  std::vector<uint8_t> pinned(n, 0);
  std::vector<ModelApp> apps;
  for (int t : active_list_) {
    const Term& term = terms_[static_cast<size_t>(t)];
    if (term.fn < 0) {
      continue;
    }
    ExprRef node = term.node;
    if (node->kind == Kind::kApp) {
      ModelApp app;
      app.fn = term.fn;
      if (node->sort == Sort::kBool) {
        if (term.atom < 0) {
          continue;
        }
        app.truth = atoms_[static_cast<size_t>(term.atom)].truth ? 1 : 0;
      } else {
        app.result = cls(t);
      }
      for (int i = 0; i < term.num_args; ++i) {
        app.args.push_back(cls(Arg(t, i)));
      }
      apps.push_back(std::move(app));
    } else if (!((node->kind == Kind::kAdd || node->kind == Kind::kSub) &&
                 node->args[1]->kind == Kind::kConstInt)) {
      pinned[static_cast<size_t>(cls(t))] = 1;
      for (int i = 0; i < term.num_args; ++i) {
        pinned[static_cast<size_t>(cls(Arg(t, i)))] = 1;
      }
    }
  }
  for (size_t c = 0; c < n; ++c) {
    if (terms_[static_cast<size_t>(classes[c].front())].node->sort != Sort::kInt) {
      pinned[c] = 1;
    }
  }
  std::vector<std::pair<int, int>> distinct;
  for (int atom : diseq_atoms_) {
    const Atom& at = atoms_[static_cast<size_t>(atom)];
    distinct.emplace_back(cls(at.a), cls(at.b));
  }
  ModelRepair(&chosen, std::move(class_lo), std::move(class_hi), std::move(diseq),
              std::move(edges), std::move(pinned), std::move(apps), std::move(distinct))
      .Run();
  for (size_t c = 0; c < n; ++c) {
    const int64_t v = chosen[c];
    model->terms.emplace_back(terms_[static_cast<size_t>(classes[c].front())].node, v);
    // Every named variable in the class gets a witness entry — not just the
    // representative — so counterexample reports can show a concrete value
    // for each symbolic input, independent of class structure.
    for (int m : classes[c]) {
      ExprRef node = terms_[static_cast<size_t>(m)].node;
      if (node->kind == Kind::kVar) {
        model->witnesses.push_back(Witness{node->name, node->sort, v});
      }
    }
  }
}

}  // namespace icarus::sym
