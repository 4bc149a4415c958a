#include "query/eval.h"

#include "query/parser.h"
#include "query/planner.h"
#include "query/prepared.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "core/index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/diagnostic.h"
#include "util/numeric.h"
#include "util/thread_pool.h"

namespace itdb {
namespace query {

// Leaves carry their full text; inner nodes just the operator, their
// structure being the tree itself.
std::string PlanNodeLabel(const Query& q) {
  switch (q.kind()) {
    case Query::Kind::kAtom:
      return "ATOM " + q.ToString();
    case Query::Kind::kCmp:
      return "CMP " + q.ToString();
    case Query::Kind::kAnd:
      return "AND";
    case Query::Kind::kOr:
      return "OR";
    case Query::Kind::kNot:
      return "NOT";
    case Query::Kind::kExists:
      return "EXISTS " + q.quantified_var();
  }
  return "?";
}

namespace {

/// Point-in-time reading of the work counters a plan span reports as
/// deltas.  Relaxed loads: the statement, its algebra kernels included,
/// runs on one thread, so before/after differences are exact.
struct CounterSnapshot {
  std::int64_t pairs_candidate = 0;
  std::int64_t pairs_pruned_residue = 0;
  std::int64_t pairs_pruned_hull = 0;
  std::int64_t closures_incremental = 0;
  std::int64_t closures_full = 0;
  std::int64_t tuples_equal_dropped = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

CounterSnapshot SnapshotCounters(const KernelCounters* counters,
                                 const NormalizeCache* cache) {
  CounterSnapshot s;
  if (counters != nullptr) {
    s.pairs_candidate =
        counters->pairs_candidate.load(std::memory_order_relaxed);
    s.pairs_pruned_residue =
        counters->pairs_pruned_residue.load(std::memory_order_relaxed);
    s.pairs_pruned_hull =
        counters->pairs_pruned_hull.load(std::memory_order_relaxed);
    s.closures_incremental =
        counters->closures_incremental.load(std::memory_order_relaxed);
    s.closures_full = counters->closures_full.load(std::memory_order_relaxed);
    s.tuples_equal_dropped =
        counters->tuples_equal_dropped.load(std::memory_order_relaxed);
  }
  if (cache != nullptr) {
    NormalizeCache::Stats stats = cache->stats();
    s.cache_hits = stats.hits;
    s.cache_misses = stats.misses;
  }
  return s;
}

struct Evaluator {
  const Database& db;
  const SortMap& sorts;
  const ActiveDomain& adom;
  /// Its tracer is the plan-span destination; null disables per-node
  /// tracing.
  const AlgebraOptions& algebra;
  /// Planner estimates for the tree being evaluated (keyed by node
  /// address); null or missing nodes simply omit the est_* span args.
  const PlanEstimateMap* estimates = nullptr;
  /// Certified bounds for the tree being evaluated (analysis/absint.h);
  /// null or missing nodes omit the cert_* span args, and unbounded
  /// components omit their arg (absence = unbounded).
  const analysis::CertificateMap* certificates = nullptr;

  Result<GeneralizedRelation> Eval(const Query& q) const;

  /// Whether q's relation has a point, decided without building it: the
  /// chain pull over q stops at the first tuple with a point
  /// (EvalPreparedBoolean).  Records one span, "pull <q>", whose children
  /// are the materialized chain children.
  Result<bool> Nonempty(const Query& q) const;

 private:
  /// What one pull over a chain saw.
  struct Pulled {
    /// The schema of the tuples past the root: the leaf's columns, then
    /// each right child's new ones, in feed order.
    Schema schema;
    std::int64_t outer_pulled = 0;
    std::int64_t candidates_tested = 0;
    bool found = false;
  };

  /// The one chain evaluator.  Materializes the leftmost leaf of q's
  /// left-deep AND chain and the right child of each of its ANDs, in that
  /// order, builds one JoinProbe per AND, and feeds the leaf's tuples
  /// through them depth-first (ChainPull).  A null `sink` stops at the
  /// first tuple past the root that has a point; otherwise q is an AND and
  /// every tuple past the root is appended to *sink.
  Result<Pulled> PullChain(const Query& q,
                           std::vector<GeneralizedTuple>* sink) const;

  Result<GeneralizedRelation> EvalNode(const Query& q) const;
  Result<GeneralizedRelation> EvalAtom(const Query& q) const;
  Result<GeneralizedRelation> EvalCmp(const Query& q) const;
  Result<GeneralizedRelation> EvalNot(const GeneralizedRelation& rel) const;
  Result<GeneralizedRelation> EvalOr(const Query& q) const;
  Result<GeneralizedRelation> ExistsVar(GeneralizedRelation rel,
                                        const std::string& var) const;

  Sort SortOf(const std::string& var) const { return sorts.at(var); }
  DataType TypeOf(const std::string& var) const {
    return SortOf(var) == Sort::kDataInt ? DataType::kInt : DataType::kString;
  }

  /// Reorders (and renames nothing) so columns are sorted by name per kind.
  Result<GeneralizedRelation> Canonical(GeneralizedRelation rel) const;
  /// Extends `rel` with an unconstrained column for each missing variable
  /// in `vars` (temporal: all of Z; data: the active domain of its type).
  Result<GeneralizedRelation> ExtendTo(
      GeneralizedRelation rel, const std::vector<std::string>& vars) const;
  /// The universe relation over exactly `vars`.
  Result<GeneralizedRelation> Universe(
      const std::vector<std::string>& vars) const;
};

Result<GeneralizedRelation> Evaluator::Canonical(
    GeneralizedRelation rel) const {
  std::vector<std::string> temporal = rel.schema().temporal_names();
  std::vector<std::string> data = rel.schema().data_names();
  std::sort(temporal.begin(), temporal.end());
  std::sort(data.begin(), data.end());
  bool sorted = temporal == rel.schema().temporal_names() &&
                data == rel.schema().data_names();
  if (sorted) return rel;
  std::vector<std::string> attrs = std::move(temporal);
  attrs.insert(attrs.end(), data.begin(), data.end());
  return Project(rel, attrs, algebra);
}

Result<GeneralizedRelation> Evaluator::Universe(
    const std::vector<std::string>& vars) const {
  std::vector<std::string> temporal;
  std::vector<std::string> data_names;
  std::vector<DataType> data_types;
  for (const std::string& v : vars) {
    if (SortOf(v) == Sort::kTime) {
      temporal.push_back(v);
    } else {
      data_names.push_back(v);
      data_types.push_back(TypeOf(v));
    }
  }
  std::sort(temporal.begin(), temporal.end());
  std::sort(data_names.begin(), data_names.end());
  // Re-derive types in sorted order.
  for (std::size_t i = 0; i < data_names.size(); ++i) {
    data_types[i] = TypeOf(data_names[i]);
  }
  GeneralizedRelation out(Schema(temporal, data_names, data_types));
  // One tuple per combination of active-domain values for data columns,
  // with every temporal column unconstrained.
  std::vector<Lrp> lrps(temporal.size(), Lrp::Make(0, 1));
  if (data_names.empty()) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(GeneralizedTuple(lrps)));
    return out;
  }
  std::vector<std::size_t> idx(data_names.size(), 0);
  std::vector<const std::vector<Value>*> domains;
  domains.reserve(data_names.size());
  for (std::size_t i = 0; i < data_names.size(); ++i) {
    domains.push_back(&adom.OfType(data_types[i]));
    if (domains.back()->empty()) return out;  // Empty domain: empty universe.
  }
  while (true) {
    std::vector<Value> combo;
    combo.reserve(data_names.size());
    for (std::size_t i = 0; i < data_names.size(); ++i) {
      combo.push_back((*domains[i])[idx[i]]);
    }
    ITDB_RETURN_IF_ERROR(out.AddTuple(GeneralizedTuple(lrps, std::move(combo))));
    int d = static_cast<int>(data_names.size()) - 1;
    while (d >= 0) {
      std::size_t ud = static_cast<std::size_t>(d);
      if (++idx[ud] < domains[ud]->size()) break;
      idx[ud] = 0;
      --d;
    }
    if (d < 0) break;
  }
  return out;
}

Result<GeneralizedRelation> Evaluator::ExtendTo(
    GeneralizedRelation rel, const std::vector<std::string>& vars) const {
  std::vector<std::string> missing;
  for (const std::string& v : vars) {
    if (!rel.schema().FindTemporal(v).has_value() &&
        !rel.schema().FindData(v).has_value()) {
      missing.push_back(v);
    }
  }
  if (missing.empty()) return Canonical(std::move(rel));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation extension, Universe(missing));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation crossed,
                        CrossProduct(rel, extension, algebra));
  return Canonical(std::move(crossed));
}

Result<GeneralizedRelation> Evaluator::EvalAtom(const Query& q) const {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation rel, db.Get(q.relation()));
  const Schema& schema = rel.schema();
  const int m = schema.temporal_arity();
  // Pass 1: constants and successor offsets.
  for (std::size_t i = 0; i < q.args().size(); ++i) {
    const Term& t = q.args()[i];
    int pos = static_cast<int>(i);
    if (pos < m) {
      // Temporal position.
      if (t.kind == Term::Kind::kInt) {
        ITDB_ASSIGN_OR_RETURN(
            rel, SelectTemporal(
                     rel, TemporalCondition{pos, kZeroVar, CmpOp::kEq, t.number},
                     algebra));
      } else if (t.number != 0) {
        // P(..., v + c, ...): the column equals v + c, so the variable's
        // value is column - c.
        ITDB_ASSIGN_OR_RETURN(std::int64_t delta, CheckedSub(0, t.number));
        ITDB_ASSIGN_OR_RETURN(rel, ShiftTemporalColumn(rel, pos, delta));
      }
    } else {
      // Data position.
      if (t.kind == Term::Kind::kString) {
        ITDB_ASSIGN_OR_RETURN(
            rel, SelectData(rel, pos - m, CmpOp::kEq, Value(t.text)));
      } else if (t.kind == Term::Kind::kInt) {
        ITDB_ASSIGN_OR_RETURN(
            rel, SelectData(rel, pos - m, CmpOp::kEq, Value(t.number)));
      }
    }
  }
  // Pass 2: repeated variables force equality selections; remember the
  // first column of each variable.
  std::map<std::string, int> first_position;
  for (std::size_t i = 0; i < q.args().size(); ++i) {
    const Term& t = q.args()[i];
    if (t.kind != Term::Kind::kVariable) continue;
    int pos = static_cast<int>(i);
    auto [it, inserted] = first_position.emplace(t.var, pos);
    if (inserted) continue;
    int prev = it->second;
    if (pos < m) {
      ITDB_ASSIGN_OR_RETURN(
          rel,
          SelectTemporal(rel, TemporalCondition{prev, pos, CmpOp::kEq, 0},
                         algebra));
    } else {
      ITDB_ASSIGN_OR_RETURN(rel,
                            SelectDataEqColumns(rel, prev - m, pos - m));
    }
  }
  // Pass 3: keep the first column of each variable, rename to the variable.
  std::vector<std::string> keep;
  std::vector<std::pair<std::string, std::string>> renames;
  for (const auto& [var, pos] : first_position) {
    const std::string& attr = pos < m ? schema.temporal_name(pos)
                                      : schema.data_name(pos - m);
    keep.push_back(attr);
    renames.emplace_back(attr, var);
  }
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation projected,
                        Project(rel, keep, algebra));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation renamed,
                        Rename(projected, renames));
  return Canonical(std::move(renamed));
}

namespace {

GeneralizedRelation BooleanRelation(bool truth) {
  GeneralizedRelation out((Schema()));
  if (truth) {
    Status s = out.AddTuple(GeneralizedTuple(std::vector<Lrp>{}));
    (void)s;  // Cannot fail: arities match.
  }
  return out;
}

}  // namespace

Result<GeneralizedRelation> Evaluator::EvalCmp(const Query& q) const {
  const Term& l = q.lhs();
  const Term& r = q.rhs();
  const bool l_var = l.kind == Term::Kind::kVariable;
  const bool r_var = r.kind == Term::Kind::kVariable;
  // Ground comparisons.
  if (!l_var && !r_var) {
    if (l.kind == Term::Kind::kString || r.kind == Term::Kind::kString) {
      if (l.kind != r.kind) {
        return Status::InvalidArgument(
            "comparison between a string and an integer constant");
      }
      bool eq = l.text == r.text;
      return BooleanRelation(q.cmp() == CmpOp::kEq ? eq : !eq);
    }
    return BooleanRelation(Holds(l.number, q.cmp(), r.number));
  }
  // Identify the sort from either variable.
  const std::string& probe = l_var ? l.var : r.var;
  if (SortOf(probe) == Sort::kTime) {
    if (l_var && r_var && l.var == r.var) {
      // (v + c1) op (v + c2): ground.
      if (Holds(l.number, q.cmp(), r.number)) return Universe({l.var});
      GeneralizedRelation out(Schema({l.var}, {}, {}));
      return out;
    }
    if (l.kind == Term::Kind::kString || r.kind == Term::Kind::kString) {
      return Status::InvalidArgument(
          "temporal variable compared with a string constant");
    }
    ITDB_ASSIGN_OR_RETURN(GeneralizedRelation universe,
                          l_var && r_var ? Universe({l.var, r.var})
                                         : Universe({probe}));
    auto operand = [&universe](const Term& t) {
      return t.kind == Term::Kind::kVariable
                 ? CmpOperand{*universe.schema().FindTemporal(t.var), t.number}
                 : CmpOperand{kZeroVar, t.number};
    };
    ITDB_ASSIGN_OR_RETURN(TemporalCondition cond,
                          OrientCmp(operand(l), q.cmp(), operand(r)));
    ITDB_ASSIGN_OR_RETURN(GeneralizedRelation selected,
                          SelectTemporal(universe, cond, algebra));
    return Canonical(std::move(selected));
  }
  // Data sort: only = and != are defined.
  if (q.cmp() != CmpOp::kEq && q.cmp() != CmpOp::kNe) {
    return Status::InvalidArgument(
        "order comparison on data-sorted variable \"" + probe + "\"");
  }
  const bool want_equal = q.cmp() == CmpOp::kEq;
  DataType type = TypeOf(probe);
  if (l_var && r_var) {
    GeneralizedRelation out(
        Schema({}, {std::min(l.var, r.var), std::max(l.var, r.var)},
               {type, type}));
    if (l.var == r.var) {
      return Status::InvalidArgument("variable compared with itself");
    }
    for (const Value& a : adom.OfType(type)) {
      for (const Value& b : adom.OfType(type)) {
        if ((a == b) == want_equal) {
          ITDB_RETURN_IF_ERROR(
              out.AddTuple(GeneralizedTuple(std::vector<Lrp>{}, {a, b})));
        }
      }
    }
    return out;
  }
  const Term& var_term = l_var ? l : r;
  const Term& const_term = l_var ? r : l;
  Value constant = const_term.kind == Term::Kind::kString
                       ? Value(const_term.text)
                       : Value(const_term.number);
  GeneralizedRelation out(Schema({}, {var_term.var}, {type}));
  if (want_equal) {
    ITDB_RETURN_IF_ERROR(
        out.AddTuple(GeneralizedTuple(std::vector<Lrp>{}, {constant})));
    return out;
  }
  for (const Value& v : adom.OfType(type)) {
    if (v != constant) {
      ITDB_RETURN_IF_ERROR(
          out.AddTuple(GeneralizedTuple(std::vector<Lrp>{}, {v})));
    }
  }
  return out;
}

Result<GeneralizedRelation> Evaluator::EvalNot(
    const GeneralizedRelation& rel) const {
  std::vector<std::vector<Value>> domains;
  domains.reserve(static_cast<std::size_t>(rel.schema().data_arity()));
  for (int i = 0; i < rel.schema().data_arity(); ++i) {
    domains.push_back(adom.OfType(rel.schema().data_type(i)));
  }
  return ComplementWithDataDomains(rel, domains, algebra);
}

Result<GeneralizedRelation> Evaluator::EvalOr(const Query& q) const {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation l, Eval(*q.left()));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation r, Eval(*q.right()));
  // Extend both sides to the union of their variables.
  std::vector<std::string> vars;
  for (const GeneralizedRelation* rel : {&l, &r}) {
    for (const std::string& v : rel->schema().temporal_names()) {
      vars.push_back(v);
    }
    for (const std::string& v : rel->schema().data_names()) vars.push_back(v);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation le, ExtendTo(std::move(l), vars));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation re, ExtendTo(std::move(r), vars));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation out, Union(le, re, algebra));
  // A union with an empty operand is the other operand as it was: the
  // analyzer's dead-branch rewrite (analysis/rewrite.h) drops an operand
  // that evaluates to no tuples, and both trees must give the same tuples.
  if (le.size() > 0 && re.size() > 0) out.KeepFirstOfEqual(algebra.counters);
  return out;
}

Result<GeneralizedRelation> Evaluator::ExistsVar(GeneralizedRelation rel,
                                                 const std::string& var) const {
  bool present = rel.schema().FindTemporal(var).has_value() ||
                 rel.schema().FindData(var).has_value();
  // Vacuous quantification over a nonempty sort keeps the relation.
  if (present) {
    std::vector<std::string> keep;
    for (const std::string& v : rel.schema().temporal_names()) {
      if (v != var) keep.push_back(v);
    }
    for (const std::string& v : rel.schema().data_names()) {
      if (v != var) keep.push_back(v);
    }
    ITDB_ASSIGN_OR_RETURN(rel, Project(rel, keep, algebra));
  }
  // Tuples that differed only in `var` are equal now, and every operator
  // above would pay for each copy.  One copy is kept here, after Project
  // has charged its budget, rather than in every Project: an atom's
  // selections and a chain root's reordering rarely make equal tuples.
  rel.KeepFirstOfEqual(algebra.counters);
  return rel;
}

Result<GeneralizedRelation> Evaluator::Eval(const Query& q) const {
  // Per-plan-node deadline check: a query cancelled by the server's
  // per-request budget (util/thread_pool.h) unwinds here between nodes even
  // when no kernel below happens to hit its own stride check.
  ITDB_RETURN_IF_ERROR(CheckCancellation());
  if (algebra.tracer == nullptr) return EvalNode(q);
  // One span per plan node, reporting the subtree's output size and the
  // work-counter deltas accrued while it was open.  Pure observation: the
  // evaluation path is identical with tracer == nullptr.
  obs::Span span =
      obs::Span::Begin(algebra.tracer, PlanNodeLabel(q), "plan");
  CounterSnapshot before =
      SnapshotCounters(algebra.counters, algebra.normalize_cache);
  Result<GeneralizedRelation> result = EvalNode(q);
  CounterSnapshot after =
      SnapshotCounters(algebra.counters, algebra.normalize_cache);
  if (result.ok()) {
    span.AddArg("tuples_out",
                static_cast<std::int64_t>(result.value().size()));
  }
  if (q.kind() == Query::Kind::kExists || q.kind() == Query::Kind::kOr) {
    span.AddArg("tuples_equal_dropped",
                after.tuples_equal_dropped - before.tuples_equal_dropped);
  }
  // Planner estimate next to the actual, so `profile` reads as
  // estimate-vs-actual per node.
  if (estimates != nullptr) {
    auto it = estimates->find(&q);
    if (it != estimates->end()) {
      span.AddArg("est_rows", static_cast<std::int64_t>(std::llround(
                                  std::min(it->second.rows, 1e18))));
      span.AddArg("est_cost", static_cast<std::int64_t>(std::llround(
                                  std::min(it->second.cost, 1e18))));
    }
  }
  // Certified bounds next to the heuristics: `profile` shows the sound
  // ceiling alongside the guess and the actual.
  if (certificates != nullptr) {
    auto it = certificates->find(&q);
    if (it != certificates->end()) {
      if (it->second.rows.has_value()) {
        span.AddArg("cert_rows", *it->second.rows);
      }
      if (it->second.lcm.has_value()) {
        span.AddArg("cert_lcm", *it->second.lcm);
      }
    }
  }
  span.AddArg("pairs_candidate", after.pairs_candidate - before.pairs_candidate);
  span.AddArg("pairs_pruned_residue",
              after.pairs_pruned_residue - before.pairs_pruned_residue);
  span.AddArg("pairs_pruned_hull",
              after.pairs_pruned_hull - before.pairs_pruned_hull);
  span.AddArg("closures_incremental",
              after.closures_incremental - before.closures_incremental);
  span.AddArg("closures_full", after.closures_full - before.closures_full);
  span.AddArg("cache_hits", after.cache_hits - before.cache_hits);
  span.AddArg("cache_misses", after.cache_misses - before.cache_misses);
  return result;
}

Result<GeneralizedRelation> Evaluator::EvalNode(const Query& q) const {
  switch (q.kind()) {
    case Query::Kind::kAtom:
      return EvalAtom(q);
    case Query::Kind::kCmp:
      return EvalCmp(q);
    case Query::Kind::kAnd: {
      std::vector<GeneralizedTuple> tuples;
      ITDB_ASSIGN_OR_RETURN(Pulled pulled, PullChain(q, &tuples));
      GeneralizedRelation joined(std::move(pulled.schema));
      for (GeneralizedTuple& t : tuples) {
        ITDB_RETURN_IF_ERROR(joined.AddTuple(std::move(t)));
      }
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation canon,
                            Canonical(std::move(joined)));
      // Canonical tuple order, once, at the chain root: each tuple past the
      // root conjoins CLOSED constraint systems, and closure is idempotent
      // over entrywise min, so the tuple multiset of a multi-way
      // conjunction is association-invariant; only the sequence depends on
      // join order.  Sorting here makes planned and written-order chains
      // bit-identical (query/planner.h).
      canon.SortTuplesCanonical();
      return canon;
    }
    case Query::Kind::kOr:
      return EvalOr(q);
    case Query::Kind::kNot: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation inner, Eval(*q.left()));
      return EvalNot(inner);
    }
    case Query::Kind::kExists: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation inner, Eval(*q.left()));
      return ExistsVar(std::move(inner), q.quantified_var());
    }
  }
  return Status::InvalidArgument("unreachable query kind");
}

/// The depth-first pull over a chain whose probes are built (the Volcano
/// iterator over Section 3.7's pair step): a tuple entering chain node
/// `level` is probed against that node's right child and each joined tuple
/// enters the node above.  Without a sink, a tuple past the root is tested
/// for a point; with one, the root appends its joined tuples to it.  One
/// thread: the probes hoist the right rows they reach as they go.
struct ChainPull {
  std::vector<JoinProbe>& probes;
  const AlgebraOptions& algebra;
  std::vector<GeneralizedTuple>* sink;
  std::int64_t candidates_tested = 0;

  /// Whether some tuple grown from `t` at chain node `level` has a point
  /// (always false with a sink).
  Result<bool> Feed(std::size_t level, const GeneralizedTuple& t) {
    ITDB_RETURN_IF_ERROR(CheckCancellation());
    if (level == probes.size()) {
      ++candidates_tested;
      ITDB_ASSIGN_OR_RETURN(bool empty, TupleIsEmpty(t, algebra));
      return !empty;
    }
    JoinProbe& probe = probes[level];
    ITDB_ASSIGN_OR_RETURN(std::span<const std::size_t> bucket,
                          probe.Candidates(t));
    probe.Hoist({&bucket, 1});
    if (sink != nullptr && level + 1 == probes.size()) {
      ITDB_RETURN_IF_ERROR(probe.Probe(t, bucket, *sink));
      return false;
    }
    std::vector<GeneralizedTuple> joined;
    ITDB_RETURN_IF_ERROR(probe.Probe(t, bucket, joined));
    for (const GeneralizedTuple& next : joined) {
      ITDB_ASSIGN_OR_RETURN(bool found, Feed(level + 1, next));
      if (found) return true;
    }
    return false;
  }
};

Result<Evaluator::Pulled> Evaluator::PullChain(
    const Query& q, std::vector<GeneralizedTuple>* sink) const {
  // The chain's AND nodes, bottom first, and its leftmost leaf.
  std::vector<const Query*> chain;
  const Query* leaf = &q;
  while (leaf->kind() == Query::Kind::kAnd) {
    chain.push_back(leaf);
    leaf = leaf->left().get();
  }
  std::reverse(chain.begin(), chain.end());
  // The children are canonical relations; the chain's own columns stay in
  // feed order until the caller reorders the tuples past the root.
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation outer, Eval(*leaf));
  std::vector<GeneralizedRelation> rights;
  rights.reserve(chain.size());
  for (const Query* node : chain) {
    ITDB_ASSIGN_OR_RETURN(GeneralizedRelation right, Eval(*node->right()));
    rights.push_back(std::move(right));
  }
  std::vector<JoinProbe> probes;
  probes.reserve(rights.size());
  const Schema* left = &outer.schema();
  for (const GeneralizedRelation& right : rights) {
    ITDB_ASSIGN_OR_RETURN(JoinProbe probe,
                          JoinProbe::ForJoin(*left, right, algebra));
    probes.push_back(std::move(probe));
    left = &probes.back().schema();
  }
  Pulled pulled;
  pulled.schema = *left;
  ChainPull pull{probes, algebra, sink};
  for (const GeneralizedTuple& t : outer.tuples()) {
    ++pulled.outer_pulled;
    ITDB_ASSIGN_OR_RETURN(pulled.found, pull.Feed(0, t));
    if (pulled.found) break;
  }
  pulled.candidates_tested = pull.candidates_tested;
  return pulled;
}

Result<bool> Evaluator::Nonempty(const Query& q) const {
  // Like the plan spans of Eval, only under the statement's own tracer.
  obs::Span span;
  if (algebra.tracer != nullptr) {
    span = obs::Span::Begin(algebra.tracer, "pull " + q.ToString(), "plan");
  }
  const CounterSnapshot before =
      SnapshotCounters(algebra.counters, algebra.normalize_cache);
  // Neither Canonical nor the canonical sort changes whether a point
  // exists, so the answer skips both.
  ITDB_ASSIGN_OR_RETURN(Pulled pulled, PullChain(q, nullptr));
  const CounterSnapshot after =
      SnapshotCounters(algebra.counters, algebra.normalize_cache);
  span.AddArg("outer_pulled", pulled.outer_pulled);
  span.AddArg("candidates_tested", pulled.candidates_tested);
  span.AddArg("found", pulled.found ? 1 : 0);
  span.AddArg("pairs_candidate", after.pairs_candidate - before.pairs_candidate);
  return pulled.found;
}

/// Publishes the totals of a per-query KernelCounters instance into the
/// global metrics registry, so runs that never wire counters explicitly
/// still show up under `metrics` / --trace-json consumers.
void FlushKernelCounters(const KernelCounters& counters) {
  obs::AddGlobalCounter(
      "kernel.pairs_total",
      counters.pairs_total.load(std::memory_order_relaxed));
  obs::AddGlobalCounter(
      "kernel.pairs_candidate",
      counters.pairs_candidate.load(std::memory_order_relaxed));
  obs::AddGlobalCounter(
      "kernel.pairs_pruned_residue",
      counters.pairs_pruned_residue.load(std::memory_order_relaxed));
  obs::AddGlobalCounter(
      "kernel.pairs_pruned_hull",
      counters.pairs_pruned_hull.load(std::memory_order_relaxed));
  obs::AddGlobalCounter(
      "kernel.closures_incremental",
      counters.closures_incremental.load(std::memory_order_relaxed));
  obs::AddGlobalCounter(
      "kernel.closures_full",
      counters.closures_full.load(std::memory_order_relaxed));
  obs::AddGlobalCounter(
      "kernel.tuples_equal_dropped",
      counters.tuples_equal_dropped.load(std::memory_order_relaxed));
}

/// The canonical empty result for `q`: the exact schema evaluation would
/// produce (free temporal then free data columns, each name-sorted) with
/// zero tuples -- which is also exactly what evaluating a provably-empty
/// query returns, keeping the short-circuit bit-identical.
GeneralizedRelation EmptyRelationFor(const Query& q, const SortMap& sorts) {
  std::vector<std::string> temporal;
  std::vector<std::string> data_names;
  std::vector<DataType> data_types;
  for (const std::string& v : q.FreeVariables()) {  // Sorted.
    auto it = sorts.find(v);
    if (it == sorts.end() || it->second == Sort::kTime) {
      temporal.push_back(v);
    } else {
      data_names.push_back(v);
      data_types.push_back(it->second == Sort::kDataInt ? DataType::kInt
                                                        : DataType::kString);
    }
  }
  return GeneralizedRelation(
      Schema(std::move(temporal), std::move(data_names), std::move(data_types)));
}

/// Evaluates plans of a compiled, not statically empty statement with one
/// evaluator (one normalization cache, one set of kernel counters):
/// `run(evaluator)` evaluates each plan it needs and returns the
/// statement's result.
template <typename Run>
auto EvalPlans(const Database& db, Prepared& prepared, obs::Profile* profile,
               Run run) {
  // Seeded from the ORIGINAL query (see Prepared::active_domain), so
  // analysis cannot shift data quantifier ranges.
  const ActiveDomain& adom = prepared.active_domain(db);
  // One normalization memo-cache per query evaluation: subqueries repeatedly
  // renormalize the same base tuples (negation and quantifier elimination in
  // particular), so sharing the cache across the whole tree pays for itself.
  // A caller-provided cache (shared across queries) takes precedence.
  NormalizeCache query_cache;
  AlgebraOptions algebra = prepared.options().algebra;
  if (algebra.normalize_cache == nullptr) {
    algebra.normalize_cache = &query_cache;
  }
  // Per-query kernel counters when the caller wired none, so plan spans and
  // the global registry get the pairs_* / closures_* breakdown either way.
  KernelCounters own_counters;
  if (algebra.counters == nullptr) algebra.counters = &own_counters;
  // Plan spans go to the caller's algebra tracer (see QueryOptions).
  // Profiled runs without one use a private tracer so foreign spans in the
  // global tracer cannot leak into the profile.
  obs::Tracer local_tracer;
  if (algebra.tracer == nullptr && profile != nullptr) {
    algebra.tracer = &local_tracer;
  }
  const analysis::CertificateMap& certificates = prepared.certificates();
  Evaluator evaluator{db, prepared.sorts(), adom, algebra,
                      &prepared.estimates(),
                      certificates.empty() ? nullptr : &certificates};
  auto result = run(std::as_const(evaluator));
  obs::AddGlobalCounter("query.evaluations", 1);
  if (algebra.counters == &own_counters) FlushKernelCounters(own_counters);
  if (profile != nullptr) {
    *profile = obs::BuildProfile(algebra.tracer->records(), "plan");
  }
  return result;
}

}  // namespace

Result<GeneralizedRelation> EvalPrepared(const Database& db, Prepared& prepared,
                                         obs::Profile* profile) {
  if (prepared.answer() != Answer::kRelation) {
    return Status::InvalidArgument(
        "a yes/no statement has no result relation");
  }
  ITDB_RETURN_IF_ERROR(prepared.Compile(db));
  if (prepared.statically_empty()) {
    return EmptyRelationFor(*prepared.query(), prepared.analysis().sorts);
  }
  return EvalPlans(
      db, prepared, profile,
      [&](const Evaluator& evaluator) -> Result<GeneralizedRelation> {
        // Root span over the plan's evaluation; scoped so it is committed
        // (and visible to BuildProfile) before the profile is folded.
        obs::Span root =
            obs::Span::Begin(evaluator.algebra.tracer,
                             "query " + prepared.plan()->ToString(), "plan");
        Result<GeneralizedRelation> r = evaluator.Eval(*prepared.plan());
        if (r.ok()) {
          root.AddArg("tuples_out", static_cast<std::int64_t>(r->size()));
        }
        return r;
      });
}

Result<bool> EvalPreparedBoolean(const Database& db, Prepared& prepared,
                                 obs::Profile* profile) {
  if (prepared.answer() != Answer::kYesNo) {
    return Status::InvalidArgument("not a yes/no statement");
  }
  ITDB_RETURN_IF_ERROR(prepared.Compile(db));
  // The proof is about the whole statement, so it answers false before
  // any peeled NOT flips it: the flipped empty relation would read as true.
  if (prepared.statically_empty()) return false;
  // The parts share no variable: the body is nonempty iff every part is.
  auto every_part_nonempty = [&](const Evaluator& evaluator) -> Result<bool> {
    for (const QueryPtr& part : prepared.plans()) {
      ITDB_ASSIGN_OR_RETURN(bool nonempty, evaluator.Nonempty(*part));
      if (!nonempty) return false;
    }
    return true;
  };
  ITDB_ASSIGN_OR_RETURN(bool nonempty, EvalPlans(db, prepared, profile,
                                                 every_part_nonempty));
  return nonempty != prepared.holds_when_empty();
}

Result<GeneralizedRelation> EvalQuery(const Database& db, const QueryPtr& q,
                                      const QueryOptions& options) {
  Prepared prepared(q, options);
  return EvalPrepared(db, prepared);
}

Result<bool> EvalBooleanQuery(const Database& db, const QueryPtr& q,
                              const QueryOptions& options) {
  Prepared prepared(q, options, Answer::kYesNo);
  return EvalPreparedBoolean(db, prepared);
}

Result<GeneralizedRelation> EvalQueryString(const Database& db,
                                            std::string_view text,
                                            const QueryOptions& options) {
  ITDB_ASSIGN_OR_RETURN(QueryPtr q, ParseQuery(text));
  return EvalQuery(db, q, options);
}

Result<bool> EvalBooleanQueryString(const Database& db, std::string_view text,
                                    const QueryOptions& options) {
  ITDB_ASSIGN_OR_RETURN(QueryPtr q, ParseQuery(text));
  return EvalBooleanQuery(db, q, options);
}

}  // namespace query
}  // namespace itdb
