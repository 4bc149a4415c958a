#include "analysis/absint.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "core/cmp.h"
#include "util/numeric.h"

namespace itdb {
namespace analysis {

namespace {

using Bound = std::optional<std::int64_t>;

/// 0 absorbs: a product with a zero-row operand has zero rows even when
/// the other factor is unbounded.
Bound MulBound(const Bound& a, const Bound& b) {
  if (a == 0 || b == 0) return 0;
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  Result<std::int64_t> r = CheckedMul(*a, *b);
  if (!r.ok()) return std::nullopt;
  return r.value();
}

Bound AddBound(const Bound& a, const Bound& b) {
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  Result<std::int64_t> r = CheckedAdd(*a, *b);
  if (!r.ok()) return std::nullopt;
  return r.value();
}

Bound LcmBound(const Bound& a, const Bound& b) {
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  Result<std::int64_t> r = Lcm(*a, *b);
  if (!r.ok()) return std::nullopt;
  return r.value();
}

Bound PowBound(const Bound& base, int exp) {
  if (exp <= 0) return 1;
  if (!base.has_value()) return std::nullopt;
  Bound out = 1;
  for (int i = 0; i < exp && out.has_value(); ++i) out = MulBound(out, base);
  return out;
}

/// Position of `var` in the sorted `vars`, or -1.
int IndexOf(const std::vector<std::string>& vars, const std::string& var) {
  auto it = std::lower_bound(vars.begin(), vars.end(), var);
  if (it == vars.end() || *it != var) return -1;
  return static_cast<int>(it - vars.begin());
}

std::vector<std::string> UnionVars(const std::vector<std::string>& a,
                                   const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Adds X(lhs) - X(rhs) <= bound unless the bound lies outside the range
/// Dbm::Close accepts: dropping a constraint only weakens the zone.
void AddIfSafe(Dbm* dbm, int lhs, int rhs, __int128 bound) {
  if (bound < -Dbm::kBoundLimit || bound > Dbm::kBoundLimit) return;
  dbm->AddAtomic({lhs, rhs, static_cast<std::int64_t>(bound)});
}

/// The zone of `dbm` over `vars` after closure.  An overflowing closure
/// gives top: dropping every constraint is sound.
Zone Closed(std::vector<std::string> vars, Dbm dbm) {
  if (!dbm.Close().ok()) return Zone::Top(std::move(vars));
  return Zone{std::move(vars), std::move(dbm)};
}

/// `z`'s matrix over `vars`, a sorted superset of z.vars; the added
/// variables are unconstrained.  Pre: !z.refuted().
Dbm Extend(const Zone& z, const std::vector<std::string>& vars) {
  std::vector<int> to;
  to.reserve(z.vars.size());
  for (const std::string& v : z.vars) to.push_back(IndexOf(vars, v));
  return z.dbm.MapVariables(to, static_cast<int>(vars.size()));
}

/// Entrywise max of two closed feasible matrices over the same variables
/// (their closed flags need not be set): the tightest zone containing
/// both, and closed, since each entry bounds its paths in both inputs.
Dbm EntrywiseMax(const Dbm& a, const Dbm& b) {
  const int n = a.num_vars() + 1;
  std::vector<std::int64_t> entries;
  entries.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      entries.push_back(std::max(a.bound_node(p, q), b.bound_node(p, q)));
    }
  }
  return Dbm::FromEntries(a.num_vars(), entries.data(), /*closed=*/true,
                          /*feasible=*/true);
}

}  // namespace

Zone Zone::Top(std::vector<std::string> vars) {
  const int n = static_cast<int>(vars.size());
  return Zone{std::move(vars), Dbm(n)};
}

Zone Zone::Bottom(std::vector<std::string> vars) {
  Zone out = Top(std::move(vars));
  out.dbm.AddAtomic({kZeroVar, kZeroVar, -1});  // 0 <= -1.
  (void)out.dbm.Close();  // Infeasible: no range check runs.
  return out;
}

std::int64_t Zone::Lower(const std::string& var) const {
  if (refuted()) return Dbm::kInf;
  const int i = IndexOf(vars, var);
  if (i < 0) return -Dbm::kInf;
  const std::int64_t b = dbm.bound_node(0, i + 1);  // -X <= b.
  return b == Dbm::kInf ? -Dbm::kInf : -b;
}

std::int64_t Zone::Upper(const std::string& var) const {
  if (refuted()) return -Dbm::kInf;
  const int i = IndexOf(vars, var);
  if (i < 0) return Dbm::kInf;
  return dbm.bound_node(i + 1, 0);  // X <= b.
}

std::string FormatCertificate(const Certificate& c) {
  std::ostringstream out;
  out << "cert_rows=";
  if (c.rows.has_value()) {
    out << *c.rows;
  } else {
    out << "unbounded";
  }
  out << ", cert_lcm=";
  if (c.lcm.has_value()) {
    out << *c.lcm;
  } else {
    out << "unbounded";
  }
  if (c.ProvenEmpty()) out << ", cert_empty=set";
  return out.str();
}

AbstractInterpreter::AbstractInterpreter(const Database& db,
                                         query::SortMap sorts,
                                         StatsCache* stats_cache)
    : db_(db), sorts_(std::move(sorts)), stats_cache_(stats_cache) {}

void AbstractInterpreter::SeedActiveDomain(const query::Query& q) {
  adom_ = query::ComputeActiveDomain(db_, q);
  domain_seeded_ = true;
}

const Certificate& AbstractInterpreter::Interpret(const query::QueryPtr& q) {
  if (!domain_seeded_) SeedActiveDomain(*q);
  return Node(*q);
}

const Certificate* AbstractInterpreter::Find(const query::Query* q) const {
  auto it = certs_.find(q);
  return it == certs_.end() ? nullptr : &it->second;
}

void AbstractInterpreter::Register(const query::Query* q, Certificate cert) {
  certs_.insert_or_assign(q, std::move(cert));
}

std::int64_t AbstractInterpreter::domain_size(query::Sort sort) const {
  switch (sort) {
    case query::Sort::kDataString:
      return static_cast<std::int64_t>(adom_.strings.size());
    case query::Sort::kDataInt:
      return static_cast<std::int64_t>(adom_.ints.size());
    case query::Sort::kTime:
      break;
  }
  return 0;
}

std::optional<std::int64_t> AbstractInterpreter::CapLcm(
    std::optional<std::int64_t> l) const {
  if (!l.has_value() || *l > kMaxCertifiedLcm) return std::nullopt;
  return l;
}

RelationStats AbstractInterpreter::StatsFor(
    const std::string& name, const GeneralizedRelation& rel) const {
  if (stats_cache_ != nullptr) {
    return stats_cache_->Get(name, db_.version(), rel);
  }
  return ComputeRelationStats(rel);
}

bool AbstractInterpreter::IsTemporal(const std::string& var) const {
  auto it = sorts_.find(var);
  return it != sorts_.end() && it->second == query::Sort::kTime;
}

std::optional<std::int64_t> AbstractInterpreter::MissingDataFactor(
    const std::vector<std::string>& vars,
    const std::vector<std::string>& present) const {
  Bound factor = 1;
  for (const std::string& v : vars) {
    if (std::binary_search(present.begin(), present.end(), v)) continue;
    auto it = sorts_.find(v);
    if (it == sorts_.end()) return std::nullopt;  // Unknown sort: give up.
    if (it->second == query::Sort::kTime) continue;  // Universe column.
    factor = MulBound(factor, domain_size(it->second));
  }
  return factor;
}

const Certificate& AbstractInterpreter::Node(const query::Query& q) {
  auto it = certs_.find(&q);
  if (it != certs_.end()) return it->second;
  using query::Query;
  Certificate cert;
  switch (q.kind()) {
    case Query::Kind::kAtom:
      cert = AtomCert(q);
      break;
    case Query::Kind::kCmp:
      cert = CmpCert(q);
      break;
    case Query::Kind::kAnd:
      cert = Conjoin(Node(*q.left()), Node(*q.right()));
      break;
    case Query::Kind::kOr:
      cert = DisjoinCert(q, Node(*q.left()), Node(*q.right()));
      break;
    case Query::Kind::kNot:
      cert = ComplementCert(Node(*q.left()));
      break;
    case Query::Kind::kExists:
      cert = ExistsCert(q, Node(*q.left()));
      break;
  }
  return certs_.emplace(&q, std::move(cert)).first->second;
}

Certificate AbstractInterpreter::AtomCert(const query::Query& q) {
  Certificate cert;
  Result<GeneralizedRelation> rel = db_.Get(q.relation());
  if (!rel.ok()) return cert;  // Reported by the analyzer as A001.
  const Schema& schema = rel.value().schema();
  const int m = schema.temporal_arity();
  if (static_cast<int>(q.args().size()) !=
      m + schema.data_arity()) {
    return cert;  // Reported as A002.
  }
  RelationStats stats = StatsFor(q.relation(), rel.value());
  cert.lcm = CapLcm(stats.period_lcm_rep);

  // The atom pipeline (query/eval.cc EvalAtom) selects, shifts, and then
  // projects to one column per variable.  The projection splits tuples
  // only when a temporal column is dropped -- a constant or a repeated
  // variable in a temporal position; a pure reorder never splits.
  bool drops_temporal = false;
  std::vector<std::string> vars;
  for (int i = 0; i < m; ++i) {
    const query::Term& t = q.args()[static_cast<std::size_t>(i)];
    if (t.kind != query::Term::Kind::kVariable) {
      drops_temporal = true;
    } else if (std::find(vars.begin(), vars.end(), t.var) != vars.end()) {
      drops_temporal = true;
    } else {
      vars.push_back(t.var);
    }
  }
  cert.rows = drops_temporal ? stats.normalized_rows
                             : Bound(stats.tuple_count);

  // Zone: the stats hull of each temporal column, shifted by the term
  // offset (column = v + c, so v = column - c), conjoined over every
  // position the variable occupies.
  std::sort(vars.begin(), vars.end());
  if (stats.bit_empty) {
    cert.zone = Zone::Bottom(std::move(vars));
    return cert;
  }
  Dbm dbm(static_cast<int>(vars.size()));
  for (int i = 0; i < m; ++i) {
    const query::Term& t = q.args()[static_cast<std::size_t>(i)];
    if (t.kind != query::Term::Kind::kVariable) continue;
    const int col = IndexOf(vars, t.var);
    const std::size_t c = static_cast<std::size_t>(i);
    if (stats.hull_hi[c] < Dbm::kInf) {
      AddIfSafe(&dbm, col, kZeroVar,
                static_cast<__int128>(stats.hull_hi[c]) - t.number);
    }
    if (stats.hull_lo[c] > -Dbm::kInf) {
      AddIfSafe(&dbm, kZeroVar, col,
                static_cast<__int128>(t.number) - stats.hull_lo[c]);
    }
  }
  cert.zone = Closed(std::move(vars), std::move(dbm));
  return cert;
}

Certificate AbstractInterpreter::CmpCert(const query::Query& q) {
  using query::Term;
  Certificate cert;
  cert.lcm = 1;
  const Term& l = q.lhs();
  const Term& r = q.rhs();
  const bool l_var = l.kind == Term::Kind::kVariable;
  const bool r_var = r.kind == Term::Kind::kVariable;
  if (!l_var && !r_var) {
    // BooleanRelation: one tuple when the ground comparison holds, none
    // when it fails.  Strings are only ground under = and !=.
    cert.rows = 1;
    if (l.kind == Term::Kind::kInt && r.kind == Term::Kind::kInt) {
      cert.rows = Holds(l.number, q.cmp(), r.number) ? 1 : 0;
    } else if (l.kind == Term::Kind::kString &&
               r.kind == Term::Kind::kString &&
               (q.cmp() == CmpOp::kEq || q.cmp() == CmpOp::kNe)) {
      cert.rows = Holds(l.text, q.cmp(), r.text) ? 1 : 0;
    }
    return cert;
  }
  const std::string& probe = l_var ? l.var : r.var;
  auto sort_it = sorts_.find(probe);
  if (sort_it == sorts_.end()) return Certificate{};  // Sorts failed: top.
  if (sort_it->second == query::Sort::kTime) {
    if (l_var && r_var && l.var == r.var) {
      // (v + a) op (v + b) is ground: Universe({v}) when a op b holds,
      // no tuples when it fails.
      cert.rows = Holds(l.number, q.cmp(), r.number) ? 1 : 0;
      cert.zone = Zone::Top({l.var});
      return cert;
    }
    if (l.kind == Term::Kind::kString || r.kind == Term::Kind::kString) {
      return Certificate{};
    }
    std::vector<std::string> vars = {probe};
    if (l_var && r_var) {
      vars = {std::min(l.var, r.var), std::max(l.var, r.var)};
    }
    // != compiles to two branches (two tuples); the rest to one.
    cert.rows = q.cmp() == CmpOp::kNe ? 2 : 1;
    auto operand = [&vars](const Term& t) {
      return t.kind == Term::Kind::kVariable
                 ? CmpOperand{IndexOf(vars, t.var), t.number}
                 : CmpOperand{kZeroVar, t.number};
    };
    // A bound outside int64 (where the evaluator fails) or a disjunction
    // (!=) adds no constraint.
    Dbm dbm(static_cast<int>(vars.size()));
    Result<TemporalCondition> cond = OrientCmp(operand(l), q.cmp(), operand(r));
    if (cond.ok()) {
      Result<CmpBranches> branches = CompileCmp(*cond);
      if (branches.ok() && branches->size() == 1) {
        for (const AtomicConstraint& a : branches->front()) {
          AddIfSafe(&dbm, a.lhs, a.rhs, a.bound);
        }
      }
    }
    cert.zone = Closed(std::move(vars), std::move(dbm));
    return cert;
  }
  // Data sort: tuples are drawn from the active domain of the type.
  Bound n = domain_size(sort_it->second);
  if (l_var && r_var) {
    cert.rows = q.cmp() == CmpOp::kEq ? n : MulBound(n, n);
    return cert;
  }
  cert.rows = q.cmp() == CmpOp::kEq ? Bound(1) : n;
  return cert;
}

Certificate AbstractInterpreter::Conjoin(const Certificate& l,
                                         const Certificate& r) const {
  Certificate out;
  // Join emits at most one tuple per operand pair; the canonicalizing
  // reorder afterwards drops no column, so it never splits.
  out.rows = MulBound(l.rows, r.rows);
  out.lcm = CapLcm(LcmBound(l.lcm, r.lcm));
  // Natural join: a valuation of the union satisfies both sides' zones.
  std::vector<std::string> vars = UnionVars(l.zone.vars, r.zone.vars);
  if (l.ProvenEmpty() || r.ProvenEmpty()) {
    out.zone = Zone::Bottom(std::move(vars));
  } else {
    Dbm both = Dbm::Conjoin(Extend(l.zone, vars), Extend(r.zone, vars));
    out.zone = Closed(std::move(vars), std::move(both));
  }
  return out;
}

Certificate AbstractInterpreter::DisjoinCert(const query::Query& q,
                                             const Certificate& l,
                                             const Certificate& r) const {
  Certificate out;
  std::vector<std::string> vars_l = q.left()->FreeVariables();
  std::vector<std::string> vars_r = q.right()->FreeVariables();
  // Each side is extended to the union of variables by cross product with
  // a universe: one tuple per combination of the missing data variables'
  // active domains (missing temporal variables add columns, not tuples).
  Bound ext_l = MulBound(l.rows, MissingDataFactor(vars_r, vars_l));
  Bound ext_r = MulBound(r.rows, MissingDataFactor(vars_l, vars_r));
  out.rows = AddBound(ext_l, ext_r);
  out.lcm = CapLcm(LcmBound(l.lcm, r.lcm));
  // The union of the two sides' sets; a variable missing from one side is
  // unconstrained there (the extension to the universe).  An empty side
  // contributes nothing.
  std::vector<std::string> vars = UnionVars(l.zone.vars, r.zone.vars);
  if (l.ProvenEmpty() && r.ProvenEmpty()) {
    out.zone = Zone::Bottom(std::move(vars));
  } else if (l.ProvenEmpty()) {
    out.zone = Closed(vars, Extend(r.zone, vars));
  } else if (r.ProvenEmpty()) {
    out.zone = Closed(vars, Extend(l.zone, vars));
  } else {
    Dbm hull = EntrywiseMax(Extend(l.zone, vars), Extend(r.zone, vars));
    out.zone = Zone{std::move(vars), std::move(hull)};
  }
  return out;
}

Certificate AbstractInterpreter::ComplementCert(
    const Certificate& child) const {
  Certificate cert;
  // Cardinality: the complement enumerates a k^m residue universe --
  // unbounded from the certificate's point of view.  Zone: the complement
  // of a bounded set is unbounded -- top.  Period: the complement
  // normalizes every tuple to the representation's common period k (the
  // lcm of all stored periods, infeasible tuples included), and k divides
  // the child's certified lcm; coalescing only merges residue classes into
  // divisors of k.
  cert.lcm = CapLcm(child.lcm);
  // The complement of the empty set holds every point, and the complement
  // of every point is empty: a FORALL over a temporal variable of a refuted
  // body (NOT EXISTS t . NOT body) is refuted.  Rows stay unbounded, since
  // both complements run at the representation level.
  cert.universe = child.ProvenEmpty();
  cert.zone = child.universe ? Zone::Bottom(child.zone.vars)
                             : Zone::Top(child.zone.vars);
  return cert;
}

Certificate AbstractInterpreter::ExistsCert(const query::Query& q,
                                            const Certificate& child) const {
  const std::string& var = q.quantified_var();
  Certificate cert = child;
  const int col = IndexOf(child.zone.vars, var);
  if (col >= 0) {
    std::vector<std::string> vars = child.zone.vars;
    vars.erase(vars.begin() + col);
    // Dropping a row and column of a closed matrix is exact projection.
    cert.zone = child.zone.refuted()
                    ? Zone::Bottom(std::move(vars))
                    : Zone{std::move(vars),
                           child.zone.dbm.EliminateVariable(col)};
  }
  std::vector<std::string> free_child = q.left()->FreeVariables();
  if (!std::binary_search(free_child.begin(), free_child.end(), var)) {
    return cert;  // Vacuous quantification: the relation passes through.
  }
  // Projecting a data variable out of every point leaves nothing when its
  // active domain is empty, so only a temporal variable keeps the universe.
  cert.universe = child.universe && IsTemporal(var);
  if (IsTemporal(var)) {
    // Projection normalizes the dropped column's constraint component to
    // its lcm L_t: each tuple splits prod(L_t/k_c) = L_t^j / prod(k_c)
    // ways over the j nonzero-period columns, and since the lcm divides
    // the product this is at most L_t^(j-1) <= L^(m-1).  Dropping a data
    // column touches no constraint component and never splits.
    int m = 0;
    for (const std::string& v : free_child) {
      if (IsTemporal(v)) ++m;
    }
    cert.rows = MulBound(child.rows, PowBound(child.lcm, std::max(m - 1, 0)));
  }
  return cert;
}

}  // namespace analysis
}  // namespace itdb
