#include "analysis/absint.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "core/cmp.h"
#include "util/numeric.h"

namespace itdb {
namespace analysis {

namespace {

constexpr std::int64_t kInf = Dbm::kInf;

/// Exact int128 arithmetic clamped to the +-kInf sentinels.  Clamping is
/// sound for hull bounds: no int64 time point lies beyond the sentinels.
std::int64_t Clamp128(__int128 v) {
  if (v >= static_cast<__int128>(kInf)) return kInf;
  if (v <= static_cast<__int128>(-kInf)) return -kInf;
  return static_cast<std::int64_t>(v);
}

std::int64_t SatSub(std::int64_t a, std::int64_t b) {
  if (a >= kInf || a <= -kInf) return a;  // Sentinels absorb shifts.
  return Clamp128(static_cast<__int128>(a) - static_cast<__int128>(b));
}

using Bound = std::optional<std::int64_t>;

Bound MulBound(const Bound& a, const Bound& b) {
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

}  // namespace

Interval Interval::Intersect(const Interval& o) const {
  return Interval{std::max(lo, o.lo), std::min(hi, o.hi)};
}

Interval Interval::Union(const Interval& o) const {
  if (empty()) return o;
  if (o.empty()) return *this;
  return Interval{std::min(lo, o.lo), std::max(hi, o.hi)};
}

Interval Interval::Shift(std::int64_t delta) const {
  if (empty()) return Empty();
  Interval out;
  out.lo = lo <= -kInf ? -kInf
                       : Clamp128(static_cast<__int128>(lo) +
                                  static_cast<__int128>(delta));
  out.hi = hi >= kInf
               ? kInf
               : Clamp128(static_cast<__int128>(hi) +
                          static_cast<__int128>(delta));
  return out;
}

std::string FormatInterval(const Interval& i) {
  if (i.empty()) return "empty";
  std::ostringstream out;
  out << "[";
  if (i.lo <= -kInf) {
    out << "-inf";
  } else {
    out << i.lo;
  }
  out << ", ";
  if (i.hi >= kInf) {
    out << "+inf";
  } else {
    out << i.hi;
  }
  out << "]";
  return out.str();
}

bool Certificate::HullRefuted() const {
  for (const auto& [var, interval] : hull) {
    if (interval.empty()) return true;
  }
  return false;
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
  if (c.HullRefuted()) out << ", cert_empty=set";
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
  Node(*q);
  return certs_.find(q.get())->second;
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

Certificate AbstractInterpreter::Node(const query::Query& q) {
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
    case Query::Kind::kForall: {
      // NOT (EXISTS v (NOT body)): cardinality and hull are out of reach
      // (both complements run at the representation level), but every
      // complement normalizes to a uniform period dividing the body's lcm,
      // and the inner projection preserves divisibility.
      Certificate child = Node(*q.left());
      cert.lcm = CapLcm(child.lcm);
      break;
    }
  }
  certs_.emplace(&q, cert);
  return cert;
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
  // projects to one column per variable.  Under partial normalization (the
  // engine default; see the soundness note in absint.h) the projection
  // splits tuples only when a temporal column is dropped -- a constant or
  // a repeated variable in a temporal position.
  bool drops_temporal = false;
  std::set<std::string> seen_temporal;
  for (std::size_t i = 0; i < q.args().size() && static_cast<int>(i) < m;
       ++i) {
    const query::Term& t = q.args()[i];
    if (t.kind != query::Term::Kind::kVariable) {
      drops_temporal = true;
    } else if (!seen_temporal.insert(t.var).second) {
      drops_temporal = true;
    }
  }
  cert.rows = drops_temporal ? stats.normalized_rows
                             : Bound(stats.tuple_count);

  // Hull: the stats hull of each temporal column, shifted by the term
  // offset (column = v + c, so v = column - c), intersected over every
  // position the variable occupies.
  for (std::size_t i = 0; i < q.args().size() && static_cast<int>(i) < m;
       ++i) {
    const query::Term& t = q.args()[i];
    if (t.kind != query::Term::Kind::kVariable) continue;
    Interval col = stats.bit_empty
                       ? Interval::Empty()
                       : Interval{stats.hull_lo[i], stats.hull_hi[i]};
    Interval shifted = col.empty()
                           ? Interval::Empty()
                           : Interval{SatSub(col.lo, t.number),
                                      SatSub(col.hi, t.number)};
    auto [pos, inserted] = cert.hull.emplace(t.var, shifted);
    if (!inserted) pos->second = pos->second.Intersect(shifted);
  }
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
    cert.rows = 1;  // BooleanRelation: zero or one tuples.
    return cert;
  }
  const std::string& probe = l_var ? l.var : r.var;
  auto sort_it = sorts_.find(probe);
  if (sort_it == sorts_.end()) return Certificate{};  // Sorts failed: top.
  if (sort_it->second == query::Sort::kTime) {
    if (l_var && r_var && l.var == r.var) {
      cert.rows = 1;  // Universe({v}) or empty.
      return cert;
    }
    const Term& var_term = l_var ? l : r;
    const Term& other = l_var ? r : l;
    if (other.kind == Term::Kind::kString) return Certificate{};
    // Oriented over column 0 (the variable) and, for two variables,
    // column 1, with the offsets moved into the constant k = K - c.  The
    // certificate saturates where the evaluator fails: k clamps to +-kInf,
    // and k + 1 at k = +kInf (for > and !=) to +kInf -- the atoms of
    // k = kInf - 1.
    auto compile = [&](std::int64_t k) {
      const CmpOperand v{0, 0};
      const CmpOperand w = other.kind == Term::Kind::kVariable
                               ? CmpOperand{1, 0}
                               : CmpOperand{kZeroVar, k};
      return CompileCmp(
          *(l_var ? OrientCmp(v, q.cmp(), w) : OrientCmp(w, q.cmp(), v)));
    };
    const std::int64_t k = Clamp128(static_cast<__int128>(other.number) -
                                    static_cast<__int128>(var_term.number));
    Result<CmpBranches> branches = compile(k);
    if (!branches.ok()) branches = compile(k - 1);
    if (!branches.ok()) return Certificate{};
    cert.rows = static_cast<std::int64_t>(branches->size());
    if (other.kind == Term::Kind::kInt && branches->size() == 1) {
      // The hull is read off the unary atoms X0 <= b and -X0 <= b.
      Interval hull;
      for (const AtomicConstraint& a : branches->front()) {
        if (a.rhs == kZeroVar) hull.hi = Clamp128(a.bound);
        if (a.lhs == kZeroVar) {
          hull.lo = Clamp128(-static_cast<__int128>(a.bound));
        }
      }
      cert.hull[var_term.var] = hull;
    }
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
  // reorder afterwards is split-free under partial normalization.
  out.rows = MulBound(l.rows, r.rows);
  out.lcm = CapLcm(LcmBound(l.lcm, r.lcm));
  // Natural join: a shared variable satisfies both sides' bounds, a
  // one-sided variable keeps its side's.
  out.hull = l.hull;
  for (const auto& [var, interval] : r.hull) {
    auto [pos, inserted] = out.hull.emplace(var, interval);
    if (!inserted) pos->second = pos->second.Intersect(interval);
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
  // A variable bounded on both sides is bounded by the union; a variable
  // missing from either map is unconstrained there (extension to the
  // universe makes one-sided bounds worthless).
  for (const auto& [var, interval] : l.hull) {
    auto rit = r.hull.find(var);
    if (rit == r.hull.end()) continue;
    out.hull.emplace(var, interval.Union(rit->second));
  }
  return out;
}

Certificate AbstractInterpreter::ComplementCert(
    const Certificate& child) const {
  Certificate cert;
  // Cardinality: the complement enumerates a k^m residue universe --
  // unbounded from the certificate's point of view.  Hull: the complement
  // of a bounded set is unbounded -- top.  Period: the complement
  // normalizes every tuple to the representation's common period k (the
  // lcm of all stored periods, infeasible tuples included), and k divides
  // the child's certified lcm; coalescing only merges residue classes into
  // divisors of k.
  cert.lcm = CapLcm(child.lcm);
  return cert;
}

Certificate AbstractInterpreter::ExistsCert(const query::Query& q,
                                            const Certificate& child) const {
  const std::string& var = q.quantified_var();
  Certificate cert = child;
  cert.hull.erase(var);
  std::vector<std::string> free_child = q.left()->FreeVariables();
  if (!std::binary_search(free_child.begin(), free_child.end(), var)) {
    return cert;  // Vacuous quantification: the relation passes through.
  }
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
