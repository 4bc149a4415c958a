#include "query/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/eval.h"

namespace itdb {
namespace query {

namespace {

/// Cardinality multiplier per free temporal column of a complement operand:
/// the A010 signal.  Complement output grows with the residue universe
/// (k^m tuples for m columns at period k), so anything complement-shaped is
/// priced exponentially in its width and lands late in the chain.
constexpr double kComplementBase = 8.0;
/// Fallback distinct count for estimates with no statistics behind them
/// (range comparisons, inner OR branches): large enough that joining on
/// such a variable claims little selectivity.
constexpr double kUnknownNdv = 1e6;
constexpr double kMaxRows = 1e18;

double ClampRows(double rows) {
  if (!(rows >= 0.0)) return 0.0;
  return std::min(rows, kMaxRows);
}

bool IsTemporal(const SortMap& sorts, const std::string& var) {
  auto it = sorts.find(var);
  return it == sorts.end() || it->second == Sort::kTime;
}

int FreeTemporalWidth(const Query& q, const SortMap& sorts) {
  int width = 0;
  for (const std::string& v : q.FreeVariables()) {
    if (IsTemporal(sorts, v)) ++width;
  }
  return width;
}

/// A planned subtree: the (possibly rewritten) node, its estimate, and a
/// per-free-variable distinct-count estimate feeding join selectivity.
struct ConjunctInfo {
  QueryPtr q;
  PlanEstimate est;
  std::map<std::string, double> ndv;
  std::size_t index = 0;  // Original chain position; deterministic ties.
};

bool SharesVariable(const ConjunctInfo& a, const ConjunctInfo& b) {
  for (const auto& [var, ndv] : a.ndv) {
    if (b.ndv.contains(var)) return true;
  }
  return false;
}

/// The classic max-ndv join estimate, |A| * |B| / max(ndv_A, ndv_B), taken
/// over the single STRONGEST shared variable only: multiplying the
/// per-variable factors assumes independence, and on multi-column links
/// (two shared temporal columns are usually correlated, and a complement
/// shares every column of its operand) the product collapses toward zero --
/// which would rank exactly the wide conjuncts we mean to defer as nearly
/// free.  No shared variable means a cross product.  Cost charges the
/// candidate-pair product (what Join's budget charges) plus the output.
ConjunctInfo JoinInfo(const ConjunctInfo& a, const ConjunctInfo& b) {
  ConjunctInfo out;
  double selectivity = 1.0;
  for (const auto& [var, a_ndv] : a.ndv) {
    auto it = b.ndv.find(var);
    if (it == b.ndv.end()) continue;
    selectivity =
        std::min(selectivity, 1.0 / std::max({a_ndv, it->second, 1.0}));
  }
  out.est.rows = ClampRows(a.est.rows * b.est.rows * selectivity);
  out.est.cost =
      a.est.cost + b.est.cost + ClampRows(a.est.rows * b.est.rows) +
      out.est.rows;
  out.ndv = a.ndv;
  for (const auto& [var, b_ndv] : b.ndv) {
    auto [it, inserted] = out.ndv.emplace(var, b_ndv);
    if (!inserted) it->second = std::min(it->second, b_ndv);
  }
  for (auto& [var, ndv] : out.ndv) {
    ndv = std::min(ndv, std::max(out.est.rows, 1.0));
  }
  out.index = std::min(a.index, b.index);
  return out;
}

/// Clamps a heuristic estimate to a certified bound (planner.h): the
/// certificate caps rows, and a set-level emptiness proof zeroes them.
/// Ordering-only -- cost is left alone so chains still price their work.
void ClampToCert(const analysis::Certificate& cert, PlanEstimate* est) {
  if (cert.rows.has_value()) {
    est->rows = std::min(est->rows, static_cast<double>(*cert.rows));
  }
  if (cert.ProvenEmpty()) est->rows = 0.0;
}

class Planner {
 public:
  Planner(const Database& db, const SortMap& sorts, StatsCache* cache,
          analysis::AbstractInterpreter* absint)
      : db_(db), sorts_(sorts), cache_(cache), absint_(absint) {}

  ConjunctInfo PlanNode(const QueryPtr& q);

  PlanEstimateMap take_estimates() { return std::move(estimates_); }

 private:
  ConjunctInfo PlanAtom(const QueryPtr& q);
  ConjunctInfo PlanCmp(const QueryPtr& q);
  ConjunctInfo PlanChain(const QueryPtr& q);

  /// JoinInfo for a candidate pair of a chain's greedy search.  In a chain
  /// whose root certificate is proven empty (`refuted`), the estimate is
  /// clamped to the conjoined certificate of the operands (when both are
  /// certified), so a pair whose zones refute each other is priced at zero
  /// rows and certified bounds steer the ORDER, not just the annotations.
  /// Elsewhere the conjunction cannot move the estimate: each operand's
  /// estimate is already clamped to its own certificate, JoinInfo's rows
  /// never exceed the product of the operands' rows (all the conjoined
  /// certificate's rows carry), and zones that refute each other refute the
  /// chain root's zone, which conjoins every conjunct's.
  ConjunctInfo ClampedJoinInfo(const ConjunctInfo& a, const ConjunctInfo& b,
                               bool refuted) const {
    ConjunctInfo out = JoinInfo(a, b);
    if (refuted) {
      const analysis::Certificate* ca = absint_->Find(a.q.get());
      const analysis::Certificate* cb = absint_->Find(b.q.get());
      if (ca != nullptr && cb != nullptr) {
        ClampToCert(absint_->Conjoin(*ca, *cb), &out.est);
      }
    }
    return out;
  }

  /// For nodes PlanNode rebuilt (replanned children give the wrapper a new
  /// identity): carries the original node's certificate over, then clamps
  /// the estimate.  No-op without an interpreter.
  void Certify(const Query* original, ConjunctInfo* info) const {
    if (absint_ == nullptr) return;
    if (info->q.get() != original) {
      const analysis::Certificate* c = absint_->Find(original);
      if (c != nullptr) absint_->Register(info->q.get(), *c);
    }
    const analysis::Certificate* c = absint_->Find(info->q.get());
    if (c != nullptr) ClampToCert(*c, &info->est);
  }

  RelationStats StatsFor(const std::string& name,
                         const GeneralizedRelation& rel) {
    if (cache_ != nullptr) return cache_->Get(name, db_.version(), rel);
    return ComputeRelationStats(rel);
  }

  void Record(const ConjunctInfo& info) {
    estimates_[info.q.get()] = info.est;
  }

  const Database& db_;
  const SortMap& sorts_;
  StatsCache* cache_;
  analysis::AbstractInterpreter* absint_;
  PlanEstimateMap estimates_;
};

ConjunctInfo Planner::PlanAtom(const QueryPtr& q) {
  ConjunctInfo info;
  info.q = q;
  Result<GeneralizedRelation> rel = db_.Get(q->relation());
  if (!rel.ok()) {
    // Unknown relation: evaluation will fail regardless of order; estimate
    // empty so the failure surfaces as early as the written order would.
    info.est = {0.0, 0.0};
    return info;
  }
  RelationStats stats = StatsFor(q->relation(), rel.value());
  const int m = rel.value().schema().temporal_arity();
  double rows = stats.bit_empty ? 0.0 : static_cast<double>(stats.tuple_count);
  info.est.cost = static_cast<double>(stats.tuple_count);

  auto column_ndv = [&](int pos) -> double {
    const std::size_t upos = static_cast<std::size_t>(pos);
    if (pos < m) {
      return upos < stats.distinct_temporal.size()
                 ? std::max<double>(
                       1.0,
                       static_cast<double>(stats.distinct_temporal[upos]))
                 : 1.0;
    }
    const std::size_t dpos = static_cast<std::size_t>(pos - m);
    return dpos < stats.distinct_data.size()
               ? std::max<double>(
                     1.0, static_cast<double>(stats.distinct_data[dpos]))
               : 1.0;
  };

  // Constant arguments and repeated variables are selections applied inside
  // EvalAtom; each claims 1/ndv of its column.
  std::map<std::string, int> first_position;
  for (std::size_t i = 0; i < q->args().size(); ++i) {
    const Term& t = q->args()[i];
    const int pos = static_cast<int>(i);
    if (t.kind == Term::Kind::kVariable) {
      auto [it, inserted] = first_position.emplace(t.var, pos);
      if (!inserted) rows /= column_ndv(pos);
      continue;
    }
    // Temporal constants select one residue; data constants one key.
    rows /= column_ndv(pos);
  }
  rows = ClampRows(rows);
  info.est.rows = rows;
  for (const auto& [var, pos] : first_position) {
    info.ndv[var] = std::min(column_ndv(pos), std::max(rows, 1.0));
  }
  return info;
}

ConjunctInfo Planner::PlanCmp(const QueryPtr& q) {
  ConjunctInfo info;
  info.q = q;
  std::vector<std::string> vars = q->FreeVariables();
  const bool temporal =
      !vars.empty() && IsTemporal(sorts_, vars.front());
  if (vars.empty()) {
    // Ground comparison: a boolean gate, one tuple at most.
    info.est = {1.0, 1.0};
    return info;
  }
  if (temporal) {
    // One universe tuple with a constraint: cheap, and joining it pins or
    // narrows the shared column.  Equality discriminates fully; ranges and
    // disequalities claim progressively less.
    info.est.rows = q->cmp() == CmpOp::kNe ? 2.0 : 1.0;
    info.est.cost = 1.0;
    const double ndv = q->cmp() == CmpOp::kEq ? 1.0 : 4.0;
    for (const std::string& v : vars) info.ndv[v] = ndv;
    return info;
  }
  // Data comparisons enumerate active-domain combinations; without domain
  // statistics, price equality small and disequality large.
  const bool eq = q->cmp() == CmpOp::kEq;
  const bool two_vars = vars.size() > 1;
  info.est.rows = eq ? (two_vars ? 16.0 : 1.0) : 256.0;
  info.est.cost = info.est.rows;
  for (const std::string& v : vars) {
    info.ndv[v] = eq && !two_vars ? 1.0 : kUnknownNdv;
  }
  return info;
}

ConjunctInfo Planner::PlanChain(const QueryPtr& q) {
  std::vector<QueryPtr> conjuncts;
  FlattenConjuncts(q, &conjuncts);
  std::vector<ConjunctInfo> infos;
  infos.reserve(conjuncts.size());
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    ConjunctInfo info = PlanNode(conjuncts[i]);
    info.index = i;
    infos.push_back(std::move(info));
  }

  // Greedy left-deep order on the connectivity graph: the cheapest
  // variable-sharing pair seeds the chain, then the connected conjunct with
  // the smallest estimated intermediate extends it; conjuncts sharing no
  // variable with the running result (cross products, by A011) only enter
  // when nothing connected remains.  Ties break on original position, so
  // planning is deterministic and a statistics-free plan degenerates to the
  // written order.
  std::vector<std::size_t> remaining(infos.size());
  for (std::size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
  const analysis::Certificate* root =
      absint_ != nullptr ? absint_->Find(q.get()) : nullptr;
  const bool refuted = root != nullptr && root->ProvenEmpty();

  auto better = [](bool cand_cross, const PlanEstimate& cand,
                   std::size_t cand_idx, bool best_cross,
                   const PlanEstimate& best, std::size_t best_idx) {
    if (cand_cross != best_cross) return !cand_cross;
    if (cand.rows != best.rows) return cand.rows < best.rows;
    if (cand.cost != best.cost) return cand.cost < best.cost;
    return cand_idx < best_idx;
  };

  // Seed pair.
  std::size_t best_a = 0;
  std::size_t best_b = 1;
  bool have_best = false;
  bool best_cross = true;
  ConjunctInfo best_joined;
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    for (std::size_t j = i + 1; j < remaining.size(); ++j) {
      const ConjunctInfo& a = infos[i];
      const ConjunctInfo& b = infos[j];
      const bool cross = !SharesVariable(a, b);
      ConjunctInfo joined = ClampedJoinInfo(a, b, refuted);
      if (!have_best ||
          better(cross, joined.est, i * remaining.size() + j, best_cross,
                 best_joined.est, best_a * remaining.size() + best_b)) {
        have_best = true;
        best_cross = cross;
        best_joined = std::move(joined);
        best_a = i;
        best_b = j;
      }
    }
  }

  // Left operand of the seed: the smaller side (the evaluator's indexed
  // join hashes the right operand, and EXPLAIN reads better with the
  // driving conjunct first).  Ties keep written order.
  if (infos[best_b].est.rows < infos[best_a].est.rows) {
    std::swap(best_a, best_b);
  }
  ConjunctInfo current = infos[best_a];
  QueryPtr planned = current.q;
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    if (i != best_a && i != best_b) pending.push_back(i);
  }
  std::size_t next = best_b;
  while (true) {
    ConjunctInfo joined = ClampedJoinInfo(current, infos[next], refuted);
    QueryPtr prev = planned;
    planned = Query::And(planned, infos[next].q);
    joined.q = planned;
    if (absint_ != nullptr) {
      // Certify the freshly built AND: certificates key on node identity,
      // and this node did not exist when the tree was interpreted.
      const analysis::Certificate* cl = absint_->Find(prev.get());
      const analysis::Certificate* cr = absint_->Find(infos[next].q.get());
      if (cl != nullptr && cr != nullptr) {
        absint_->Register(planned.get(), absint_->Conjoin(*cl, *cr));
      }
    }
    Record(joined);
    current = std::move(joined);
    if (pending.empty()) break;
    std::size_t choice = 0;
    bool have = false;
    bool choice_cross = true;
    ConjunctInfo choice_joined;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const ConjunctInfo& cand = infos[pending[k]];
      const bool cross = !SharesVariable(current, cand);
      ConjunctInfo j = ClampedJoinInfo(current, cand, refuted);
      if (!have || better(cross, j.est, cand.index, choice_cross,
                          choice_joined.est, infos[pending[choice]].index)) {
        have = true;
        choice_cross = cross;
        choice_joined = std::move(j);
        choice = k;
      }
    }
    next = pending[choice];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(choice));
  }
  return current;
}

ConjunctInfo Planner::PlanNode(const QueryPtr& q) {
  switch (q->kind()) {
    case Query::Kind::kAtom: {
      ConjunctInfo info = PlanAtom(q);
      Certify(q.get(), &info);
      Record(info);
      return info;
    }
    case Query::Kind::kCmp: {
      ConjunctInfo info = PlanCmp(q);
      Certify(q.get(), &info);
      Record(info);
      return info;
    }
    case Query::Kind::kAnd:
      // PlanChain records the estimate of every AND node it builds.
      return PlanChain(q);
    case Query::Kind::kOr: {
      ConjunctInfo l = PlanNode(q->left());
      ConjunctInfo r = PlanNode(q->right());
      ConjunctInfo info;
      info.q = l.q == q->left() && r.q == q->right()
                   ? q
                   : Query::Or(l.q, r.q);
      info.est.rows = ClampRows(l.est.rows + r.est.rows);
      info.est.cost = l.est.cost + r.est.cost + info.est.rows;
      info.ndv = l.ndv;
      for (const auto& [var, ndv] : r.ndv) {
        auto [it, inserted] = info.ndv.emplace(var, ndv);
        if (!inserted) it->second = ClampRows(it->second + ndv);
      }
      Certify(q.get(), &info);
      Record(info);
      return info;
    }
    case Query::Kind::kNot: {
      ConjunctInfo child = PlanNode(q->left());
      ConjunctInfo info;
      info.q = child.q == q->left() ? q : Query::Not(child.q);
      const int width = FreeTemporalWidth(*q->left(), sorts_);
      info.est.rows = ClampRows(std::max(child.est.rows, 1.0) *
                                std::pow(kComplementBase, width));
      info.est.cost = child.est.cost + info.est.rows;
      for (const std::string& v : q->FreeVariables()) {
        info.ndv[v] = std::max(info.est.rows, 1.0);
      }
      Certify(q.get(), &info);
      Record(info);
      return info;
    }
    case Query::Kind::kExists: {
      ConjunctInfo child = PlanNode(q->left());
      ConjunctInfo info;
      info.q = child.q == q->left()
                   ? q
                   : Query::Exists(q->quantified_var(), child.q);
      info.est.rows = child.est.rows;
      info.est.cost = child.est.cost + child.est.rows;
      info.ndv = std::move(child.ndv);
      info.ndv.erase(q->quantified_var());
      Certify(q.get(), &info);
      Record(info);
      return info;
    }
  }
  ConjunctInfo info;
  info.q = q;
  Record(info);
  return info;
}

}  // namespace

void FlattenConjuncts(const QueryPtr& q, std::vector<QueryPtr>* out) {
  if (q->kind() == Query::Kind::kAnd) {
    FlattenConjuncts(q->left(), out);
    FlattenConjuncts(q->right(), out);
    return;
  }
  out->push_back(q);
}

std::vector<std::size_t> GroupConjuncts(
    const std::vector<QueryPtr>& conjuncts) {
  std::vector<std::size_t> group(conjuncts.size());
  std::map<std::string, std::size_t> owner;  // Variable -> its group.
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    group[i] = i;
    for (const std::string& v : conjuncts[i]->FreeVariables()) {
      auto [it, fresh] = owner.emplace(v, group[i]);
      if (fresh || group[i] == it->second) continue;
      // Merge the later group into the earlier one.
      const std::size_t from = std::max(group[i], it->second);
      const std::size_t to = std::min(group[i], it->second);
      for (std::size_t& g : group) {
        if (g == from) g = to;
      }
      for (auto& [var, g] : owner) {
        if (g == from) g = to;
      }
    }
  }
  return group;
}

PlannedQuery PlanQuery(const Database& db, const QueryPtr& q,
                       const SortMap& sorts, StatsCache* stats_cache,
                       analysis::AbstractInterpreter* absint) {
  Planner planner(db, sorts, stats_cache, absint);
  ConjunctInfo root = planner.PlanNode(q);
  PlannedQuery out;
  out.query = std::move(root.q);
  out.estimates = planner.take_estimates();
  return out;
}

std::string FormatQueryPlanWithEstimates(
    const QueryPtr& q, const PlanEstimateMap& estimates,
    const analysis::CertificateMap* certificates) {
  std::string out;
  auto walk = [&](auto&& self, const Query& node, int depth) -> void {
    out.append(static_cast<std::size_t>(2 * depth), ' ');
    out += PlanNodeLabel(node);
    auto it = estimates.find(&node);
    const analysis::Certificate* cert = nullptr;
    if (certificates != nullptr) {
      auto cit = certificates->find(&node);
      if (cit != certificates->end()) cert = &cit->second;
    }
    if (it != estimates.end() || cert != nullptr) {
      out += "  (";
      if (it != estimates.end()) {
        out += "est_rows=" +
               std::to_string(static_cast<std::int64_t>(
                   std::llround(std::min(it->second.rows, kMaxRows)))) +
               ", est_cost=" +
               std::to_string(static_cast<std::int64_t>(
                   std::llround(std::min(it->second.cost, kMaxRows))));
        if (cert != nullptr) out += ", ";
      }
      if (cert != nullptr) out += analysis::FormatCertificate(*cert);
      out += ")";
    }
    out += '\n';
    switch (node.kind()) {
      case Query::Kind::kAnd:
      case Query::Kind::kOr:
        self(self, *node.left(), depth + 1);
        self(self, *node.right(), depth + 1);
        break;
      case Query::Kind::kNot:
      case Query::Kind::kExists:
        self(self, *node.left(), depth + 1);
        break;
      case Query::Kind::kAtom:
      case Query::Kind::kCmp:
        break;
    }
  };
  walk(walk, *q, 0);
  return out;
}

}  // namespace query
}  // namespace itdb
