#include "core/algebra.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "core/index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/numeric.h"
#include "util/thread_pool.h"

namespace itdb {

namespace {

/// Per-operation observability: bumps the central "algebra.<op>" invocation
/// counter and, when a tracer is attached (options.tracer or the installed
/// global one), opens a span in category "algebra" tagged with the input
/// sizes.  The returned span closes (and records wall/CPU time) when it
/// leaves scope.  Pure observer: never touches results.
obs::Span OpSpan(const AlgebraOptions& options, const char* name,
                 const GeneralizedRelation* a,
                 const GeneralizedRelation* b = nullptr) {
  obs::AddGlobalCounter(std::string("algebra.") + name, 1);
  obs::Tracer* tracer = obs::ResolveTracer(options.tracer);
  if (tracer == nullptr) return obs::Span();
  obs::Span span = obs::Span::Begin(tracer, name, "algebra");
  if (a != nullptr) span.AddArg("tuples_in_a", a->size());
  if (b != nullptr) span.AddArg("tuples_in_b", b->size());
  return span;
}

/// The normalization options an algebra operation runs under.
NormalizeOptions NormalizeOptionsOf(const AlgebraOptions& options) {
  return NormalizeOptions{options.max_split_product};
}

/// Relaxed add on an optional KernelCounters field (the fields are atomic,
/// so a reader on another thread sees whole values).
void BumpCounter(std::atomic<std::int64_t> KernelCounters::*field,
                 const AlgebraOptions& options, std::int64_t v) {
  if (options.counters != nullptr && v != 0) {
    (options.counters->*field).fetch_add(v, std::memory_order_relaxed);
  }
}

Status CheckSameSchema(const GeneralizedRelation& a,
                       const GeneralizedRelation& b, const char* op) {
  if (a.schema() != b.schema()) {
    return Status::InvalidArgument(std::string(op) +
                                   ": schemas differ: " + a.schema().ToString() +
                                   " vs " + b.schema().ToString());
  }
  return Status::Ok();
}

Status CheckBudget(std::int64_t count, const AlgebraOptions& options,
                   const char* op) {
  if (count > options.max_tuples) {
    return Status::ResourceExhausted(std::string(op) + ": result exceeds " +
                                     std::to_string(options.max_tuples) +
                                     " tuples");
  }
  return Status::Ok();
}

/// Closes a copy of the tuple's constraints; returns nullopt when they are
/// infeasible already over the reals (cheap prune -- lattice-exact emptiness
/// is TupleIsEmpty's job).
Result<std::optional<GeneralizedTuple>> PruneByRelaxation(GeneralizedTuple t) {
  Dbm closed = t.constraints();
  ITDB_RETURN_IF_ERROR(closed.Close());
  if (!closed.feasible()) return std::optional<GeneralizedTuple>();
  t.set_constraints(std::move(closed));
  return std::optional<GeneralizedTuple>(std::move(t));
}

/// t1 - t2 for tuples of identical schema (Section 3.3.3 and Figure 1):
///   t1 - t2 = (t1 - t2*) U (not(t2) ^ t1).
/// `c2` is t2's constraints, closed by the caller (Subtract hoists the
/// closure out of the per-t1 loop: it is the same matrix for every t1 of a
/// round).
Result<std::vector<GeneralizedTuple>> SubtractTuples(
    const GeneralizedTuple& t1, const GeneralizedTuple& t2, const Dbm& c2,
    const AlgebraOptions& options) {
  std::vector<GeneralizedTuple> out;
  if (t1.data() != t2.data()) {
    out.push_back(t1);
    return out;
  }
  int m = t1.temporal_arity();
  // If t2's constraints are already contradictory, t2 is empty.
  if (!c2.feasible()) {
    out.push_back(t1);
    return out;
  }
  // Free extensions disjoint on some column (the O(1) residue-class test,
  // core/index.h): t1 - t2 == t1.
  for (int i = 0; i < m; ++i) {
    if (LrpIntersectionEmpty(t1.lrp(i), t2.lrp(i))) {
      BumpCounter(&KernelCounters::pairs_pruned_residue, options, 1);
      out.push_back(t1);
      return out;
    }
  }
  // Componentwise intersection of the free extensions t3* = t1* ^ t2*, none
  // empty after the test above.
  std::vector<Lrp> inter;
  inter.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    ITDB_ASSIGN_OR_RETURN(std::optional<Lrp> x,
                          Lrp::Intersect(t1.lrp(i), t2.lrp(i)));
    inter.push_back(*x);
  }
  // Part 1: r3 = (t1* - t2*) with t1's constraints.  A point of t1* escapes
  // t3* iff at least one coordinate escapes the intersected lrp.
  for (int i = 0; i < m; ++i) {
    ITDB_ASSIGN_OR_RETURN(LrpDifference diff,
                          Lrp::Subtract(t1.lrp(i), inter[static_cast<std::size_t>(i)]));
    for (const Lrp& part : diff.parts) {
      std::vector<Lrp> lrps = t1.temporal();
      lrps[static_cast<std::size_t>(i)] = part;
      GeneralizedTuple t(std::move(lrps), t1.data());
      t.set_constraints(t1.constraints());
      ITDB_ASSIGN_OR_RETURN(std::optional<GeneralizedTuple> pruned,
                            PruneByRelaxation(std::move(t)));
      if (pruned.has_value()) out.push_back(std::move(*pruned));
    }
    if (diff.punctured.has_value()) {
      // Removing the single point p from an infinite lrp: representable with
      // bound constraints (X_i <= p-1) / (X_i >= p+1).
      const std::int64_t p = diff.punctured->point;
      for (int side = 0; side < 2; ++side) {
        std::vector<Lrp> lrps = t1.temporal();
        lrps[static_cast<std::size_t>(i)] = diff.punctured->base;
        GeneralizedTuple t(std::move(lrps), t1.data());
        Dbm c = t1.constraints();
        if (side == 0) {
          ITDB_ASSIGN_OR_RETURN(std::int64_t b, CheckedSub(p, 1));
          c.AddUpperBound(i, b);
        } else {
          ITDB_ASSIGN_OR_RETURN(std::int64_t b, CheckedAdd(p, 1));
          c.AddLowerBound(i, b);
        }
        t.set_constraints(std::move(c));
        ITDB_ASSIGN_OR_RETURN(std::optional<GeneralizedTuple> pruned,
                              PruneByRelaxation(std::move(t)));
        if (pruned.has_value()) out.push_back(std::move(*pruned));
      }
    }
  }
  // Part 2: r4 = not(t2) ^ t1: points on t3* that satisfy t1's constraints
  // but violate at least one of t2's.  One tuple per negated atomic
  // constraint (the paper's disjunction splitting).
  for (const AtomicConstraint& a : c2.MinimalAtomics()) {
    GeneralizedTuple t(inter, t1.data());
    Dbm c = t1.constraints();
    c.AddAtomic(a.Negated());
    t.set_constraints(std::move(c));
    ITDB_ASSIGN_OR_RETURN(std::optional<GeneralizedTuple> pruned,
                          PruneByRelaxation(std::move(t)));
    if (pruned.has_value()) out.push_back(std::move(*pruned));
  }
  return out;
}

}  // namespace

Result<GeneralizedRelation> Union(const GeneralizedRelation& a,
                                  const GeneralizedRelation& b,
                                  const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "Union", &a, &b);
  ITDB_RETURN_IF_ERROR(CheckSameSchema(a, b, "Union"));
  ITDB_RETURN_IF_ERROR(
      CheckBudget(static_cast<std::int64_t>(a.size()) + b.size(), options,
                  "Union"));
  GeneralizedRelation out(a.schema());
  for (const GeneralizedTuple& t : a.tuples()) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(t));
  }
  for (const GeneralizedTuple& t : b.tuples()) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(t));
  }
  return out;
}

namespace {

/// The rows that the buckets reach and `slot` does not list yet, in
/// first-touch order.  Gives each the next free position among the
/// `hoisted` rows listed so far (slot[j] < 0 marks an unlisted row), so
/// state hoisted per touched row is found by b index.  Collecting the rows
/// first lets callers reserve before hoisting.
std::vector<std::size_t> TouchedRows(
    std::span<const std::span<const std::size_t>> buckets,
    std::vector<std::int64_t>& slot, std::size_t hoisted) {
  std::vector<std::size_t> touched;
  for (std::span<const std::size_t> bucket : buckets) {
    for (std::size_t j : bucket) {
      if (slot[j] < 0) {
        slot[j] = static_cast<std::int64_t>(hoisted + touched.size());
        touched.push_back(j);
      }
    }
  }
  return touched;
}

/// Section 3's pairwise step, which both intersection and natural join are
/// built from, over every row of `a`: for each pair that agrees on the
/// matched data columns, the CRT intersection of the matched lrps and the
/// closed conjunction of the two constraint systems.  The output's tuples
/// come in pair order (a's rows outer, b's rows ascending).  Every row is
/// probed before any pair is joined, so the budget charges the candidate
/// pairs of the whole operation before any pair work.
Result<GeneralizedRelation> JoinKernel(const GeneralizedRelation& a,
                                       JoinProbe probe) {
  std::vector<std::span<const std::size_t>> a_buckets(a.tuples().size());
  for (std::size_t i = 0; i < a.tuples().size(); ++i) {
    ITDB_ASSIGN_OR_RETURN(a_buckets[i], probe.Candidates(a.tuples()[i]));
  }
  probe.Hoist(a_buckets);
  std::vector<GeneralizedTuple> tuples;
  for (std::size_t i = 0; i < a.tuples().size(); ++i) {
    ITDB_RETURN_IF_ERROR(CheckCancellationAt(static_cast<std::int64_t>(i)));
    ITDB_RETURN_IF_ERROR(probe.Probe(a.tuples()[i], a_buckets[i], tuples));
  }
  GeneralizedRelation out(probe.schema());
  for (GeneralizedTuple& t : tuples) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
  }
  return out;
}

}  // namespace

JoinProbe::JoinProbe(const Schema& a_schema, const GeneralizedRelation& b,
                     std::vector<int> b_temporal_match,
                     std::vector<int> b_data_match,
                     const AlgebraOptions& options, const char* op)
    : b_(&b),
      options_(options),
      op_(op),
      b_temporal_match_(std::move(b_temporal_match)),
      ma_(a_schema.temporal_arity()),
      slot_(b.tuples().size(), -1) {
  const Schema& sb = b.schema();
  const int mb = sb.temporal_arity();
  // Output schema: all of a's attributes, then b's non-shared ones.
  std::vector<std::string> temporal_names = a_schema.temporal_names();
  b_temporal_target_.assign(static_cast<std::size_t>(mb), -1);
  for (int j = 0; j < mb; ++j) {
    const int match = b_temporal_match_[static_cast<std::size_t>(j)];
    if (match >= 0) {
      b_temporal_target_[static_cast<std::size_t>(j)] = match;
      shared_temporal_.emplace_back(match, j);
    } else {
      b_temporal_target_[static_cast<std::size_t>(j)] =
          static_cast<int>(temporal_names.size());
      temporal_names.push_back(sb.temporal_name(j));
    }
  }
  m_out_ = static_cast<int>(temporal_names.size());
  std::vector<std::string> data_names = a_schema.data_names();
  std::vector<DataType> data_types = a_schema.data_types();
  // Shared data columns drive the hash partition; shared temporal columns
  // drive the prefilters.
  std::vector<int> b_key_cols;
  for (int j = 0; j < sb.data_arity(); ++j) {
    const int i = b_data_match[static_cast<std::size_t>(j)];
    if (i >= 0) {
      a_key_cols_.push_back(i);
      b_key_cols.push_back(j);
    } else {
      b_new_data_.push_back(j);
      data_names.push_back(sb.data_name(j));
      data_types.push_back(sb.data_type(j));
    }
  }
  schema_ = Schema(std::move(temporal_names), std::move(data_names),
                   std::move(data_types));
  index_.emplace(b, std::move(b_key_cols));
}

Result<JoinProbe> JoinProbe::ForJoin(const Schema& a_schema,
                                     const GeneralizedRelation& b,
                                     const AlgebraOptions& options) {
  const Schema& sb = b.schema();
  const int mb = sb.temporal_arity();
  // For each of b's temporal columns: matching column of a, or -1.
  std::vector<int> b_temporal_match(static_cast<std::size_t>(mb), -1);
  for (int j = 0; j < mb; ++j) {
    if (std::optional<int> i = a_schema.FindTemporal(sb.temporal_name(j))) {
      b_temporal_match[static_cast<std::size_t>(j)] = *i;
    }
  }
  std::vector<int> b_data_match(static_cast<std::size_t>(sb.data_arity()), -1);
  for (int j = 0; j < sb.data_arity(); ++j) {
    if (std::optional<int> i = a_schema.FindData(sb.data_name(j))) {
      b_data_match[static_cast<std::size_t>(j)] = *i;
      if (a_schema.data_type(*i) != sb.data_type(j)) {
        return Status::InvalidArgument(
            "Join: shared data attribute \"" + sb.data_name(j) +
            "\" has different types");
      }
    }
  }
  return JoinProbe(a_schema, b, std::move(b_temporal_match),
                   std::move(b_data_match), options, "Join");
}

Result<std::span<const std::size_t>> JoinProbe::Candidates(
    const GeneralizedTuple& ta) {
  std::span<const std::size_t> bucket = index_->Candidates(ta, a_key_cols_);
  BumpCounter(&KernelCounters::pairs_total, options_,
              static_cast<std::int64_t>(b_->size()));
  BumpCounter(&KernelCounters::pairs_candidate, options_,
              static_cast<std::int64_t>(bucket.size()));
  candidates_ += static_cast<std::int64_t>(bucket.size());
  ITDB_RETURN_IF_ERROR(CheckBudget(candidates_, options_, op_));
  return bucket;
}

void JoinProbe::Hoist(std::span<const std::span<const std::size_t>> buckets) {
  // Both depend only on the b row, so they are computed once per row
  // instead of once per pair.
  const std::vector<std::size_t> touched =
      TouchedRows(buckets, slot_, hull_b_.size());
  hull_b_.reserve(hull_b_.size() + touched.size());
  cb_mapped_.reserve(cb_mapped_.size() + touched.size());
  for (std::size_t j : touched) {
    const GeneralizedTuple& tb = b_->tuples()[j];
    hull_b_.push_back(TemporalHull::Of(tb));
    cb_mapped_.push_back(
        tb.constraints().MapVariables(b_temporal_target_, m_out_));
  }
}

Status JoinProbe::Probe(const GeneralizedTuple& ta,
                        std::span<const std::size_t> bucket,
                        std::vector<GeneralizedTuple>& out) const {
  if (bucket.empty()) return Status::Ok();
  const int mb = b_->schema().temporal_arity();
  TemporalHull ha = TemporalHull::Of(ta);
  std::optional<Dbm> ca_ext;
  if (ha.usable()) {
    ca_ext = ha.closed->AppendVariablesClosed(m_out_ - ma_);
  }
  for (std::size_t j : bucket) {
    const GeneralizedTuple& tb = b_->tuples()[j];
    bool residue_empty = false;
    for (const auto& [ca_col, cb_col] : shared_temporal_) {
      if (LrpIntersectionEmpty(ta.lrp(ca_col), tb.lrp(cb_col))) {
        residue_empty = true;
        break;
      }
    }
    if (residue_empty) {
      BumpCounter(&KernelCounters::pairs_pruned_residue, options_, 1);
      continue;
    }
    const auto slot = static_cast<std::size_t>(slot_[j]);
    const TemporalHull& hb = hull_b_[slot];
    if (ha.infeasible || hb.infeasible ||
        HullsDisjoint(ha, hb, shared_temporal_)) {
      BumpCounter(&KernelCounters::pairs_pruned_hull, options_, 1);
      continue;
    }
    // Shared temporal columns: CRT intersection of the lrps.
    std::vector<Lrp> lrps = ta.temporal();
    lrps.resize(static_cast<std::size_t>(m_out_));
    bool temporal_ok = true;
    for (int jb = 0; jb < mb && temporal_ok; ++jb) {
      const auto col = static_cast<std::size_t>(jb);
      const int match = b_temporal_match_[col];
      Lrp& target = lrps[static_cast<std::size_t>(b_temporal_target_[col])];
      if (match < 0) {
        target = tb.lrp(jb);
        continue;
      }
      ITDB_ASSIGN_OR_RETURN(std::optional<Lrp> inter,
                            Lrp::Intersect(ta.lrp(match), tb.lrp(jb)));
      temporal_ok = inter.has_value();
      if (temporal_ok) target = *inter;
    }
    if (!temporal_ok) continue;
    std::vector<Value> data = ta.data();
    for (int j2 : b_new_data_) data.push_back(tb.value(j2));
    GeneralizedTuple t(std::move(lrps), std::move(data));
    Dbm merged(m_out_);
    const Dbm& cb = cb_mapped_[slot];
    if (ca_ext.has_value()) {
      ITDB_ASSIGN_OR_RETURN(
          merged, ConjoinOntoClosed(*ca_ext, cb, options_.counters));
    } else {
      // ta's own closure overflowed: close the raw conjunction in full,
      // so the status is the one that closure reports.
      Dbm ca = ta.constraints().AppendVariables(m_out_ - ma_);
      merged = Dbm::Conjoin(ca, cb);
      ITDB_RETURN_IF_ERROR(merged.Close());
    }
    if (!merged.feasible()) continue;
    t.set_constraints(std::move(merged));
    out.push_back(std::move(t));
  }
  return Status::Ok();
}

Result<GeneralizedRelation> Intersect(const GeneralizedRelation& a,
                                      const GeneralizedRelation& b,
                                      const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "Intersect", &a, &b);
  ITDB_RETURN_IF_ERROR(CheckSameSchema(a, b, "Intersect"));
  // Over one schema every column is shared, position for position: the
  // intersection is the natural join of the two relations.
  std::vector<int> temporal(
      static_cast<std::size_t>(a.schema().temporal_arity()));
  std::iota(temporal.begin(), temporal.end(), 0);
  std::vector<int> data(static_cast<std::size_t>(a.schema().data_arity()));
  std::iota(data.begin(), data.end(), 0);
  return JoinKernel(a, JoinProbe(a.schema(), b, std::move(temporal),
                                 std::move(data), options, "Intersect"));
}

Result<GeneralizedRelation> Subtract(const GeneralizedRelation& a,
                                     const GeneralizedRelation& b,
                                     const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "Subtract", &a, &b);
  ITDB_RETURN_IF_ERROR(CheckSameSchema(a, b, "Subtract"));
  GeneralizedRelation current = a;
  // Round skipping: every tuple SubtractTuples emits inherits t1's data
  // values, so the data keys of `current` never change across rounds.  A
  // key probe of t2 against the partition of the original `a` therefore
  // decides in O(1) whether the whole round is the identity.
  const bool keyed = a.schema().data_arity() > 0;
  std::vector<int> key_cols(static_cast<std::size_t>(a.schema().data_arity()));
  std::iota(key_cols.begin(), key_cols.end(), 0);
  std::optional<DataKeyIndex> index;
  if (keyed) index.emplace(a, key_cols);
  for (const GeneralizedTuple& t2 : b.tuples()) {
    if (current.size() == 0) break;
    BumpCounter(&KernelCounters::pairs_total, options, current.size());
    // When no residue shares t2's data values the round maps every t1 to
    // {t1}: skip it (keeping the per-round budget check).  This mirrors
    // SubtractTuples' data-mismatch early exit, which also never looks at
    // t2's constraints.  The partition covers the original `a`, a superset
    // of the surviving residues, so an empty bucket proves that no survivor
    // matches; a nonempty one leaves the survivors to a linear scan.
    const bool any_match =
        !keyed || (!index->Candidates(t2, key_cols).empty() &&
                   std::any_of(current.tuples().begin(),
                               current.tuples().end(),
                               [&t2](const GeneralizedTuple& t1) {
                                 return t1.data() == t2.data();
                               }));
    if (!any_match) {
      ITDB_RETURN_IF_ERROR(CheckBudget(current.size(), options, "Subtract"));
      continue;
    }
    BumpCounter(&KernelCounters::pairs_candidate, options, current.size());
    // The closure of t2's constraints is the same matrix for every t1:
    // hoist it out of the per-residue loop.
    Dbm c2 = t2.constraints();
    ITDB_RETURN_IF_ERROR(c2.Close());
    // One round subtracts t2 from every residue, in residue order.  Residues
    // of different t1 can coincide, and each round would multiply every
    // copy, so the round keeps one copy of equal residues.  The budget is
    // checked on the whole round after that.
    GeneralizedRelation next(a.schema());
    for (std::size_t i = 0; i < current.tuples().size(); ++i) {
      ITDB_RETURN_IF_ERROR(CheckCancellationAt(static_cast<std::int64_t>(i)));
      ITDB_ASSIGN_OR_RETURN(
          std::vector<GeneralizedTuple> parts,
          SubtractTuples(current.tuples()[i], t2, c2, options));
      for (GeneralizedTuple& p : parts) {
        ITDB_RETURN_IF_ERROR(next.AddTuple(std::move(p)));
      }
    }
    next.KeepFirstOfEqual(options.counters);
    ITDB_RETURN_IF_ERROR(CheckBudget(next.size(), options, "Subtract"));
    current = std::move(next);
  }
  return current;
}

namespace {

/// Incremental-DNF complement of the constraint sets sharing one free
/// extension (Appendix A.6): starts from the unconstrained system and
/// conjoins, one input tuple at a time, the disjunction of its negated
/// atomics, reducing after each step (closure + infeasibility pruning +
/// exact-duplicate and subsumption elimination).  This keeps intermediate
/// sizes within the paper's (N+1)^{m(m+1)} bound instead of (m(m+1))^N.
Result<std::vector<Dbm>> ComplementConstraintSets(
    int num_vars, const std::vector<Dbm>& constraint_sets,
    const AlgebraOptions& options) {
  std::vector<Dbm> current;
  current.push_back(Dbm(num_vars));  // Unconstrained; trivially closed.
  for (const Dbm& c : constraint_sets) {
    std::vector<AtomicConstraint> atoms = c.MinimalAtomics();
    if (atoms.empty()) return std::vector<Dbm>{};  // not(true) == false.
    std::vector<Dbm> next;
    for (const Dbm& s : current) {
      for (const AtomicConstraint& a : atoms) {
        // Every system in `current` is closed and feasible, so one negated
        // atomic can be folded in with the O(n^2) incremental closure.
        Dbm d = s;
        if (d.TightenAndClose(a.Negated()) ==
            Dbm::TightenResult::kFallbackNeeded) {
          BumpCounter(&KernelCounters::closures_full, options, 1);
          d.AddAtomic(a.Negated());
          ITDB_RETURN_IF_ERROR(d.Close());
        } else {
          BumpCounter(&KernelCounters::closures_incremental, options, 1);
        }
        if (!d.feasible()) continue;
        // Reduction: drop d if subsumed by a kept system; drop kept systems
        // subsumed by d.
        bool subsumed = false;
        for (std::size_t i = 0; i < next.size(); ++i) {
          if (d.Implies(next[i])) {
            subsumed = true;
            break;
          }
        }
        if (subsumed) continue;
        std::erase_if(next, [&d](const Dbm& e) { return e.Implies(d); });
        next.push_back(std::move(d));
        ITDB_RETURN_IF_ERROR(
            CheckBudget(static_cast<std::int64_t>(next.size()), options,
                        "Complement (DNF)"));
      }
    }
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

}  // namespace

Result<GeneralizedRelation> Complement(const GeneralizedRelation& r,
                                       const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "Complement", &r);
  if (r.schema().data_arity() != 0) {
    return Status::InvalidArgument(
        "Complement requires a purely temporal relation; use "
        "ComplementWithDataDomains");
  }
  const int m = r.schema().temporal_arity();
  ITDB_ASSIGN_OR_RETURN(std::int64_t k, CommonPeriod(r));
  // Universe budget: k^m residue vectors.
  __int128 universe = 1;
  for (int i = 0; i < m; ++i) {
    universe *= static_cast<__int128>(k);
    if (universe > static_cast<__int128>(options.max_split_product)) {
      return Status::ResourceExhausted(
          "Complement: residue universe k^m = " + std::to_string(k) + "^" +
          std::to_string(m) + " exceeds budget");
    }
  }
  // Normalize every tuple to period k and turn constant columns into full
  // residue classes pinned by an equality constraint, so that every tuple's
  // free extension is a plain residue vector.
  std::map<std::vector<std::int64_t>, std::vector<Dbm>> groups;
  for (const GeneralizedTuple& t : r.tuples()) {
    ITDB_ASSIGN_OR_RETURN(
        std::vector<GeneralizedTuple> normal,
        CachedNormalizeTupleToPeriod(options.normalize_cache, t, k,
                                     NormalizeOptionsOf(options)));
    for (GeneralizedTuple& nt : normal) {
      std::vector<std::int64_t> residues(static_cast<std::size_t>(m));
      Dbm constraints = nt.constraints();
      for (int i = 0; i < m; ++i) {
        const Lrp& l = nt.lrp(i);
        if (l.period() == 0) {
          residues[static_cast<std::size_t>(i)] = FloorMod(l.offset(), k);
          constraints.AddEquality(i, l.offset());
        } else {
          residues[static_cast<std::size_t>(i)] = l.offset();
        }
      }
      ITDB_RETURN_IF_ERROR(constraints.Close());
      if (!constraints.feasible()) continue;
      groups[std::move(residues)].push_back(std::move(constraints));
    }
  }
  // Enumerate the k^m universe in odometer order, the LAST column varying
  // fastest: residue vector `index` is `index` in base k.  Each residue
  // class is complemented on its own; the tuple budget is checked once, on
  // the whole result.
  std::vector<GeneralizedTuple> tuples;
  for (std::int64_t index = 0; index < static_cast<std::int64_t>(universe);
       ++index) {
    ITDB_RETURN_IF_ERROR(CheckCancellationAt(index));
    std::vector<std::int64_t> rv(static_cast<std::size_t>(m), 0);
    std::int64_t rest = index;
    for (int i = m - 1; i >= 0; --i) {
      rv[static_cast<std::size_t>(i)] = rest % k;
      rest /= k;
    }
    std::vector<Lrp> lrps;
    lrps.reserve(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      lrps.push_back(Lrp::Make(rv[static_cast<std::size_t>(i)], k));
    }
    auto it = groups.find(rv);
    if (it == groups.end()) {
      tuples.push_back(GeneralizedTuple(std::move(lrps)));
      continue;
    }
    ITDB_ASSIGN_OR_RETURN(
        std::vector<Dbm> systems,
        ComplementConstraintSets(m, it->second, options));
    for (Dbm& s : systems) {
      GeneralizedTuple t(lrps);
      t.set_constraints(std::move(s));
      tuples.push_back(std::move(t));
    }
  }
  ITDB_RETURN_IF_ERROR(
      CheckBudget(static_cast<std::int64_t>(tuples.size()), options,
                  "Complement"));
  GeneralizedRelation out(r.schema());
  for (GeneralizedTuple& t : tuples) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
  }
  return out;
}

Result<GeneralizedRelation> ComplementWithDataDomains(
    const GeneralizedRelation& r,
    const std::vector<std::vector<Value>>& domains,
    const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "ComplementWithDataDomains", &r);
  const int l = r.schema().data_arity();
  if (static_cast<int>(domains.size()) != l) {
    return Status::InvalidArgument(
        "ComplementWithDataDomains: need one domain per data column");
  }
  if (l == 0) return Complement(r, options);
  for (const std::vector<Value>& d : domains) {
    if (d.empty()) {
      // Empty domain: the universe itself is empty.
      return GeneralizedRelation(r.schema());
    }
  }
  Schema temporal_schema(r.schema().temporal_names(), {}, {});
  GeneralizedRelation out(r.schema());
  // Enumerate every data-value combination of the domain product.
  std::vector<std::size_t> idx(static_cast<std::size_t>(l), 0);
  while (true) {
    std::vector<Value> combo;
    combo.reserve(static_cast<std::size_t>(l));
    for (int i = 0; i < l; ++i) {
      combo.push_back(
          domains[static_cast<std::size_t>(i)][idx[static_cast<std::size_t>(i)]]);
    }
    // Temporal slice of r at this data combination.
    GeneralizedRelation slice(temporal_schema);
    for (const GeneralizedTuple& t : r.tuples()) {
      if (t.data() != combo) continue;
      GeneralizedTuple bare(t.temporal());
      bare.set_constraints(t.constraints());
      ITDB_RETURN_IF_ERROR(slice.AddTuple(std::move(bare)));
    }
    ITDB_ASSIGN_OR_RETURN(GeneralizedRelation comp,
                          Complement(slice, options));
    for (const GeneralizedTuple& t : comp.tuples()) {
      GeneralizedTuple full(t.temporal(), combo);
      full.set_constraints(t.constraints());
      ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(full)));
    }
    ITDB_RETURN_IF_ERROR(
        CheckBudget(static_cast<std::int64_t>(out.size()), options,
                    "ComplementWithDataDomains"));
    int d = l - 1;
    while (d >= 0) {
      std::size_t ud = static_cast<std::size_t>(d);
      if (++idx[ud] < domains[ud].size()) break;
      idx[ud] = 0;
      --d;
    }
    if (d < 0) break;
  }
  return out;
}

namespace {

/// The tuple whose column i is t's column columns[i], without data: those
/// lrps and every atomic whose endpoints both lie among them, renumbered.
/// A negative columns[i] leaves column i unconstrained, with lrp {0}.
GeneralizedTuple Restrict(const GeneralizedTuple& t,
                          const std::vector<int>& columns) {
  // index[c]: column c's place in `columns`, or -2 (below kZeroVar).
  std::vector<int> index(static_cast<std::size_t>(t.temporal_arity()), -2);
  std::vector<Lrp> lrps(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] < 0) continue;
    index[static_cast<std::size_t>(columns[i])] = static_cast<int>(i);
    lrps[i] = t.lrp(columns[i]);
  }
  GeneralizedTuple out(std::move(lrps));
  Dbm& constraints = out.mutable_constraints();
  for (AtomicConstraint a : t.constraints().ToAtomics()) {
    if (a.lhs != kZeroVar) a.lhs = index[static_cast<std::size_t>(a.lhs)];
    if (a.rhs != kZeroVar) a.rhs = index[static_cast<std::size_t>(a.rhs)];
    if (a.lhs >= kZeroVar && a.rhs >= kZeroVar) constraints.AddAtomic(a);
  }
  return out;
}

/// One part of a tuple (SplitIntoParts).
struct Part {
  /// The part's columns, ascending.
  std::vector<int> columns;
  /// Restrict(t, columns), or t itself when it is one part.
  GeneralizedTuple tuple;
};

/// The connected components of t's two-column atomics, ordered by their
/// least column.  An edge that the unary bounds imply (X_i - X_j <= b with
/// X_i <= u, X_j >= l and u - l <= b) connects nothing: closure derives one
/// between every two bounded columns.  So every point of one part combines
/// with every point of the others, and each part normalizes on its own
/// period (the optimization at the end of Section 3.4; Theorem 3.1 makes
/// elimination exact inside a part).
std::vector<Part> SplitIntoParts(GeneralizedTuple t) {
  const Dbm& dbm = t.constraints();
  // root[c]: a column of c's part, whose least column is its own root.
  std::vector<std::size_t> root(static_cast<std::size_t>(t.temporal_arity()));
  std::iota(root.begin(), root.end(), std::size_t{0});
  auto find = [&root](std::size_t c) {
    while (root[c] != c) c = root[c];
    return c;
  };
  for (const AtomicConstraint& a : dbm.ToAtomics()) {
    if (a.lhs == kZeroVar || a.rhs == kZeroVar) continue;
    const std::int64_t upper = dbm.bound_node(a.lhs + 1, 0);
    const std::int64_t lower = dbm.bound_node(0, a.rhs + 1);
    if (upper != Dbm::kInf && lower != Dbm::kInf &&
        static_cast<__int128>(upper) + lower <= a.bound) {
      continue;
    }
    const std::size_t x = find(static_cast<std::size_t>(a.lhs));
    const std::size_t y = find(static_cast<std::size_t>(a.rhs));
    root[std::max(x, y)] = std::min(x, y);
  }
  // A root is its part's least column, so parts appear in root order.
  std::vector<Part> parts;
  for (int c = 0; c < t.temporal_arity(); ++c) {
    const auto r = static_cast<int>(find(static_cast<std::size_t>(c)));
    if (r == c) {
      parts.push_back(Part{{c}, GeneralizedTuple({})});
    } else {
      std::find_if(parts.begin(), parts.end(), [r](const Part& part) {
        return part.columns.front() == r;
      })->columns.push_back(c);
    }
  }
  for (Part& part : parts) {
    part.tuple = parts.size() == 1 ? std::move(t) : Restrict(t, part.columns);
  }
  return parts;
}

/// The projection of one tuple onto `keep_temporal` (its columns in output
/// order; at least one column is dropped), with data values `data`.  Free
/// and pinned dropped columns are eliminated exactly on the closed DBM
/// (EliminateFreeAndPinnedColumns).  Each part of the rest (SplitIntoParts)
/// that still holds a dropped column is normalized on its own; its dropped
/// columns are eliminated in n-space and its kept ones rebuilt, keeping one
/// copy of equal pieces.  The other columns pass through with every atomic
/// among them.  One output tuple per choice of one piece from each
/// projected part.
Result<std::vector<GeneralizedTuple>> ProjectTuple(
    const GeneralizedTuple& t, const std::vector<int>& keep_temporal,
    const std::vector<Value>& data, const AlgebraOptions& options) {
  const auto m = static_cast<std::size_t>(t.temporal_arity());
  // out_pos[c]: the output position of column c of `rest`, -1 if dropped.
  std::vector<int> out_pos(m, -1);
  std::vector<bool> dropped(m, true);
  for (std::size_t pos = 0; pos < keep_temporal.size(); ++pos) {
    const auto c = static_cast<std::size_t>(keep_temporal[pos]);
    out_pos[c] = static_cast<int>(pos);
    dropped[c] = false;
  }
  auto is_dropped = [&out_pos](int c) {
    return out_pos[static_cast<std::size_t>(c)] < 0;
  };
  ITDB_ASSIGN_OR_RETURN(std::optional<ExactElimination> elim,
                        EliminateFreeAndPinnedColumns(t, dropped));
  if (!elim.has_value()) return std::vector<GeneralizedTuple>{};
  // When nothing was eliminated the tuple is split as given.
  const GeneralizedTuple* rest = &t;
  if (elim->columns.size() < m) {
    rest = &elim->tuple;
    // The columns ascend, so each read is at or past the slot it fills.
    for (std::size_t i = 0; i < elim->columns.size(); ++i) {
      out_pos[i] = out_pos[static_cast<std::size_t>(elim->columns[i])];
    }
    out_pos.resize(elim->columns.size());
  }
  // Only the parts that still hold a dropped column are projected.
  std::vector<Part> parts;
  if (elim->dropped.size() + keep_temporal.size() < m) {
    for (Part& part : SplitIntoParts(*rest)) {
      if (std::any_of(part.columns.begin(), part.columns.end(), is_dropped)) {
        parts.push_back(std::move(part));
      }
    }
  }
  // base_cols[pos]: the column of `rest` at output position pos; the loop
  // below sets -1 where a projected part rebuilds it.  The others pass
  // through with every atomic among them.
  std::vector<int> base_cols(keep_temporal.size(), -1);
  for (std::size_t c = 0; c < out_pos.size(); ++c) {
    const int at = out_pos[c];
    if (at >= 0) base_cols[static_cast<std::size_t>(at)] = static_cast<int>(c);
  }
  // Each projected part's pieces and the output positions of their columns.
  std::vector<GeneralizedRelation> pieces;
  std::vector<std::vector<int>> piece_pos;
  std::int64_t count = 1;
  for (const Part& part : parts) {
    // The part's kept and dropped columns, and where the kept ones land.
    std::vector<int> keep;
    std::vector<int> drop;
    std::vector<int> pos;
    for (std::size_t i = 0; i < part.columns.size(); ++i) {
      const int at = out_pos[static_cast<std::size_t>(part.columns[i])];
      (at < 0 ? drop : keep).push_back(static_cast<int>(i));
      if (at >= 0) {
        pos.push_back(at);
        base_cols[static_cast<std::size_t>(at)] = -1;
      }
    }
    ITDB_ASSIGN_OR_RETURN(
        std::vector<GeneralizedTuple> normal,
        CachedNormalizeTuple(options.normalize_cache, part.tuple,
                             NormalizeOptionsOf(options)));
    // Different normal-form pieces of a part can project to one piece.
    GeneralizedRelation projected(
        Schema::Temporal(static_cast<int>(keep.size())));
    for (const GeneralizedTuple& nt : normal) {
      ITDB_ASSIGN_OR_RETURN(NSpaceTuple ns, NSpaceTuple::Build(nt));
      if (!ns.feasible()) continue;
      for (int c : drop) ITDB_RETURN_IF_ERROR(ns.EliminateColumn(c));
      ITDB_ASSIGN_OR_RETURN(GeneralizedTuple piece, ns.Rebuild(keep, {}));
      ITDB_RETURN_IF_ERROR(projected.AddTuple(std::move(piece)));
    }
    projected.KeepFirstOfEqual(options.counters);
    if (projected.size() == 0) return std::vector<GeneralizedTuple>{};
    ITDB_ASSIGN_OR_RETURN(count, CheckedMul(count, projected.size()));
    ITDB_RETURN_IF_ERROR(CheckBudget(count, options, "Project"));
    pieces.push_back(std::move(projected));
    piece_pos.push_back(std::move(pos));
  }
  const GeneralizedTuple base = Restrict(*rest, base_cols);
  // The choices in odometer order, the last part varying fastest.
  std::vector<GeneralizedTuple> out;
  std::vector<std::size_t> choice(pieces.size(), 0);
  for (bool more = true; more;) {
    std::vector<Lrp> lrps = base.temporal();
    Dbm constraints = base.constraints();
    for (std::size_t h = 0; h < pieces.size(); ++h) {
      const GeneralizedTuple& piece = pieces[h].tuples()[choice[h]];
      const std::vector<int>& pos = piece_pos[h];
      for (std::size_t i = 0; i < pos.size(); ++i) {
        lrps[static_cast<std::size_t>(pos[i])] = piece.lrp(static_cast<int>(i));
      }
      for (AtomicConstraint a : piece.constraints().ToAtomics()) {
        if (a.lhs != kZeroVar) a.lhs = pos[static_cast<std::size_t>(a.lhs)];
        if (a.rhs != kZeroVar) a.rhs = pos[static_cast<std::size_t>(a.rhs)];
        constraints.AddAtomic(a);
      }
    }
    out.emplace_back(std::move(lrps), data);
    out.back().set_constraints(std::move(constraints));
    std::size_t g = pieces.size();
    while (g > 0 && ++choice[g - 1] == pieces[g - 1].tuples().size()) {
      choice[--g] = 0;
    }
    more = g > 0;
  }
  return out;
}

/// The reduction TupleIsEmpty and FirstPoint share: every free and pinned
/// column is dropped exactly (EliminateFreeAndPinnedColumns), then each part
/// of the rest (SplitIntoParts) is replaced by its first feasible
/// normal-form piece; each sweep stops at that piece.  nullopt iff t is
/// empty: the elimination proves it, or some part has no piece.
Result<std::optional<std::pair<ExactElimination, std::vector<Part>>>>
FirstPieces(const GeneralizedTuple& t, const AlgebraOptions& options) {
  using Pieces = std::optional<std::pair<ExactElimination, std::vector<Part>>>;
  ITDB_ASSIGN_OR_RETURN(
      std::optional<ExactElimination> rest,
      EliminateFreeAndPinnedColumns(
          t, std::vector<bool>(static_cast<std::size_t>(t.temporal_arity()),
                               true)));
  if (!rest.has_value()) return Pieces();
  std::vector<Part> parts = SplitIntoParts(std::move(rest->tuple));
  for (Part& part : parts) {
    ITDB_ASSIGN_OR_RETURN(std::optional<GeneralizedTuple> piece,
                          CachedFirstNormalPiece(options.normalize_cache,
                                                 part.tuple,
                                                 NormalizeOptionsOf(options)));
    if (!piece.has_value()) return Pieces();
    part.tuple = std::move(*piece);
  }
  return Pieces(std::pair(std::move(*rest), std::move(parts)));
}

}  // namespace

Result<GeneralizedRelation> Project(const GeneralizedRelation& r,
                                    const std::vector<std::string>& attrs,
                                    const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "Project", &r);
  // Split the request into kept temporal and kept data attributes,
  // preserving the requested relative order within each kind.
  std::vector<int> keep_temporal;
  std::vector<int> keep_data;
  std::vector<std::string> temporal_names;
  std::vector<std::string> data_names;
  std::vector<DataType> data_types;
  for (const std::string& name : attrs) {
    if (std::optional<int> t = r.schema().FindTemporal(name)) {
      keep_temporal.push_back(*t);
      temporal_names.push_back(name);
    } else if (std::optional<int> d = r.schema().FindData(name)) {
      keep_data.push_back(*d);
      data_names.push_back(name);
      data_types.push_back(r.schema().data_type(*d));
    } else {
      return Status::NotFound("Project: unknown attribute \"" + name + "\"");
    }
  }
  Schema schema(temporal_names, data_names, data_types);
  GeneralizedRelation out(schema);
  const int m = r.schema().temporal_arity();
  // new_from_old[c]: the output position of temporal column c, -1 if
  // dropped.
  std::vector<int> new_from_old(static_cast<std::size_t>(m), -1);
  for (std::size_t pos = 0; pos < keep_temporal.size(); ++pos) {
    int& target = new_from_old[static_cast<std::size_t>(keep_temporal[pos])];
    if (target >= 0) {
      return Status::InvalidArgument("Project: attribute \"" +
                                     temporal_names[pos] + "\" named twice");
    }
    target = static_cast<int>(pos);
  }
  const bool reorder_only = static_cast<int>(keep_temporal.size()) == m;
  for (const GeneralizedTuple& t : r.tuples()) {
    std::vector<Value> data;
    data.reserve(keep_data.size());
    for (int d : keep_data) data.push_back(t.value(d));
    if (reorder_only) {
      // Nothing temporal is dropped: the lrps and matrix entries move to
      // their new columns, and nothing is normalized.
      std::vector<Lrp> lrps;
      lrps.reserve(keep_temporal.size());
      for (int c : keep_temporal) lrps.push_back(t.lrp(c));
      GeneralizedTuple p(std::move(lrps), std::move(data));
      p.set_constraints(t.constraints().MapVariables(new_from_old, m));
      ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(p)));
    } else {
      ITDB_ASSIGN_OR_RETURN(
          std::vector<GeneralizedTuple> projected,
          ProjectTuple(t, keep_temporal, data, options));
      for (GeneralizedTuple& p : projected) {
        ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(p)));
      }
    }
    ITDB_RETURN_IF_ERROR(
        CheckBudget(static_cast<std::int64_t>(out.size()), options,
                    "Project"));
  }
  return out;
}

Result<GeneralizedRelation> SelectTemporal(const GeneralizedRelation& r,
                                           const TemporalCondition& cond,
                                           const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "SelectTemporal", &r);
  const int m = r.schema().temporal_arity();
  auto check_col = [m](int c) {
    return c == kZeroVar || (c >= 0 && c < m);
  };
  if (!check_col(cond.lhs) || !check_col(cond.rhs) || cond.lhs == kZeroVar) {
    return Status::InvalidArgument("SelectTemporal: bad column indices");
  }
  if (cond.lhs == cond.rhs) {
    return Status::InvalidArgument(
        "SelectTemporal: identical columns on both sides");
  }
  ITDB_ASSIGN_OR_RETURN(CmpBranches branches, CompileCmp(cond));
  GeneralizedRelation out(r.schema());
  for (const GeneralizedTuple& t : r.tuples()) {
    // Close the tuple's constraints once, then fold each branch's atomics in
    // with the O(n^2) incremental closure instead of paying one full
    // Floyd-Warshall per branch.  If the base closure overflows, every
    // branch takes the full route (reproducing the error); if it is
    // infeasible, so is every branch.
    Dbm base = t.constraints();
    const bool base_closed = base.Close().ok();
    if (base_closed && !base.feasible()) continue;
    for (const std::vector<AtomicConstraint>& branch : branches) {
      if (base_closed) {
        Dbm c = base;
        bool feasible = true;
        bool fast = true;
        for (const AtomicConstraint& a : branch) {
          Dbm::TightenResult tr = c.TightenAndClose(a);
          if (tr == Dbm::TightenResult::kInfeasible) {
            feasible = false;
            break;
          }
          if (tr == Dbm::TightenResult::kFallbackNeeded) {
            fast = false;
            break;
          }
        }
        if (fast) {
          BumpCounter(&KernelCounters::closures_incremental, options, 1);
          if (!feasible) continue;
          GeneralizedTuple selected = t;
          selected.set_constraints(std::move(c));
          ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(selected)));
          continue;
        }
        BumpCounter(&KernelCounters::closures_full, options, 1);
      }
      GeneralizedTuple selected = t;
      Dbm c = t.constraints();
      for (const AtomicConstraint& a : branch) c.AddAtomic(a);
      selected.set_constraints(std::move(c));
      ITDB_ASSIGN_OR_RETURN(std::optional<GeneralizedTuple> pruned,
                            PruneByRelaxation(std::move(selected)));
      if (pruned.has_value()) {
        ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(*pruned)));
      }
    }
  }
  ITDB_RETURN_IF_ERROR(
      CheckBudget(static_cast<std::int64_t>(out.size()), options,
                  "SelectTemporal"));
  return out;
}

Result<GeneralizedRelation> SelectData(const GeneralizedRelation& r,
                                       int data_col, CmpOp op,
                                       const Value& value) {
  if (data_col < 0 || data_col >= r.schema().data_arity()) {
    return Status::InvalidArgument("SelectData: bad data column " +
                                   std::to_string(data_col));
  }
  GeneralizedRelation out(r.schema());
  for (const GeneralizedTuple& t : r.tuples()) {
    if (Holds(t.value(data_col), op, value)) {
      ITDB_RETURN_IF_ERROR(out.AddTuple(t));
    }
  }
  return out;
}

Result<GeneralizedRelation> SelectDataEqColumns(const GeneralizedRelation& r,
                                                int left_col, int right_col) {
  if (left_col < 0 || left_col >= r.schema().data_arity() || right_col < 0 ||
      right_col >= r.schema().data_arity()) {
    return Status::InvalidArgument("SelectDataEqColumns: bad data columns");
  }
  GeneralizedRelation out(r.schema());
  for (const GeneralizedTuple& t : r.tuples()) {
    if (t.value(left_col) == t.value(right_col)) {
      ITDB_RETURN_IF_ERROR(out.AddTuple(t));
    }
  }
  return out;
}

namespace {

Status CheckDisjointNames(const Schema& a, const Schema& b) {
  for (const std::string& n : b.temporal_names()) {
    if (a.FindTemporal(n).has_value()) {
      return Status::InvalidArgument(
          "CrossProduct: duplicate temporal attribute \"" + n + "\"");
    }
  }
  for (const std::string& n : b.data_names()) {
    if (a.FindData(n).has_value()) {
      return Status::InvalidArgument(
          "CrossProduct: duplicate data attribute \"" + n + "\"");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<GeneralizedRelation> CrossProduct(const GeneralizedRelation& a,
                                         const GeneralizedRelation& b,
                                         const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "CrossProduct", &a, &b);
  ITDB_RETURN_IF_ERROR(CheckDisjointNames(a.schema(), b.schema()));
  ITDB_RETURN_IF_ERROR(
      CheckBudget(static_cast<std::int64_t>(a.size()) * b.size(), options,
                  "CrossProduct"));
  std::vector<std::string> temporal_names = a.schema().temporal_names();
  temporal_names.insert(temporal_names.end(),
                        b.schema().temporal_names().begin(),
                        b.schema().temporal_names().end());
  std::vector<std::string> data_names = a.schema().data_names();
  data_names.insert(data_names.end(), b.schema().data_names().begin(),
                    b.schema().data_names().end());
  std::vector<DataType> data_types = a.schema().data_types();
  data_types.insert(data_types.end(), b.schema().data_types().begin(),
                    b.schema().data_types().end());
  Schema schema(std::move(temporal_names), std::move(data_names),
                std::move(data_types));
  const int ma = a.schema().temporal_arity();
  const int mb = b.schema().temporal_arity();
  GeneralizedRelation out(std::move(schema));
  for (const GeneralizedTuple& ta : a.tuples()) {
    for (const GeneralizedTuple& tb : b.tuples()) {
      std::vector<Lrp> lrps = ta.temporal();
      lrps.insert(lrps.end(), tb.temporal().begin(), tb.temporal().end());
      std::vector<Value> data = ta.data();
      data.insert(data.end(), tb.data().begin(), tb.data().end());
      GeneralizedTuple t(std::move(lrps), std::move(data));
      Dbm ca = ta.constraints().AppendVariables(mb);
      std::vector<int> shift(static_cast<std::size_t>(mb));
      for (int i = 0; i < mb; ++i) shift[static_cast<std::size_t>(i)] = ma + i;
      Dbm cb = tb.constraints().MapVariables(shift, ma + mb);
      t.set_constraints(Dbm::Conjoin(ca, cb));
      ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
    }
  }
  return out;
}

Result<GeneralizedRelation> Join(const GeneralizedRelation& a,
                                 const GeneralizedRelation& b,
                                 const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "Join", &a, &b);
  ITDB_ASSIGN_OR_RETURN(JoinProbe probe,
                        JoinProbe::ForJoin(a.schema(), b, options));
  return JoinKernel(a, std::move(probe));
}

Result<GeneralizedRelation> ShiftTemporalColumn(const GeneralizedRelation& r,
                                                int col, std::int64_t delta) {
  if (col < 0 || col >= r.schema().temporal_arity()) {
    return Status::InvalidArgument("ShiftTemporalColumn: bad column " +
                                   std::to_string(col));
  }
  GeneralizedRelation out(r.schema());
  for (const GeneralizedTuple& t : r.tuples()) {
    std::vector<Lrp> lrps = t.temporal();
    const Lrp& old = lrps[static_cast<std::size_t>(col)];
    ITDB_ASSIGN_OR_RETURN(std::int64_t offset,
                          CheckedAdd(old.offset(), delta));
    lrps[static_cast<std::size_t>(col)] = Lrp::Make(offset, old.period());
    GeneralizedTuple shifted(std::move(lrps), t.data());
    // Rewrite every atomic mentioning the column: with X' = X + delta,
    //   X - Y <= b  becomes  X' - Y <= b + delta, and symmetrically.
    Dbm constraints(t.constraints().num_vars());
    for (const AtomicConstraint& a : t.constraints().ToAtomics()) {
      std::int64_t bound = a.bound;
      if (a.lhs == col) {
        ITDB_ASSIGN_OR_RETURN(bound, CheckedAdd(bound, delta));
      }
      if (a.rhs == col) {
        ITDB_ASSIGN_OR_RETURN(bound, CheckedSub(bound, delta));
      }
      constraints.AddAtomic(AtomicConstraint{a.lhs, a.rhs, bound});
    }
    shifted.set_constraints(std::move(constraints));
    ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(shifted)));
  }
  return out;
}

Result<GeneralizedRelation> Rename(
    const GeneralizedRelation& r,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  std::vector<std::string> temporal_names = r.schema().temporal_names();
  std::vector<std::string> data_names = r.schema().data_names();
  for (const auto& [from, to] : renames) {
    bool found = false;
    for (std::string& n : temporal_names) {
      if (n == from) {
        n = to;
        found = true;
      }
    }
    for (std::string& n : data_names) {
      if (n == from) {
        n = to;
        found = true;
      }
    }
    if (!found) {
      return Status::NotFound("Rename: unknown attribute \"" + from + "\"");
    }
  }
  // Check uniqueness per kind.
  for (std::size_t i = 0; i < temporal_names.size(); ++i) {
    for (std::size_t j = i + 1; j < temporal_names.size(); ++j) {
      if (temporal_names[i] == temporal_names[j]) {
        return Status::InvalidArgument("Rename: duplicate temporal name \"" +
                                       temporal_names[i] + "\"");
      }
    }
  }
  for (std::size_t i = 0; i < data_names.size(); ++i) {
    for (std::size_t j = i + 1; j < data_names.size(); ++j) {
      if (data_names[i] == data_names[j]) {
        return Status::InvalidArgument("Rename: duplicate data name \"" +
                                       data_names[i] + "\"");
      }
    }
  }
  Schema schema(std::move(temporal_names), std::move(data_names),
                r.schema().data_types());
  GeneralizedRelation out(std::move(schema));
  for (const GeneralizedTuple& t : r.tuples()) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(t));
  }
  return out;
}

Result<bool> TupleIsEmpty(const GeneralizedTuple& t,
                          const AlgebraOptions& options) {
  ITDB_ASSIGN_OR_RETURN(auto pieces, FirstPieces(t, options));
  return !pieces.has_value();
}

Result<bool> IsEmpty(const GeneralizedRelation& r,
                     const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "IsEmpty", &r);
  for (const GeneralizedTuple& t : r.tuples()) {
    ITDB_ASSIGN_OR_RETURN(bool empty, TupleIsEmpty(t, options));
    if (!empty) return false;
  }
  return true;
}

Result<std::optional<std::vector<std::int64_t>>> FirstPoint(
    const GeneralizedTuple& t, const AlgebraOptions& options) {
  using MaybePoint = std::optional<std::vector<std::int64_t>>;
  ITDB_ASSIGN_OR_RETURN(auto pieces, FirstPieces(t, options));
  if (!pieces.has_value()) return MaybePoint(std::nullopt);
  const auto& [rest, parts] = *pieces;
  // Place the parts' points side by side on the closed matrix, then lift
  // the point through the dropped columns, last dropped first.  A pinned
  // column's re-closed bounds meet in one value of its lrp (the CRT meet
  // put it there); a free one has period 1 or no bound at all.  So each
  // step finds an lrp member.
  std::vector<std::int64_t> point(static_cast<std::size_t>(t.temporal_arity()));
  Dbm dbm = t.constraints();
  for (const Part& part : parts) {
    ITDB_ASSIGN_OR_RETURN(NSpaceTuple ns, NSpaceTuple::Build(part.tuple));
    ITDB_ASSIGN_OR_RETURN(std::vector<std::int64_t> part_point,
                          ns.FirstPoint());
    for (std::size_t i = 0; i < part_point.size(); ++i) {
      const int c = rest.columns[static_cast<std::size_t>(part.columns[i])];
      point[static_cast<std::size_t>(c)] = part_point[i];
      dbm.AddEquality(c, part_point[i]);
    }
  }
  ITDB_RETURN_IF_ERROR(dbm.Close());
  for (auto it = rest.dropped.rbegin(); it != rest.dropped.rend(); ++it) {
    const int c = *it;
    const std::int64_t lo = dbm.bound_node(0, c + 1);  // -X_c <= lo.
    const std::int64_t hi = dbm.bound_node(c + 1, 0);  //  X_c <= hi.
    std::optional<std::int64_t> value = t.lrp(c).FirstAtLeast(
        lo != Dbm::kInf ? -lo : (hi != Dbm::kInf ? hi : t.lrp(c).offset()));
    if (!value.has_value()) {
      return Status::Overflow("FirstPoint: a value leaves the int64 range");
    }
    point[static_cast<std::size_t>(c)] = *value;
    dbm.AddEquality(c, *value);
    ITDB_RETURN_IF_ERROR(dbm.Close());
  }
  if (!t.ContainsTemporal(point)) {
    return Status::InvalidArgument(
        "FirstPoint produced a non-member point (bug)");
  }
  return MaybePoint(std::move(point));
}

Result<std::optional<ConcreteRow>> FindWitness(const GeneralizedRelation& r,
                                               const AlgebraOptions& options) {
  for (const GeneralizedTuple& t : r.tuples()) {
    ITDB_ASSIGN_OR_RETURN(std::optional<std::vector<std::int64_t>> point,
                          FirstPoint(t, options));
    if (point.has_value()) {
      return std::optional<ConcreteRow>(ConcreteRow{*point, t.data()});
    }
  }
  return std::optional<ConcreteRow>(std::nullopt);
}


Result<bool> Subset(const GeneralizedRelation& a, const GeneralizedRelation& b,
                    const AlgebraOptions& options) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation diff, Subtract(a, b, options));
  return IsEmpty(diff, options);
}

Result<bool> Equivalent(const GeneralizedRelation& a,
                        const GeneralizedRelation& b,
                        const AlgebraOptions& options) {
  ITDB_ASSIGN_OR_RETURN(bool ab, Subset(a, b, options));
  if (!ab) return false;
  return Subset(b, a, options);
}

}  // namespace itdb

