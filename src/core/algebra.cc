#include "core/algebra.h"

#include <algorithm>
#include <map>
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

/// Relaxed add on an optional KernelCounters field; safe from any worker
/// thread (the fields are atomic).
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
    const GeneralizedTuple& t1, const GeneralizedTuple& t2, const Dbm& c2) {
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
  // Componentwise intersection of the free extensions t3* = t1* ^ t2*.
  std::vector<Lrp> inter;
  inter.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    ITDB_ASSIGN_OR_RETURN(std::optional<Lrp> x,
                          Lrp::Intersect(t1.lrp(i), t2.lrp(i)));
    if (!x.has_value()) {
      out.push_back(t1);  // Free extensions disjoint: t1 - t2 == t1.
      return out;
    }
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

/// The rows of `b` that some outer bucket reaches, in first-touch order.
/// Fills slot[j] with row j's position in that list (-1 when no bucket
/// reaches it), so state hoisted per touched row is found by b index.
/// Collecting the rows first lets callers reserve before hoisting.
std::vector<std::size_t> TouchedRows(
    const std::vector<std::span<const std::size_t>>& buckets,
    const GeneralizedRelation& b, std::vector<std::int64_t>& slot) {
  slot.assign(b.tuples().size(), -1);
  std::vector<std::size_t> touched;
  for (std::span<const std::size_t> bucket : buckets) {
    for (std::size_t j : bucket) {
      if (slot[j] < 0) {
        slot[j] = static_cast<std::int64_t>(touched.size());
        touched.push_back(j);
      }
    }
  }
  return touched;
}

/// Indexed pair scan (core/index.h): partition b on all data columns, then
/// reject candidate pairs with the O(1) residue and hull prefilters before
/// paying lrp intersection + conjunction, and close the conjunction
/// incrementally from ta's cached closed matrix.  Bit-identical to the
/// naive double loop: buckets enumerate exactly the pairs whose data values
/// match, in the naive order; prefilter-rejected pairs are exactly those
/// GeneralizedTuple::Intersect maps to nullopt; and the incremental
/// conjunction reproduces the naive closure's matrix and status.
Result<GeneralizedRelation> IntersectIndexed(const GeneralizedRelation& a,
                                             const GeneralizedRelation& b,
                                             const AlgebraOptions& options) {
  const int m = a.schema().temporal_arity();
  std::vector<int> key_cols(static_cast<std::size_t>(a.schema().data_arity()));
  for (std::size_t i = 0; i < key_cols.size(); ++i) {
    key_cols[i] = static_cast<int>(i);
  }
  DataKeyIndex index(b, key_cols);
  // One probe pass (see JoinIndexed): the candidate spans feed the budget
  // count, the touched-row discovery, and the pair scan.
  std::vector<std::span<const std::size_t>> a_buckets(a.tuples().size());
  std::int64_t candidates = 0;
  for (std::size_t i = 0; i < a.tuples().size(); ++i) {
    a_buckets[i] = index.Candidates(a.tuples()[i], key_cols);
    candidates += static_cast<std::int64_t>(a_buckets[i].size());
  }
  BumpCounter(&KernelCounters::pairs_total, options,
              static_cast<std::int64_t>(a.size()) * b.size());
  BumpCounter(&KernelCounters::pairs_candidate, options, candidates);
  ITDB_RETURN_IF_ERROR(CheckBudget(candidates, options, "Intersect"));
  // Hoist hulls only for the b rows some bucket reaches.
  std::vector<std::int64_t> slot;
  const std::vector<std::size_t> touched = TouchedRows(a_buckets, b, slot);
  std::vector<TemporalHull> hull_b;
  hull_b.reserve(touched.size());
  for (std::size_t j : touched) {
    hull_b.push_back(TemporalHull::Of(b.tuples()[j]));
  }
  std::vector<std::pair<int, int>> hull_cols;
  hull_cols.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) hull_cols.emplace_back(i, i);
  ITDB_ASSIGN_OR_RETURN(
      std::vector<GeneralizedTuple> tuples,
      ParallelAppend<GeneralizedTuple>(
          static_cast<std::int64_t>(a.size()),
          ParallelOptions{options.threads, /*grain=*/16},
          [&](std::int64_t i, std::vector<GeneralizedTuple>& row) -> Status {
            const GeneralizedTuple& ta =
                a.tuples()[static_cast<std::size_t>(i)];
            const std::span<const std::size_t> bucket =
                a_buckets[static_cast<std::size_t>(i)];
            if (bucket.empty()) return Status::Ok();
            TemporalHull ha = TemporalHull::Of(ta);
            for (std::size_t j : bucket) {
              const GeneralizedTuple& tb = b.tuples()[j];
              bool residue_empty = false;
              for (int col = 0; col < m; ++col) {
                if (LrpIntersectionEmpty(ta.lrp(col), tb.lrp(col))) {
                  residue_empty = true;
                  break;
                }
              }
              if (residue_empty) {
                BumpCounter(&KernelCounters::pairs_pruned_residue, options, 1);
                continue;
              }
              const TemporalHull& hb =
                  hull_b[static_cast<std::size_t>(slot[j])];
              if (ha.infeasible || hb.infeasible ||
                  HullsDisjoint(ha, hb, hull_cols)) {
                BumpCounter(&KernelCounters::pairs_pruned_hull, options, 1);
                continue;
              }
              if (!ha.usable() || !hb.usable()) {
                // A tuple's own closure overflowed: take the naive pair
                // kernel so any status it reports is reproduced exactly.
                ITDB_ASSIGN_OR_RETURN(std::optional<GeneralizedTuple> t,
                                      GeneralizedTuple::Intersect(ta, tb));
                if (t.has_value()) row.push_back(std::move(*t));
                continue;
              }
              std::vector<Lrp> lrps;
              lrps.reserve(static_cast<std::size_t>(m));
              bool empty = false;
              for (int col = 0; col < m && !empty; ++col) {
                ITDB_ASSIGN_OR_RETURN(std::optional<Lrp> x,
                                      Lrp::Intersect(ta.lrp(col), tb.lrp(col)));
                if (!x.has_value()) {
                  empty = true;  // Unreachable after the residue prefilter.
                  break;
                }
                lrps.push_back(*x);
              }
              if (empty) continue;
              ITDB_ASSIGN_OR_RETURN(
                  Dbm merged, ConjoinOntoClosed(*ha.closed, tb.constraints(),
                                                options.counters));
              if (!merged.feasible()) continue;
              GeneralizedTuple t(std::move(lrps), ta.data());
              t.set_constraints(std::move(merged));
              row.push_back(std::move(t));
            }
            return Status::Ok();
          }));
  GeneralizedRelation out(a.schema());
  for (GeneralizedTuple& t : tuples) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
  }
  return out;
}

}  // namespace

Result<GeneralizedRelation> Intersect(const GeneralizedRelation& a,
                                      const GeneralizedRelation& b,
                                      const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "Intersect", &a, &b);
  ITDB_RETURN_IF_ERROR(CheckSameSchema(a, b, "Intersect"));
  if (options.use_index) return IntersectIndexed(a, b, options);
  ITDB_RETURN_IF_ERROR(
      CheckBudget(static_cast<std::int64_t>(a.size()) * b.size(), options,
                  "Intersect"));
  // Pair intersections are independent; fan the rows of `a` out over the
  // thread pool.  Per-row buffers merge in row order, so the tuple sequence
  // matches the sequential double loop exactly.
  ITDB_ASSIGN_OR_RETURN(
      std::vector<GeneralizedTuple> tuples,
      ParallelAppend<GeneralizedTuple>(
          static_cast<std::int64_t>(a.size()),
          ParallelOptions{options.threads, /*grain=*/16},
          [&](std::int64_t i, std::vector<GeneralizedTuple>& row) -> Status {
            const GeneralizedTuple& ta =
                a.tuples()[static_cast<std::size_t>(i)];
            for (const GeneralizedTuple& tb : b.tuples()) {
              ITDB_ASSIGN_OR_RETURN(std::optional<GeneralizedTuple> t,
                                    GeneralizedTuple::Intersect(ta, tb));
              if (t.has_value()) row.push_back(std::move(*t));
            }
            return Status::Ok();
          }));
  GeneralizedRelation out(a.schema());
  for (GeneralizedTuple& t : tuples) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
  }
  return out;
}

Result<GeneralizedRelation> Subtract(const GeneralizedRelation& a,
                                     const GeneralizedRelation& b,
                                     const AlgebraOptions& options) {
  obs::Span span = OpSpan(options, "Subtract", &a, &b);
  ITDB_RETURN_IF_ERROR(CheckSameSchema(a, b, "Subtract"));
  std::vector<GeneralizedTuple> current = a.tuples();
  const int m = a.schema().temporal_arity();
  // Round skipping: every tuple SubtractTuples emits inherits t1's data
  // values, so the data keys of `current` never change across rounds.  A
  // key probe of t2 against the partition of the original `a` therefore
  // decides in O(log n) whether the whole round is the identity.
  const bool skip_rounds = options.use_index && a.schema().data_arity() > 0;
  std::vector<int> key_cols(static_cast<std::size_t>(a.schema().data_arity()));
  for (std::size_t i = 0; i < key_cols.size(); ++i) {
    key_cols[i] = static_cast<int>(i);
  }
  std::optional<DataKeyIndex> index;
  if (skip_rounds) index.emplace(a, key_cols);
  for (const GeneralizedTuple& t2 : b.tuples()) {
    if (current.empty()) break;
    BumpCounter(&KernelCounters::pairs_total, options,
                static_cast<std::int64_t>(current.size()));
    // When no residue shares t2's data values the round maps every t1 to
    // {t1}: skip it (keeping the old per-round budget check).  Decided by
    // index probe when available, by linear scan otherwise -- either way
    // this mirrors SubtractTuples' data-mismatch early exit, which also
    // never looks at t2's constraints.
    bool any_match = true;
    if (skip_rounds && index->Candidates(t2, key_cols).empty()) {
      // The partition covers the original `a`, a superset of the surviving
      // residues: an empty bucket proves no survivor matches either.
      any_match = false;
    } else if (a.schema().data_arity() > 0) {
      any_match = std::any_of(
          current.begin(), current.end(),
          [&t2](const GeneralizedTuple& t1) { return t1.data() == t2.data(); });
    }
    if (!any_match) {
      ITDB_RETURN_IF_ERROR(
          CheckBudget(static_cast<std::int64_t>(current.size()), options,
                      "Subtract"));
      continue;
    }
    BumpCounter(&KernelCounters::pairs_candidate, options,
                static_cast<std::int64_t>(current.size()));
    // The closure of t2's constraints is the same matrix for every t1:
    // hoist it out of the per-residue loop.
    Dbm c2 = t2.constraints();
    ITDB_RETURN_IF_ERROR(c2.Close());
    // One round subtracts t2 from every residue independently; the round's
    // outputs merge in residue order.  The budget is checked on the merged
    // round: round sizes only grow as residues accumulate, so this trips
    // exactly when the sequential per-residue prefix check would.
    ITDB_ASSIGN_OR_RETURN(
        std::vector<std::vector<GeneralizedTuple>> rounds,
        ParallelAppend<std::vector<GeneralizedTuple>>(
            static_cast<std::int64_t>(current.size()),
            ParallelOptions{options.threads, /*grain=*/16},
            [&](std::int64_t i, std::vector<std::vector<GeneralizedTuple>>&
                                    out_parts) -> Status {
              const GeneralizedTuple& t1 =
                  current[static_cast<std::size_t>(i)];
              if (options.use_index && t1.data() == t2.data() &&
                  c2.feasible()) {
                // Residue prefilter: a disjoint shared column means the free
                // extensions miss each other, so t1 - t2 == t1 -- exactly
                // SubtractTuples' first-empty-column early exit.
                for (int col = 0; col < m; ++col) {
                  if (LrpIntersectionEmpty(t1.lrp(col), t2.lrp(col))) {
                    BumpCounter(&KernelCounters::pairs_pruned_residue,
                                options, 1);
                    out_parts.push_back({t1});
                    return Status::Ok();
                  }
                }
              }
              ITDB_ASSIGN_OR_RETURN(std::vector<GeneralizedTuple> parts,
                                    SubtractTuples(t1, t2, c2));
              out_parts.push_back(std::move(parts));
              return Status::Ok();
            }));
    std::vector<GeneralizedTuple> next;
    for (std::vector<GeneralizedTuple>& parts : rounds) {
      for (GeneralizedTuple& p : parts) next.push_back(std::move(p));
    }
    ITDB_RETURN_IF_ERROR(
        CheckBudget(static_cast<std::int64_t>(next.size()), options,
                    "Subtract"));
    current = std::move(next);
    if (current.empty()) break;
  }
  GeneralizedRelation out(a.schema());
  for (GeneralizedTuple& t : current) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
  }
  return out;
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
        if (options.use_index) {
          Dbm::TightenResult tr = d.TightenAndClose(a.Negated());
          if (tr == Dbm::TightenResult::kFallbackNeeded) {
            BumpCounter(&KernelCounters::closures_full, options, 1);
            d.AddAtomic(a.Negated());
            ITDB_RETURN_IF_ERROR(d.Close());
          } else {
            BumpCounter(&KernelCounters::closures_incremental, options, 1);
          }
        } else {
          d.AddAtomic(a.Negated());
          ITDB_RETURN_IF_ERROR(d.Close());
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
    if (universe > static_cast<__int128>(options.max_complement_universe)) {
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
                                     options.normalize));
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
  // Enumerate the k^m universe.  Residue vectors are decoded from a linear
  // index in base k with the LAST column least significant -- the sequential
  // odometer order -- so the index-ordered merge reproduces it exactly.
  // Each residue class is complemented independently (groups is only read);
  // the tuple budget is checked on the merged result, which trips exactly
  // when the sequential running check would (the count only grows).
  ITDB_ASSIGN_OR_RETURN(
      std::vector<GeneralizedTuple> tuples,
      ParallelAppend<GeneralizedTuple>(
          static_cast<std::int64_t>(universe),
          ParallelOptions{options.threads, /*grain=*/16},
          [&](std::int64_t index, std::vector<GeneralizedTuple>& part)
              -> Status {
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
              part.push_back(GeneralizedTuple(std::move(lrps)));
              return Status::Ok();
            }
            ITDB_ASSIGN_OR_RETURN(
                std::vector<Dbm> systems,
                ComplementConstraintSets(m, it->second, options));
            for (Dbm& s : systems) {
              GeneralizedTuple t(lrps);
              t.set_constraints(std::move(s));
              part.push_back(std::move(t));
            }
            return Status::Ok();
          }));
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

/// Full-normalization projection of one tuple (Section 3.4 verbatim):
/// normalize every column to the common period, eliminate the dropped ones
/// in n-space, rebuild in the requested order.
Result<std::vector<GeneralizedTuple>> ProjectTupleFull(
    const GeneralizedTuple& t, const std::vector<int>& keep_temporal,
    const std::vector<bool>& kept, std::vector<Value> data,
    const AlgebraOptions& options) {
  std::vector<GeneralizedTuple> out;
  ITDB_ASSIGN_OR_RETURN(
      std::vector<GeneralizedTuple> normal,
      CachedNormalizeTuple(options.normalize_cache, t, options.normalize));
  for (const GeneralizedTuple& nt : normal) {
    ITDB_ASSIGN_OR_RETURN(NSpaceTuple ns, NSpaceTuple::Build(nt));
    if (!ns.feasible()) continue;
    for (int c = 0; c < t.temporal_arity(); ++c) {
      if (!kept[static_cast<std::size_t>(c)]) {
        ITDB_RETURN_IF_ERROR(ns.EliminateColumn(c));
      }
    }
    ITDB_ASSIGN_OR_RETURN(GeneralizedTuple projected,
                          ns.Rebuild(keep_temporal, data));
    out.push_back(std::move(projected));
  }
  return out;
}

/// Partial-normalization projection (the optimization suggested at the end
/// of Section 3.4): only the connected component of the dropped columns in
/// the constraint graph is normalized and projected; every other column --
/// lrp and constraints -- passes through untouched.
Result<std::vector<GeneralizedTuple>> ProjectTuplePartial(
    const GeneralizedTuple& t, const std::vector<int>& keep_temporal,
    const std::vector<bool>& kept, const std::vector<Value>& data,
    const AlgebraOptions& options) {
  const int m = t.temporal_arity();
  // Connected component of the dropped columns under two-variable
  // constraint edges (unary bounds do not connect columns).  An edge that
  // the unary bounds imply (X_i - X_j <= b with X_i <= u, X_j >= l and
  // u - l <= b) connects nothing either: closure derives one between every
  // two bounded columns, and it would pull them into the component.
  const Dbm& dbm = t.constraints();
  std::vector<AtomicConstraint> atomics = dbm.ToAtomics();
  auto implied = [&dbm](const AtomicConstraint& a) {
    const std::int64_t upper = dbm.bound_node(a.lhs + 1, 0);
    const std::int64_t lower = dbm.bound_node(0, a.rhs + 1);
    return upper != Dbm::kInf && lower != Dbm::kInf &&
           static_cast<__int128>(upper) + lower <= a.bound;
  };
  std::vector<bool> in_comp(static_cast<std::size_t>(m), false);
  std::vector<int> frontier;
  for (int c = 0; c < m; ++c) {
    if (!kept[static_cast<std::size_t>(c)]) {
      in_comp[static_cast<std::size_t>(c)] = true;
      frontier.push_back(c);
    }
  }
  while (!frontier.empty()) {
    int c = frontier.back();
    frontier.pop_back();
    for (const AtomicConstraint& a : atomics) {
      if (a.lhs == kZeroVar || a.rhs == kZeroVar || implied(a)) continue;
      int other = -1;
      if (a.lhs == c) other = a.rhs;
      if (a.rhs == c) other = a.lhs;
      if (other >= 0 && !in_comp[static_cast<std::size_t>(other)]) {
        in_comp[static_cast<std::size_t>(other)] = true;
        frontier.push_back(other);
      }
    }
  }
  // Build the component subtuple: component columns in original order.
  std::vector<int> comp_cols;
  std::vector<int> sub_index(static_cast<std::size_t>(m), -1);
  for (int c = 0; c < m; ++c) {
    if (in_comp[static_cast<std::size_t>(c)]) {
      sub_index[static_cast<std::size_t>(c)] = static_cast<int>(comp_cols.size());
      comp_cols.push_back(c);
    }
  }
  std::vector<Lrp> sub_lrps;
  sub_lrps.reserve(comp_cols.size());
  for (int c : comp_cols) sub_lrps.push_back(t.lrp(c));
  GeneralizedTuple sub(std::move(sub_lrps));
  for (const AtomicConstraint& a : atomics) {
    // The only two-variable edges crossing the component boundary are
    // implied by the unary bounds on both sides, and are dropped; other
    // atomics belong to the subtuple iff any endpoint lies inside.
    bool lhs_in = a.lhs != kZeroVar && in_comp[static_cast<std::size_t>(a.lhs)];
    bool rhs_in = a.rhs != kZeroVar && in_comp[static_cast<std::size_t>(a.rhs)];
    if (!lhs_in && !rhs_in) continue;
    if (a.lhs != kZeroVar && a.rhs != kZeroVar && lhs_in != rhs_in) continue;
    AtomicConstraint mapped = a;
    if (a.lhs != kZeroVar) mapped.lhs = sub_index[static_cast<std::size_t>(a.lhs)];
    if (a.rhs != kZeroVar) mapped.rhs = sub_index[static_cast<std::size_t>(a.rhs)];
    sub.mutable_constraints().AddAtomic(mapped);
  }
  // Project the subtuple with full normalization (kept component columns in
  // original order).  Without a dropped column the component is empty and
  // the projection is a pure reorder: there is nothing to normalize.
  std::vector<int> sub_keep;
  std::vector<bool> sub_kept(comp_cols.size(), false);
  for (std::size_t i = 0; i < comp_cols.size(); ++i) {
    if (kept[static_cast<std::size_t>(comp_cols[i])]) {
      sub_keep.push_back(static_cast<int>(i));
      sub_kept[i] = true;
    }
  }
  std::vector<GeneralizedTuple> sub_results;
  if (comp_cols.empty()) {
    sub_results.push_back(std::move(sub));
  } else {
    ITDB_ASSIGN_OR_RETURN(
        sub_results, ProjectTupleFull(sub, sub_keep, sub_kept, {}, options));
  }
  // Where does each original kept column land in the output order?
  std::vector<int> out_pos(static_cast<std::size_t>(m), -1);
  for (std::size_t pos = 0; pos < keep_temporal.size(); ++pos) {
    out_pos[static_cast<std::size_t>(keep_temporal[pos])] =
        static_cast<int>(pos);
  }
  // And which output position holds each sub-result column?
  std::vector<int> sub_out(sub_keep.size());
  for (std::size_t i = 0; i < sub_keep.size(); ++i) {
    sub_out[i] =
        out_pos[static_cast<std::size_t>(comp_cols[static_cast<std::size_t>(
            sub_keep[i])])];
  }
  const int n_out = static_cast<int>(keep_temporal.size());
  std::vector<GeneralizedTuple> out;
  for (const GeneralizedTuple& sr : sub_results) {
    std::vector<Lrp> lrps(static_cast<std::size_t>(n_out));
    for (int pos = 0; pos < n_out; ++pos) {
      int col = keep_temporal[static_cast<std::size_t>(pos)];
      if (!in_comp[static_cast<std::size_t>(col)]) {
        lrps[static_cast<std::size_t>(pos)] = t.lrp(col);
      }
    }
    for (std::size_t i = 0; i < sub_out.size(); ++i) {
      lrps[static_cast<std::size_t>(sub_out[i])] = sr.lrp(static_cast<int>(i));
    }
    GeneralizedTuple assembled(std::move(lrps), data);
    Dbm constraints(n_out);
    // Untouched constraints between kept non-component columns.
    for (const AtomicConstraint& a : atomics) {
      bool lhs_in =
          a.lhs != kZeroVar && in_comp[static_cast<std::size_t>(a.lhs)];
      bool rhs_in =
          a.rhs != kZeroVar && in_comp[static_cast<std::size_t>(a.rhs)];
      if (lhs_in || rhs_in) continue;
      AtomicConstraint mapped = a;
      if (a.lhs != kZeroVar) mapped.lhs = out_pos[static_cast<std::size_t>(a.lhs)];
      if (a.rhs != kZeroVar) mapped.rhs = out_pos[static_cast<std::size_t>(a.rhs)];
      constraints.AddAtomic(mapped);
    }
    // Component constraints from the projected subtuple.
    for (const AtomicConstraint& a : sr.constraints().ToAtomics()) {
      AtomicConstraint mapped = a;
      if (a.lhs != kZeroVar) mapped.lhs = sub_out[static_cast<std::size_t>(a.lhs)];
      if (a.rhs != kZeroVar) mapped.rhs = sub_out[static_cast<std::size_t>(a.rhs)];
      constraints.AddAtomic(mapped);
    }
    assembled.set_constraints(std::move(constraints));
    out.push_back(std::move(assembled));
  }
  return out;
}

/// The default projection of one tuple: free and pinned dropped columns are
/// eliminated exactly on the closed DBM (EliminateFreeAndPinnedColumns),
/// and only the dropped columns left over go through partial normalization.
Result<std::vector<GeneralizedTuple>> ProjectTupleExact(
    const GeneralizedTuple& t, const std::vector<int>& keep_temporal,
    const std::vector<bool>& kept, const std::vector<Value>& data,
    const AlgebraOptions& options) {
  if (static_cast<int>(keep_temporal.size()) == t.temporal_arity()) {
    return ProjectTuplePartial(t, keep_temporal, kept, data, options);
  }
  std::vector<bool> dropped(kept.size());
  for (std::size_t c = 0; c < kept.size(); ++c) dropped[c] = !kept[c];
  ITDB_ASSIGN_OR_RETURN(std::optional<ExactElimination> rest,
                        EliminateFreeAndPinnedColumns(t, dropped));
  if (!rest.has_value()) return std::vector<GeneralizedTuple>{};
  if (rest->columns.size() == kept.size()) {
    // Nothing was eliminated: project the tuple as given.
    return ProjectTuplePartial(t, keep_temporal, kept, data, options);
  }
  // Renumber the kept columns into the remaining tuple.
  std::vector<int> index_of(kept.size(), -1);
  std::vector<bool> rest_kept(rest->columns.size());
  for (std::size_t i = 0; i < rest->columns.size(); ++i) {
    const auto c = static_cast<std::size_t>(rest->columns[i]);
    index_of[c] = static_cast<int>(i);
    rest_kept[i] = kept[c];
  }
  std::vector<int> rest_keep;
  rest_keep.reserve(keep_temporal.size());
  for (int c : keep_temporal) {
    rest_keep.push_back(index_of[static_cast<std::size_t>(c)]);
  }
  return ProjectTuplePartial(rest->tuple, rest_keep, rest_kept, data, options);
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
  std::vector<bool> kept(static_cast<std::size_t>(r.schema().temporal_arity()),
                         false);
  for (int c : keep_temporal) kept[static_cast<std::size_t>(c)] = true;
  for (const GeneralizedTuple& t : r.tuples()) {
    std::vector<Value> data;
    data.reserve(keep_data.size());
    for (int d : keep_data) data.push_back(t.value(d));
    ITDB_ASSIGN_OR_RETURN(
        std::vector<GeneralizedTuple> projected,
        options.partial_normalization
            ? ProjectTupleExact(t, keep_temporal, kept, data, options)
            : ProjectTupleFull(t, keep_temporal, kept, std::move(data),
                               options));
    for (GeneralizedTuple& p : projected) {
      ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(p)));
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
  // Compile the condition into one or two (for kNe) branches of atomic
  // constraint lists.  X(lhs) op X(rhs) + c, with X(kZeroVar) == 0.
  std::vector<std::vector<AtomicConstraint>> branches;
  auto upper = [&cond](std::int64_t b) {  // X(lhs) - X(rhs) <= b
    return AtomicConstraint{cond.lhs, cond.rhs, b};
  };
  auto lower = [&cond](std::int64_t b) {  // X(rhs) - X(lhs) <= -b
    return AtomicConstraint{cond.rhs, cond.lhs, -b};
  };
  switch (cond.op) {
    case CmpOp::kEq:
      branches.push_back({upper(cond.c), lower(cond.c)});
      break;
    case CmpOp::kNe: {
      ITDB_ASSIGN_OR_RETURN(std::int64_t below, CheckedSub(cond.c, 1));
      ITDB_ASSIGN_OR_RETURN(std::int64_t above, CheckedAdd(cond.c, 1));
      branches.push_back({upper(below)});
      branches.push_back({lower(above)});
      break;
    }
    case CmpOp::kLt: {
      ITDB_ASSIGN_OR_RETURN(std::int64_t below, CheckedSub(cond.c, 1));
      branches.push_back({upper(below)});
      break;
    }
    case CmpOp::kLe:
      branches.push_back({upper(cond.c)});
      break;
    case CmpOp::kGt: {
      ITDB_ASSIGN_OR_RETURN(std::int64_t above, CheckedAdd(cond.c, 1));
      branches.push_back({lower(above)});
      break;
    }
    case CmpOp::kGe:
      branches.push_back({lower(cond.c)});
      break;
  }
  GeneralizedRelation out(r.schema());
  for (const GeneralizedTuple& t : r.tuples()) {
    // DBM fast path: close the tuple's constraints once, then fold each
    // branch's atomics in with the O(n^2) incremental closure instead of
    // paying one full Floyd-Warshall per branch.  If the base closure
    // overflows, every branch takes the naive route (reproducing the
    // error); if it is infeasible, so is every branch.
    std::optional<Dbm> base;
    if (options.use_index) {
      Dbm c = t.constraints();
      if (c.Close().ok()) {
        if (!c.feasible()) continue;
        base = std::move(c);
      }
    }
    for (const std::vector<AtomicConstraint>& branch : branches) {
      if (base.has_value()) {
        Dbm c = *base;
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

namespace {

bool CompareValues(const Value& a, CmpOp op, const Value& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

Result<GeneralizedRelation> SelectData(const GeneralizedRelation& r,
                                       int data_col, CmpOp op,
                                       const Value& value) {
  if (data_col < 0 || data_col >= r.schema().data_arity()) {
    return Status::InvalidArgument("SelectData: bad data column " +
                                   std::to_string(data_col));
  }
  GeneralizedRelation out(r.schema());
  for (const GeneralizedTuple& t : r.tuples()) {
    if (CompareValues(t.value(data_col), op, value)) {
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
  // Identify shared attributes by name.
  const Schema& sa = a.schema();
  const Schema& sb = b.schema();
  const int ma = sa.temporal_arity();
  const int mb = sb.temporal_arity();
  // For each of b's temporal columns: matching column of a, or -1.
  std::vector<int> b_temporal_match(static_cast<std::size_t>(mb), -1);
  for (int j = 0; j < mb; ++j) {
    if (std::optional<int> i = sa.FindTemporal(sb.temporal_name(j))) {
      b_temporal_match[static_cast<std::size_t>(j)] = *i;
    }
  }
  std::vector<int> b_data_match(static_cast<std::size_t>(sb.data_arity()), -1);
  for (int j = 0; j < sb.data_arity(); ++j) {
    if (std::optional<int> i = sa.FindData(sb.data_name(j))) {
      b_data_match[static_cast<std::size_t>(j)] = *i;
      if (sa.data_type(*i) != sb.data_type(j)) {
        return Status::InvalidArgument(
            "Join: shared data attribute \"" + sb.data_name(j) +
            "\" has different types");
      }
    }
  }
  // Output schema: all of a's attributes, then b's non-shared ones.
  std::vector<std::string> temporal_names = sa.temporal_names();
  std::vector<int> b_new_temporal;  // b columns appended, with new indices.
  for (int j = 0; j < mb; ++j) {
    if (b_temporal_match[static_cast<std::size_t>(j)] < 0) {
      b_new_temporal.push_back(j);
      temporal_names.push_back(sb.temporal_name(j));
    }
  }
  std::vector<std::string> data_names = sa.data_names();
  std::vector<DataType> data_types = sa.data_types();
  std::vector<int> b_new_data;
  for (int j = 0; j < sb.data_arity(); ++j) {
    if (b_data_match[static_cast<std::size_t>(j)] < 0) {
      b_new_data.push_back(j);
      data_names.push_back(sb.data_name(j));
      data_types.push_back(sb.data_type(j));
    }
  }
  Schema schema(temporal_names, data_names, data_types);
  const int m_out = static_cast<int>(temporal_names.size());
  // Where does b's temporal column j land in the output?
  std::vector<int> b_temporal_target(static_cast<std::size_t>(mb), -1);
  for (int j = 0; j < mb; ++j) {
    int match = b_temporal_match[static_cast<std::size_t>(j)];
    if (match >= 0) {
      b_temporal_target[static_cast<std::size_t>(j)] = match;
    }
  }
  for (std::size_t pos = 0; pos < b_new_temporal.size(); ++pos) {
    b_temporal_target[static_cast<std::size_t>(b_new_temporal[pos])] =
        ma + static_cast<int>(pos);
  }
  // Shared data columns drive the hash partition; shared temporal columns
  // drive the prefilters.
  std::vector<int> a_key_cols;
  std::vector<int> b_key_cols;
  for (int j = 0; j < sb.data_arity(); ++j) {
    int i = b_data_match[static_cast<std::size_t>(j)];
    if (i >= 0) {
      a_key_cols.push_back(i);
      b_key_cols.push_back(j);
    }
  }
  std::vector<std::pair<int, int>> shared_temporal;  // (a column, b column)
  for (int j = 0; j < mb; ++j) {
    int match = b_temporal_match[static_cast<std::size_t>(j)];
    if (match >= 0) shared_temporal.emplace_back(match, j);
  }
  // The per-pair lrp intersection over shared columns, writing into the
  // output lrp vector.  Sets `temporal_ok` false on a disjoint pair.
  auto intersect_shared = [&](const GeneralizedTuple& ta,
                              const GeneralizedTuple& tb,
                              std::vector<Lrp>& lrps,
                              bool& temporal_ok) -> Status {
    temporal_ok = true;
    for (int j = 0; j < mb && temporal_ok; ++j) {
      int target = b_temporal_target[static_cast<std::size_t>(j)];
      int match = b_temporal_match[static_cast<std::size_t>(j)];
      if (match >= 0) {
        ITDB_ASSIGN_OR_RETURN(std::optional<Lrp> inter,
                              Lrp::Intersect(ta.lrp(match), tb.lrp(j)));
        if (!inter.has_value()) {
          temporal_ok = false;
          break;
        }
        lrps[static_cast<std::size_t>(target)] = *inter;
      } else {
        lrps[static_cast<std::size_t>(target)] = tb.lrp(j);
      }
    }
    return Status::Ok();
  };
  std::vector<GeneralizedTuple> tuples;
  if (options.use_index) {
    DataKeyIndex index(b, b_key_cols);
    // Probe every outer row once: the stored candidate spans drive the
    // budget count, the touched-row discovery, AND the pair scan, instead
    // of re-probing the index in each of those passes.
    std::vector<std::span<const std::size_t>> a_buckets(a.tuples().size());
    std::int64_t candidates = 0;
    for (std::size_t i = 0; i < a.tuples().size(); ++i) {
      a_buckets[i] = index.Candidates(a.tuples()[i], a_key_cols);
      candidates += static_cast<std::int64_t>(a_buckets[i].size());
    }
    BumpCounter(&KernelCounters::pairs_total, options,
                static_cast<std::int64_t>(a.size()) * b.size());
    BumpCounter(&KernelCounters::pairs_candidate, options, candidates);
    ITDB_RETURN_IF_ERROR(CheckBudget(candidates, options, "Join"));
    // Per-b-tuple hulls and output-space constraint matrices, hoisted out
    // of the pair loop (both depend only on tb) for the rows some bucket
    // reaches.  slot[j] maps a b row to its entry in hull_b / cb_mapped.
    std::vector<std::int64_t> slot;
    const std::vector<std::size_t> touched = TouchedRows(a_buckets, b, slot);
    std::vector<TemporalHull> hull_b;
    std::vector<Dbm> cb_mapped;
    hull_b.reserve(touched.size());
    cb_mapped.reserve(touched.size());
    for (std::size_t j : touched) {
      const GeneralizedTuple& tb = b.tuples()[j];
      hull_b.push_back(TemporalHull::Of(tb));
      cb_mapped.push_back(
          tb.constraints().MapVariables(b_temporal_target, m_out));
    }
    ITDB_ASSIGN_OR_RETURN(
        tuples,
        ParallelAppend<GeneralizedTuple>(
            static_cast<std::int64_t>(a.size()),
            ParallelOptions{options.threads, /*grain=*/16},
            [&](std::int64_t row, std::vector<GeneralizedTuple>& part)
                -> Status {
              const GeneralizedTuple& ta =
                  a.tuples()[static_cast<std::size_t>(row)];
              const std::span<const std::size_t> bucket =
                  a_buckets[static_cast<std::size_t>(row)];
              if (bucket.empty()) return Status::Ok();
              TemporalHull ha = TemporalHull::Of(ta);
              std::optional<Dbm> ca_ext;
              if (ha.usable()) {
                ca_ext = ha.closed->AppendVariablesClosed(m_out - ma);
              }
              for (std::size_t j : bucket) {
                const GeneralizedTuple& tb = b.tuples()[j];
                bool residue_empty = false;
                for (const auto& [ca_col, cb_col] : shared_temporal) {
                  if (LrpIntersectionEmpty(ta.lrp(ca_col), tb.lrp(cb_col))) {
                    residue_empty = true;
                    break;
                  }
                }
                if (residue_empty) {
                  BumpCounter(&KernelCounters::pairs_pruned_residue, options,
                              1);
                  continue;
                }
                const TemporalHull& hb =
                    hull_b[static_cast<std::size_t>(slot[j])];
                if (ha.infeasible || hb.infeasible ||
                    HullsDisjoint(ha, hb, shared_temporal)) {
                  BumpCounter(&KernelCounters::pairs_pruned_hull, options, 1);
                  continue;
                }
                std::vector<Lrp> lrps = ta.temporal();
                lrps.resize(static_cast<std::size_t>(m_out));
                bool temporal_ok = true;
                ITDB_RETURN_IF_ERROR(
                    intersect_shared(ta, tb, lrps, temporal_ok));
                if (!temporal_ok) continue;
                std::vector<Value> data = ta.data();
                for (int j2 : b_new_data) data.push_back(tb.value(j2));
                GeneralizedTuple t(std::move(lrps), std::move(data));
                Dbm merged(m_out);
                const Dbm& cb = cb_mapped[static_cast<std::size_t>(slot[j])];
                if (ca_ext.has_value()) {
                  ITDB_ASSIGN_OR_RETURN(
                      merged,
                      ConjoinOntoClosed(*ca_ext, cb, options.counters));
                } else {
                  // ta's own closure overflowed: replay the naive kernel so
                  // its status is reproduced exactly.
                  Dbm ca = ta.constraints().AppendVariables(m_out - ma);
                  merged = Dbm::Conjoin(ca, cb);
                  ITDB_RETURN_IF_ERROR(merged.Close());
                }
                if (!merged.feasible()) continue;
                t.set_constraints(std::move(merged));
                part.push_back(std::move(t));
              }
              return Status::Ok();
            }));
  } else {
    ITDB_RETURN_IF_ERROR(
        CheckBudget(static_cast<std::int64_t>(a.size()) * b.size(), options,
                    "Join"));
    // Tuple-pair matching is independent per pair; fan the rows of `a` out
    // over the thread pool.  Per-row buffers keep b's order within each row
    // and merge in row order: byte-identical to the sequential double loop.
    ITDB_ASSIGN_OR_RETURN(
        tuples,
        ParallelAppend<GeneralizedTuple>(
            static_cast<std::int64_t>(a.size()),
            ParallelOptions{options.threads, /*grain=*/16},
            [&](std::int64_t row, std::vector<GeneralizedTuple>& part)
                -> Status {
              const GeneralizedTuple& ta =
                  a.tuples()[static_cast<std::size_t>(row)];
              for (const GeneralizedTuple& tb : b.tuples()) {
                // Shared data attributes must agree.
                bool data_ok = true;
                for (int j = 0; j < sb.data_arity(); ++j) {
                  int i = b_data_match[static_cast<std::size_t>(j)];
                  if (i >= 0 && ta.value(i) != tb.value(j)) {
                    data_ok = false;
                    break;
                  }
                }
                if (!data_ok) continue;
                // Shared temporal attributes: lrp intersection.
                std::vector<Lrp> lrps = ta.temporal();
                lrps.resize(static_cast<std::size_t>(m_out));
                bool temporal_ok = true;
                ITDB_RETURN_IF_ERROR(
                    intersect_shared(ta, tb, lrps, temporal_ok));
                if (!temporal_ok) continue;
                std::vector<Value> data = ta.data();
                for (int j : b_new_data) data.push_back(tb.value(j));
                GeneralizedTuple t(std::move(lrps), std::move(data));
                Dbm ca = ta.constraints().AppendVariables(m_out - ma);
                Dbm cb =
                    tb.constraints().MapVariables(b_temporal_target, m_out);
                Dbm merged = Dbm::Conjoin(ca, cb);
                ITDB_RETURN_IF_ERROR(merged.Close());
                if (!merged.feasible()) continue;
                t.set_constraints(std::move(merged));
                part.push_back(std::move(t));
              }
              return Status::Ok();
            }));
  }
  GeneralizedRelation out(std::move(schema));
  for (GeneralizedTuple& t : tuples) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
  }
  return out;
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
  // Free and pinned columns go exactly; only the rest is normalized.
  ITDB_ASSIGN_OR_RETURN(
      std::optional<ExactElimination> rest,
      EliminateFreeAndPinnedColumns(
          t, std::vector<bool>(static_cast<std::size_t>(t.temporal_arity()),
                               true)));
  if (!rest.has_value()) return true;
  if (rest->tuple.temporal_arity() == 0) return false;
  ITDB_ASSIGN_OR_RETURN(std::vector<GeneralizedTuple> normal,
                        CachedNormalizeTuple(options.normalize_cache,
                                             rest->tuple, options.normalize));
  // NormalizeTuple prunes infeasible combinations, so any survivor is a
  // nonempty piece of the extension.
  return normal.empty();
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

Result<std::optional<std::vector<std::int64_t>>> FindTemporalWitness(
    const GeneralizedTuple& t, const AlgebraOptions& options) {
  using MaybePoint = std::optional<std::vector<std::int64_t>>;
  ITDB_ASSIGN_OR_RETURN(
      std::vector<GeneralizedTuple> normal,
      CachedNormalizeTuple(options.normalize_cache, t, options.normalize));
  if (normal.empty()) return MaybePoint(std::nullopt);
  const GeneralizedTuple& nt = normal.front();
  // Fix the n-space variables one at a time: each variable is pinned to its
  // tightest finite bound (lower preferred, else upper, else 0); re-closing
  // after each pin keeps the system feasible because the pinned value lies
  // inside the variable's admissible interval of the closed DBM.
  ITDB_ASSIGN_OR_RETURN(NSpaceTuple ns, NSpaceTuple::Build(nt));
  if (!ns.feasible()) return MaybePoint(std::nullopt);
  // Re-derive the n-space DBM here: NSpaceTuple does not expose its matrix,
  // so work with the X-space values via repeated equality selection instead.
  // Pin columns left to right.
  GeneralizedTuple pinned = nt;
  std::vector<std::int64_t> point(static_cast<std::size_t>(nt.temporal_arity()));
  for (int col = 0; col < nt.temporal_arity(); ++col) {
    const Lrp& l = pinned.lrp(col);
    if (l.period() == 0) {
      point[static_cast<std::size_t>(col)] = l.offset();
      continue;
    }
    // Project the current tuple onto this column to learn its admissible
    // lattice values, then pick the smallest bounded one.
    ITDB_ASSIGN_OR_RETURN(NSpaceTuple view, NSpaceTuple::Build(pinned));
    if (!view.feasible()) {
      return Status::InvalidArgument(
          "FindTemporalWitness: pinning made the tuple infeasible (bug)");
    }
    for (int other = 0; other < nt.temporal_arity(); ++other) {
      if (other != col) ITDB_RETURN_IF_ERROR(view.EliminateColumn(other));
    }
    ITDB_ASSIGN_OR_RETURN(GeneralizedTuple unary, view.Rebuild({col}, {}));
    // The unary tuple is an lrp with bound constraints; pick its smallest
    // element if bounded below, else its largest if bounded above, else the
    // offset itself.
    Dbm c = unary.constraints();
    ITDB_RETURN_IF_ERROR(c.Close());
    std::int64_t lo_bound = c.bound_node(0, 1);  // -x <= b  ->  x >= -b.
    std::int64_t hi_bound = c.bound_node(1, 0);  //  x <= b.
    std::int64_t value;
    if (lo_bound != Dbm::kInf) {
      std::optional<std::int64_t> v = unary.lrp(0).FirstAtLeast(-lo_bound);
      if (!v.has_value()) return MaybePoint(std::nullopt);
      value = *v;
      if (hi_bound != Dbm::kInf && value > hi_bound) {
        return MaybePoint(std::nullopt);
      }
    } else if (hi_bound != Dbm::kInf) {
      // Largest lattice element <= hi_bound: step down from FirstAtLeast.
      std::optional<std::int64_t> v = unary.lrp(0).FirstAtLeast(hi_bound);
      value = (v.has_value() && *v == hi_bound)
                  ? hi_bound
                  : hi_bound - FloorMod(hi_bound - unary.lrp(0).offset(),
                                        unary.lrp(0).period());
    } else {
      value = unary.lrp(0).offset();
    }
    point[static_cast<std::size_t>(col)] = value;
    // Pin: replace the column's lrp by the chosen singleton.
    std::vector<Lrp> lrps = pinned.temporal();
    lrps[static_cast<std::size_t>(col)] = Lrp::Singleton(value);
    GeneralizedTuple next(std::move(lrps), pinned.data());
    next.set_constraints(pinned.constraints());
    pinned = std::move(next);
  }
  if (!nt.ContainsTemporal(point)) {
    return Status::InvalidArgument(
        "FindTemporalWitness produced a non-member point (bug)");
  }
  return MaybePoint(std::move(point));
}

Result<std::optional<ConcreteRow>> FindWitness(const GeneralizedRelation& r,
                                               const AlgebraOptions& options) {
  for (const GeneralizedTuple& t : r.tuples()) {
    ITDB_ASSIGN_OR_RETURN(std::optional<std::vector<std::int64_t>> point,
                          FindTemporalWitness(t, options));
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

