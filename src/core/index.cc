#include "core/index.h"

#include <cassert>
#include <functional>
#include <string>
#include <utility>
#include <variant>

#include "util/numeric.h"

namespace itdb {

void KernelCounters::Reset() {
  pairs_total.store(0, std::memory_order_relaxed);
  pairs_candidate.store(0, std::memory_order_relaxed);
  pairs_pruned_residue.store(0, std::memory_order_relaxed);
  pairs_pruned_hull.store(0, std::memory_order_relaxed);
  closures_incremental.store(0, std::memory_order_relaxed);
  closures_full.store(0, std::memory_order_relaxed);
  tuples_equal_dropped.store(0, std::memory_order_relaxed);
}

bool LrpIntersectionEmpty(const Lrp& a, const Lrp& b) {
  // Mirrors Lrp::Intersect's emptiness decisions exactly, in the same order
  // and through the same primitives, so the prefilter and Lrp::Intersect
  // agree on every input -- including any edge cases of Contains / FloorMod.
  if (a.period() == 0) return !b.Contains(a.offset());
  if (b.period() == 0) return !a.Contains(b.offset());
  std::int64_t g = Gcd(a.period(), b.period());
  std::int64_t diff = b.offset() - a.offset();  // Canonical offsets: no
                                                // overflow (both in [0, k)).
  return FloorMod(diff, g) != 0;
}

namespace internal {

namespace {

// Finalizer of splitmix64: a fast, well-mixing permutation of 64-bit ints.
std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t HashOne(const Value& v) {
  if (v.IsInt()) return Mix64(static_cast<std::uint64_t>(v.AsInt()));
  return std::hash<std::string>{}(v.AsString());
}

// Order-dependent combine (boost-style), shared by both key forms so a
// stored vector key and an in-place probe of equal values hash alike.
std::uint64_t Combine(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

}  // namespace

std::size_t ValueKeyHash::operator()(const ProbeKey& key) const {
  std::uint64_t h = key.cols->size();
  for (int c : *key.cols) h = Combine(h, HashOne(key.tuple->value(c)));
  return static_cast<std::size_t>(h);
}

std::uint64_t TupleHash(const GeneralizedTuple& t) {
  std::uint64_t h = static_cast<std::uint64_t>(t.temporal_arity());
  for (const Lrp& l : t.temporal()) {
    h = Combine(h, static_cast<std::uint64_t>(l.offset()));
    h = Combine(h, static_cast<std::uint64_t>(l.period()));
  }
  for (const Value& v : t.data()) h = Combine(h, HashOne(v));
  const Dbm& d = t.constraints();
  const int nodes = d.num_vars() + 1;
  for (int p = 0; p < nodes; ++p) {
    for (int q = 0; q < nodes; ++q) {
      h = Combine(h, static_cast<std::uint64_t>(d.bound_node(p, q)));
    }
  }
  // The low bits pick a slot, so mix them.
  return Mix64(h);
}

}  // namespace internal

bool DataKeyIndex::KeysEqual(const GeneralizedTuple& probe,
                             const std::vector<int>& probe_cols,
                             std::size_t row) const {
  const GeneralizedTuple& stored = rel_->tuples()[row];
  for (std::size_t c = 0; c < key_cols_.size(); ++c) {
    if (probe.value(probe_cols[c]) != stored.value(key_cols_[c])) return false;
  }
  return true;
}

DataKeyIndex::DataKeyIndex(const GeneralizedRelation& r,
                           std::vector<int> key_cols)
    : keyed_(!key_cols.empty()), key_cols_(std::move(key_cols)), rel_(&r) {
  const std::size_t n = r.tuples().size();
  rows_.resize(n);
  if (!keyed_) {
    for (std::size_t i = 0; i < n; ++i) rows_[i] = i;
    group_offsets_ = {0, n};
    return;
  }
  if (n == 0) {
    group_offsets_ = {0};
    return;
  }
  // Power-of-two table at most half full keeps linear-probe chains short.
  std::size_t table_size = 8;
  while (table_size < 2 * n) table_size *= 2;
  table_mask_ = table_size - 1;
  table_hash_.resize(table_size);
  table_group_.assign(table_size, -1);

  // Pass 1: assign each row a group id (first row with an equal key wins),
  // counting group sizes.  group_offsets_ doubles as the counts buffer.
  const internal::ValueKeyHash hasher;
  std::vector<std::uint64_t> row_hash(n);
  std::vector<std::int64_t> group_of(n);
  std::vector<std::size_t> group_first;
  group_offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const GeneralizedTuple& t = r.tuples()[i];
    const std::uint64_t h =
        hasher(internal::ProbeKey{&t, &key_cols_});
    row_hash[i] = h;
    std::size_t slot = h & table_mask_;
    std::int64_t g = -1;
    while (table_group_[slot] >= 0) {
      if (table_hash_[slot] == h &&
          KeysEqual(t, key_cols_,
                    group_first[static_cast<std::size_t>(
                        table_group_[slot])])) {
        g = table_group_[slot];
        break;
      }
      slot = (slot + 1) & table_mask_;
    }
    if (g < 0) {
      g = static_cast<std::int64_t>(group_first.size());
      group_first.push_back(i);
      table_group_[slot] = g;
      table_hash_[slot] = h;
    }
    group_of[i] = g;
    ++group_offsets_[static_cast<std::size_t>(g) + 1];
  }
  const std::size_t num_groups = group_first.size();
  group_offsets_.resize(num_groups + 1);
  for (std::size_t g = 0; g < num_groups; ++g) {
    group_offsets_[g + 1] += group_offsets_[g];
  }
  // Pass 2: scatter rows into their group's CSR range.  Visiting rows in
  // ascending order keeps each group's indices ascending -- row order, which
  // the kernels' output order depends on.
  std::vector<std::size_t> cursor(group_offsets_.begin(),
                                  group_offsets_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    rows_[cursor[static_cast<std::size_t>(group_of[i])]++] = i;
  }
}

std::span<const std::size_t> DataKeyIndex::Candidates(
    const GeneralizedTuple& probe, const std::vector<int>& probe_cols) const {
  if (!keyed_) return {rows_.data(), rows_.size()};
  assert(probe_cols.size() == key_cols_.size());
  if (rows_.empty()) return {};
  const std::uint64_t h =
      internal::ValueKeyHash{}(internal::ProbeKey{&probe, &probe_cols});
  std::size_t slot = h & table_mask_;
  while (table_group_[slot] >= 0) {
    const std::size_t g = static_cast<std::size_t>(table_group_[slot]);
    if (table_hash_[slot] == h &&
        KeysEqual(probe, probe_cols, rows_[group_offsets_[g]])) {
      return {rows_.data() + group_offsets_[g],
              group_offsets_[g + 1] - group_offsets_[g]};
    }
    slot = (slot + 1) & table_mask_;
  }
  return {};
}

TemporalHull TemporalHull::Of(const GeneralizedTuple& t) {
  TemporalHull out;
  Dbm c = t.constraints();
  if (!c.Close().ok()) {
    out.close_failed = true;
    return out;
  }
  if (!c.feasible()) {
    out.infeasible = true;
    return out;
  }
  int m = c.num_vars();
  out.lo.resize(static_cast<std::size_t>(m));
  out.hi.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    // Row / column of the zero node: Xi <= bound(i+1, 0) and
    // -Xi <= bound(0, i+1), i.e. Xi >= -bound(0, i+1).
    std::int64_t upper = c.bound_node(i + 1, 0);
    std::int64_t lower = c.bound_node(0, i + 1);
    out.hi[static_cast<std::size_t>(i)] = upper;
    out.lo[static_cast<std::size_t>(i)] =
        lower == Dbm::kInf ? -Dbm::kInf : -lower;
  }
  out.closed = std::move(c);
  return out;
}

bool HullsDisjoint(const TemporalHull& a, const TemporalHull& b,
                   const std::vector<std::pair<int, int>>& cols) {
  if (!a.usable() || !b.usable()) return false;
  for (const auto& [ca, cb] : cols) {
    std::int64_t lo = std::max(a.lo[static_cast<std::size_t>(ca)],
                               b.lo[static_cast<std::size_t>(cb)]);
    std::int64_t hi = std::min(a.hi[static_cast<std::size_t>(ca)],
                               b.hi[static_cast<std::size_t>(cb)]);
    if (hi != Dbm::kInf && lo > hi) return true;
  }
  return false;
}

Result<Dbm> ConjoinOntoClosed(const Dbm& closed_base, const Dbm& addition,
                              KernelCounters* counters) {
  assert(closed_base.closed() && closed_base.feasible());
  assert(closed_base.num_vars() == addition.num_vars());
  Dbm out = closed_base;
  for (const AtomicConstraint& c : addition.ToAtomics()) {
    switch (out.TightenAndClose(c)) {
      case Dbm::TightenResult::kClosed:
        break;
      case Dbm::TightenResult::kInfeasible:
        // Adding the remaining constraints cannot restore feasibility, and
        // callers discard infeasible results without looking at the matrix.
        if (counters != nullptr) {
          counters->closures_incremental.fetch_add(1,
                                                   std::memory_order_relaxed);
        }
        return out;
      case Dbm::TightenResult::kFallbackNeeded: {
        // Bounds near the overflow guard: close the raw conjunction in full,
        // so the status (and matrix) are the full closure's.
        if (counters != nullptr) {
          counters->closures_full.fetch_add(1, std::memory_order_relaxed);
        }
        Dbm merged = Dbm::Conjoin(closed_base, addition);
        ITDB_RETURN_IF_ERROR(merged.Close());
        return merged;
      }
    }
  }
  if (counters != nullptr) {
    counters->closures_incremental.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

}  // namespace itdb
