#include "core/relation.h"

#include <algorithm>
#include <bit>

#include "core/index.h"

namespace itdb {

std::string ConcreteRow::ToString() const {
  std::string out = "(";
  bool first = true;
  for (std::int64_t t : temporal) {
    if (!first) out += ", ";
    out += std::to_string(t);
    first = false;
  }
  for (const Value& v : data) {
    if (!first) out += ", ";
    out += v.ToString();
    first = false;
  }
  out += ")";
  return out;
}

bool CanonicalTupleLess(const GeneralizedTuple& a, const GeneralizedTuple& b) {
  // Tuples of one relation share a schema, so the arity comparisons only
  // matter for cross-relation use; they keep the order total regardless.
  if (a.temporal_arity() != b.temporal_arity()) {
    return a.temporal_arity() < b.temporal_arity();
  }
  for (int i = 0; i < a.temporal_arity(); ++i) {
    const Lrp& la = a.lrp(i);
    const Lrp& lb = b.lrp(i);
    if (la.offset() != lb.offset()) return la.offset() < lb.offset();
    if (la.period() != lb.period()) return la.period() < lb.period();
  }
  if (a.data_arity() != b.data_arity()) return a.data_arity() < b.data_arity();
  for (int i = 0; i < a.data_arity(); ++i) {
    if (a.value(i) != b.value(i)) return a.value(i) < b.value(i);
  }
  const Dbm& da = a.constraints();
  const Dbm& db = b.constraints();
  if (da.num_vars() != db.num_vars()) return da.num_vars() < db.num_vars();
  const int nodes = da.num_vars() + 1;
  for (int p = 0; p < nodes; ++p) {
    for (int q = 0; q < nodes; ++q) {
      if (da.bound_node(p, q) != db.bound_node(p, q)) {
        return da.bound_node(p, q) < db.bound_node(p, q);
      }
    }
  }
  return false;
}

void GeneralizedRelation::SortTuplesCanonical() {
  std::sort(tuples_.begin(), tuples_.end(), CanonicalTupleLess);
}

void GeneralizedRelation::KeepFirstOfEqual(KernelCounters* counters) {
  const std::size_t n = tuples_.size();
  if (n < 2) return;
  // Open addressing over the kept tuples' positions; n marks a free slot.
  // Kept tuples are compacted to the front as they are found, so a slot
  // always names a position below the tuple being looked up.
  const std::size_t mask = std::bit_ceil(2 * n) - 1;
  std::vector<std::size_t> slots(mask + 1, n);
  std::vector<std::uint64_t> hashes(n);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = internal::TupleHash(tuples_[i]);
    std::size_t s = static_cast<std::size_t>(h) & mask;
    bool equal = false;
    for (; slots[s] != n; s = (s + 1) & mask) {
      const std::size_t j = slots[s];
      if (hashes[j] == h && tuples_[j] == tuples_[i]) {
        equal = true;
        break;
      }
    }
    if (equal) continue;
    if (kept != i) tuples_[kept] = std::move(tuples_[i]);
    hashes[kept] = h;
    slots[s] = kept;
    ++kept;
  }
  if (counters != nullptr && kept < n) {
    counters->tuples_equal_dropped.fetch_add(
        static_cast<std::int64_t>(n - kept), std::memory_order_relaxed);
  }
  tuples_.erase(tuples_.begin() + static_cast<std::ptrdiff_t>(kept),
                tuples_.end());
}

Status GeneralizedRelation::AddTuple(GeneralizedTuple t) {
  if (t.temporal_arity() != schema_.temporal_arity() ||
      t.data_arity() != schema_.data_arity()) {
    return Status::InvalidArgument(
        "tuple arity (" + std::to_string(t.temporal_arity()) + " temporal, " +
        std::to_string(t.data_arity()) + " data) does not match schema " +
        schema_.ToString());
  }
  tuples_.push_back(std::move(t));
  return Status::Ok();
}

bool GeneralizedRelation::Contains(const ConcreteRow& row) const {
  for (const GeneralizedTuple& t : tuples_) {
    if (t.data() == row.data && t.ContainsTemporal(row.temporal)) return true;
  }
  return false;
}

std::vector<ConcreteRow> GeneralizedRelation::Enumerate(std::int64_t lo,
                                                        std::int64_t hi) const {
  std::vector<ConcreteRow> out;
  for (const GeneralizedTuple& t : tuples_) {
    for (std::vector<std::int64_t>& point : t.EnumerateTemporal(lo, hi)) {
      out.push_back(ConcreteRow{std::move(point), t.data()});
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string GeneralizedRelation::ToString() const {
  std::string out = schema_.ToString() + "\n";
  for (const GeneralizedTuple& t : tuples_) {
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

}  // namespace itdb
