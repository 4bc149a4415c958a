// Generalized relations (Definition 2.3): finite sets of generalized tuples
// sharing one schema.

#ifndef ITDB_CORE_RELATION_H_
#define ITDB_CORE_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/schema.h"
#include "core/tuple.h"
#include "util/status.h"

namespace itdb {

struct KernelCounters;  // core/index.h

/// A concrete (fully instantiated) row: one integer per temporal attribute
/// and one value per data attribute.  Used by the ground-truth enumeration
/// APIs and by the finite baseline.
struct ConcreteRow {
  std::vector<std::int64_t> temporal;
  std::vector<Value> data;

  friend bool operator==(const ConcreteRow& a, const ConcreteRow& b) = default;
  friend auto operator<=>(const ConcreteRow& a,
                          const ConcreteRow& b) = default;

  std::string ToString() const;
};

/// A generalized relation: a schema plus a finite set of generalized tuples.
/// The represented (possibly infinite) set of concrete rows is the union of
/// the tuples' extensions.
class GeneralizedRelation {
 public:
  GeneralizedRelation() = default;
  explicit GeneralizedRelation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  const std::vector<GeneralizedTuple>& tuples() const { return tuples_; }
  /// Tuple count as a signed 64-bit value: relation sizes feed pair-product
  /// budgets (size_a * size_b), which an `int` return would silently
  /// truncate / overflow at workload scale.
  std::int64_t size() const {
    return static_cast<std::int64_t>(tuples_.size());
  }

  /// Appends a tuple; fails when its arities do not match the schema.
  Status AddTuple(GeneralizedTuple t);

  /// Pre-sizes the tuple store for `n` upcoming AddTuple calls.  Bulk
  /// loaders (the binary snapshot decoder) know the row count up front;
  /// growth-doubling would otherwise re-move every tuple O(log n) times.
  void ReserveTuples(std::size_t n) { tuples_.reserve(n); }

  /// Concrete membership test (exact; no normalization needed).
  bool Contains(const ConcreteRow& row) const;

  /// All concrete rows whose temporal coordinates lie in [lo, hi], sorted
  /// and deduplicated.  Ground truth for property tests.
  std::vector<ConcreteRow> Enumerate(std::int64_t lo, std::int64_t hi) const;

  /// One tuple per line, in the paper's table notation.
  std::string ToString() const;

  /// Sorts the tuple sequence by CanonicalTupleLess.  The represented set
  /// is an (unordered) union over tuples, so this is semantics-preserving;
  /// it pins a REPRESENTATION that no longer depends on the order tuples
  /// were produced in -- the keystone of the planner's bit-identity
  /// guarantee (query/planner.h): join results conjoin closed constraint
  /// systems, whose closure is association-invariant, so reordered plans
  /// yield the same tuple multiset and sorting makes the sequences equal.
  void SortTuplesCanonical();

  /// Keeps the first of each group of equal tuples (operator==), in their
  /// order.  The represented set is unchanged; operators over the relation
  /// stop paying for a tuple twice.  Adds the number dropped to
  /// counters->tuples_equal_dropped when `counters` is not null.  A hash
  /// over the lrps, data and matrix finds the groups, so no tuples are
  /// compared unless their hashes match; below two tuples it does nothing.
  void KeepFirstOfEqual(KernelCounters* counters);

 private:
  Schema schema_;
  std::vector<GeneralizedTuple> tuples_;
};

/// A strict total order on the full representation of a generalized tuple:
/// lrps lexicographically by (offset, period), then data values, then the
/// constraint matrix (variable count, then entries node-major).  Equivalence
/// under this order is exactly operator== on GeneralizedTuple.
bool CanonicalTupleLess(const GeneralizedTuple& a, const GeneralizedTuple& b);

}  // namespace itdb

#endif  // ITDB_CORE_RELATION_H_
