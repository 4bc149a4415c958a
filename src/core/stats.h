// Per-relation statistics for cost-based planning (query/planner.h).
//
// A generalized relation's evaluation cost is governed by quantities the
// paper's complexity analysis singles out: how many generalized tuples it
// holds, how many distinct data keys each column carries (join fan-out),
// the lcm of its lrp periods (Lemma 3.1 splits tuples to the common period,
// so the lcm bounds normalization blowup), and the bounding interval of
// each temporal column (disjoint hulls cannot join).  ComputeRelationStats
// reads all of them in one pass; StatsCache memoizes the pass per relation,
// keyed on the catalog version (storage/database.h), so statistics are
// computed lazily and invalidated by any catalog mutation.
//
// Everything here is an ESTIMATE consumed by the planner's cost model --
// never by evaluation itself -- so staleness or imprecision can only change
// plan choice, not results (the planner is bit-identical by construction;
// see query/planner.h).

#ifndef ITDB_CORE_STATS_H_
#define ITDB_CORE_STATS_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/relation.h"

namespace itdb {

/// One relation's planning statistics.  Vector entries are per-column, in
/// schema order (temporal columns index the temporal vectors, data columns
/// the data vectors).
struct RelationStats {
  std::int64_t tuple_count = 0;
  /// Distinct (offset, period) pairs per temporal column: the number of
  /// residue classes a join on that column discriminates between.
  std::vector<std::int64_t> distinct_temporal;
  /// Exact distinct value count per data column (hash-join key cardinality).
  std::vector<std::int64_t> distinct_data;
  /// lcm of all lrp periods > 0 across the relation; 1 when every lrp is a
  /// singleton; nullopt when the lcm overflows int64 ("huge": any plan that
  /// normalizes this relation to a common period should be deferred).
  std::optional<std::int64_t> period_lcm;
  /// Like period_lcm but over EVERY representation tuple, infeasible ones
  /// included.  Complement picks its uniform period from the whole
  /// representation (CommonPeriod ignores feasibility), so certificates
  /// about period structure (analysis/absint.h) must start from this field,
  /// not from the feasible-only estimate above.
  std::optional<std::int64_t> period_lcm_rep;
  /// Certified upper bound on the tuple count after FULL normalization to
  /// each tuple's common period: sum over all tuples of
  /// prod_{columns with period k>0} (L_t / k), where L_t is the lcm of the
  /// tuple's nonzero periods.  This bounds the splitting any Project over
  /// this relation can perform (Project normalizes each constraint-graph
  /// part on its own period, which divides L_t, so it splits no more).
  /// nullopt when the sum or a factor overflows int64.
  std::optional<std::int64_t> normalized_rows;
  /// Inclusive bounding interval per temporal column, folding each tuple's
  /// DBM hull with its singleton lrps -- closed into the constraints as
  /// equalities, so a pinned column bounds the columns constrained against
  /// it; Dbm::kInf / -Dbm::kInf = unbounded.
  /// Empty (alongside hull_hi) when the relation has no tuples.
  std::vector<std::int64_t> hull_lo;
  std::vector<std::int64_t> hull_hi;
  /// The representation is provably empty at the bit level: no tuples, or
  /// every tuple's constraint system is infeasible.  Conservative (a tuple
  /// empty only over the integer lattice does not set it).
  bool bit_empty = false;
};

/// One full scan of `r`.  O(tuples * columns) plus one DBM closure per
/// tuple (two for a tuple with both a singleton lrp and a constraint);
/// never fails (overflowed aggregates degrade to "unknown").
RelationStats ComputeRelationStats(const GeneralizedRelation& r);

/// Human-readable rendering, one `name.field value` line per statistic (the
/// `stats` shell verb's output format).
std::string FormatRelationStats(const std::string& name,
                                const RelationStats& stats);

/// A thread-safe LRU cache of RelationStats keyed (relation name, catalog
/// version).  A lookup whose version differs from the cached one recomputes
/// and replaces the entry -- statistics are lazy and never stale.  Use one
/// cache per Database instance: versions of distinct databases are
/// unrelated.
class StatsCache {
 public:
  explicit StatsCache(std::size_t capacity = 256);

  StatsCache(const StatsCache&) = delete;
  StatsCache& operator=(const StatsCache&) = delete;

  /// The statistics of `relation` (which the caller looked up under `name`)
  /// at catalog version `version`: served from cache when fresh, otherwise
  /// computed and cached.
  RelationStats Get(const std::string& name, std::uint64_t version,
                    const GeneralizedRelation& relation);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

  void Clear();

 private:
  using LruList = std::list<std::string>;
  struct Entry {
    std::uint64_t version = 0;
    RelationStats stats;
    LruList::iterator lru_pos;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::unordered_map<std::string, Entry> entries_;
  LruList lru_;  // Front = most recently used.
  Stats stats_;
};

}  // namespace itdb

#endif  // ITDB_CORE_STATS_H_
