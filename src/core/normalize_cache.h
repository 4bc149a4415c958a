// Memoization of Theorem 3.2 normalization.
//
// Query evaluation and the complement's residue sweep normalize the same
// tuple shapes over and over: the split of a tuple to a common period
// depends only on (lrp vector, canonical constraint form, target period,
// split budget) -- NOT on the tuple's data values, and not on which of the
// infinitely many raw constraint systems with the same closure it carries.
// This cache keys on exactly that quadruple and stores the surviving lrp
// combinations; a hit re-attaches the caller's own (raw) constraints and
// data, so cached and uncached results are byte-identical.
//
// The cache is a plain LRU over a serialized key, safe for concurrent use
// (one mutex; entries are copied out under the lock).  Failures (split
// budget, overflow) are never cached -- they are rare and must re-report
// with the caller's exact budget message.

#ifndef ITDB_CORE_NORMALIZE_CACHE_H_
#define ITDB_CORE_NORMALIZE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/lrp.h"
#include "core/normalize.h"
#include "core/tuple.h"
#include "util/status.h"

namespace itdb {

/// An LRU memo-cache for NormalizeTupleToPeriod.  Thread-safe.
class NormalizeCache {
 public:
  /// `capacity`: maximum number of distinct (tuple shape, period) entries.
  explicit NormalizeCache(std::size_t capacity = 1 << 12);

  NormalizeCache(const NormalizeCache&) = delete;
  NormalizeCache& operator=(const NormalizeCache&) = delete;

  /// Drop-in replacement for NormalizeTupleToPeriod (same results, byte for
  /// byte): looks up the surviving lrp combinations for this tuple's shape
  /// and rebuilds the output with the tuple's own constraints and data.
  Result<std::vector<GeneralizedTuple>> NormalizeToPeriod(
      const GeneralizedTuple& t, std::int64_t period,
      const NormalizeOptions& options);

  /// Same, to the tuple's own common period (lcm of its lrp periods).
  Result<std::vector<GeneralizedTuple>> Normalize(
      const GeneralizedTuple& t, const NormalizeOptions& options);

  /// FirstNormalPiece(t, options) through the cache: a cached entry for
  /// the tuple's shape at its common period answers it, else the sweep
  /// stops at its first survivor.  A partial sweep is not inserted.
  Result<std::optional<GeneralizedTuple>> FirstPiece(
      const GeneralizedTuple& t, const NormalizeOptions& options);

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
    /// Surviving combinations, in enumeration order; each combination is
    /// the full lrp vector of one output tuple.
    std::vector<std::vector<Lrp>> survivors;
    LruList::iterator lru_pos;
  };

  /// Looks `key` up, counting a hit or a miss; a hit copies out at most
  /// `limit` survivors, in enumeration order.
  std::optional<std::vector<std::vector<Lrp>>> Find(const std::string& key,
                                                    std::size_t limit);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::unordered_map<std::string, Entry> entries_;
  LruList lru_;  // Front = most recently used.
  Stats stats_;
};

/// Normalizes through `cache` when non-null, else calls the plain function.
/// The two paths produce identical results.
Result<std::vector<GeneralizedTuple>> CachedNormalizeTupleToPeriod(
    NormalizeCache* cache, const GeneralizedTuple& t, std::int64_t period,
    const NormalizeOptions& options);
Result<std::vector<GeneralizedTuple>> CachedNormalizeTuple(
    NormalizeCache* cache, const GeneralizedTuple& t,
    const NormalizeOptions& options);
Result<std::optional<GeneralizedTuple>> CachedFirstNormalPiece(
    NormalizeCache* cache, const GeneralizedTuple& t,
    const NormalizeOptions& options);

}  // namespace itdb

#endif  // ITDB_CORE_NORMALIZE_CACHE_H_
