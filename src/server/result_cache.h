// The versioned per-statement result table: one entry per statement key,
// either in flight or done.
//
// Interactive fleets are bursty and repetitive -- dashboards and retry
// storms submit the same statement from many clients at once, and
// monitoring fleets re-issue it between rare catalog writes.  Two requests
// whose statements have the same key (canonical plan text plus every
// outcome-changing option) and run against the same database version
// produce byte-identical output, by the engine's bit-identity guarantees.
// Run() serves both cases from one table:
//
//   * a done entry for the key is returned as is (a hit);
//   * an in-flight entry is waited for: the caller (a follower) shares the
//     outcome its leader publishes, failure or not;
//   * otherwise the caller leads: it marks the key in flight, computes on
//     its own thread, and publishes to every waiter.  The outcome stays as
//     a done entry only if it succeeded, its computation marked it
//     cacheable (a bounded root certificate: analysis/absint.h), and it
//     fits the byte budget.  A budget of 0 keeps nothing but still
//     coalesces concurrent duplicates.
//
// The table has one version clock: a statement at a newer database version
// drops every entry first (catalog writes invalidate wholesale), so a
// computation overtaken by a write is shared with its waiters but never
// kept.  A statement at an older version than the table's is computed
// alone and not kept.
//
// Deadlock safety on the shared thread pool: a follower only ever waits on
// a leader that is ALREADY RUNNING (the entry is created by the leader's
// own Run call, on the leader's thread, immediately before it computes),
// and leaders never wait on other requests, so progress never depends on a
// free worker.  Thread-safe; every operation takes one mutex, and the
// relation payload is shared immutably via shared_ptr, so hits copy no
// tuples.

#ifndef ITDB_SERVER_RESULT_CACHE_H_
#define ITDB_SERVER_RESULT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/relation.h"
#include "util/status.h"

namespace itdb {
namespace server {

class ResultCache {
 public:
  /// A finished statement: its Status plus everything it printed.  For
  /// `query` the result relation rides along (immutable, shared by every
  /// caller served from it) so a session can seat its fetch cursor.
  struct Outcome {
    Status status;
    std::string text;
    std::shared_ptr<const GeneralizedRelation> relation;
    /// Set by the computation: a successful outcome may be kept.
    bool cacheable = false;
  };

  /// How Run served its caller.
  enum class Served {
    kComputed,  // The caller computed (as leader, or alone).
    kShared,    // The caller waited for a concurrent leader's outcome.
    kHit,       // A done entry answered.
  };

  /// `byte_budget` bounds the estimated resident size of all done entries;
  /// an outcome larger than the whole budget is not kept.
  explicit ResultCache(std::size_t byte_budget);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the outcome for `key` at database `version`: a done entry's,
  /// a concurrent leader's, or `compute`'s on this thread (see above).
  /// `served`, if non-null, says which.
  Outcome Run(const std::string& key, std::uint64_t version,
              const std::function<Outcome()>& compute,
              Served* served = nullptr);

  struct Stats {
    std::uint64_t hits = 0;       // Answered by a done entry.
    std::uint64_t misses = 0;     // Found no done entry.
    std::uint64_t leads = 0;      // Computations actually run.
    std::uint64_t coalesced = 0;  // Served from a concurrent leader.
    std::uint64_t evictions = 0;      // LRU byte-budget evictions.
    std::uint64_t invalidations = 0;  // Version bumps that dropped entries.
    std::size_t entries = 0;  // Done entries.
    std::size_t bytes = 0;
  };
  Stats stats() const;

  std::size_t byte_budget() const { return byte_budget_; }

 private:
  /// A computation in progress: its leader and waiters share it, and it
  /// outlives its table entry if a version bump drops that entry.
  struct Flight {
    bool done = false;  // Published; waiters block until then.
    Outcome outcome;
  };
  /// In flight while `flight` is set; otherwise done, holding a kept
  /// successful outcome.
  struct Entry {
    std::shared_ptr<Flight> flight;
    std::string text;
    std::shared_ptr<const GeneralizedRelation> relation;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru_pos;  // Done entries only.
  };

  /// Drops every entry and advances the version clock.  Caller holds mu_.
  void ClearLocked(std::uint64_t version);

  const std::size_t byte_budget_;
  mutable std::mutex mu_;
  std::condition_variable published_;
  std::uint64_t version_ = 0;
  std::size_t bytes_ = 0;
  std::list<std::string> lru_;  // Done entries; front = most recent.
  std::unordered_map<std::string, Entry> entries_;
  Stats stats_;
};

/// The resident-size estimate the table charges for a result relation:
/// per-tuple lrp, data value, and constraint-matrix footprint.  Exposed for
/// the byte-budget tests.
std::size_t EstimateRelationBytes(const GeneralizedRelation& rel);

}  // namespace server
}  // namespace itdb

#endif  // ITDB_SERVER_RESULT_CACHE_H_
