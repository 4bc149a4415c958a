// A Database shared by many concurrent sessions.
//
// The storage-layer Database is a plain single-threaded catalog; the query
// service runs many readers (query evaluation walks the catalog for the
// whole evaluation: atoms, active-domain computation) against occasional
// writers (define / load / drop / coalesce / simplify).  This wrapper
// serializes them with one reader-writer lock held for the WHOLE callback:
// a query evaluated under WithRead observes one consistent catalog state,
// which is what makes the multi-client stress test's "bit-identical to
// serial execution" guarantee well-defined.
//
// Every write bumps a version counter.  The result table keys statements
// on (plan, version): two queries may share one evaluation only when no
// write could have interleaved between them.

#ifndef ITDB_SERVER_SHARED_DATABASE_H_
#define ITDB_SERVER_SHARED_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <utility>

#include "storage/database.h"

namespace itdb {
namespace server {

/// Reader-writer access to a borrowed Database.  The Database must outlive
/// the wrapper and every session using it; all mutation must go through
/// WithWrite once the wrapper exists.
class SharedDatabase {
 public:
  /// `initial_version` seeds the write-version -- the storage engine's
  /// recovered LSN when durability is on, so post-restart versions never
  /// collide with pre-crash ones and the version-keyed result table can
  /// never serve a stale pre-recovery entry.
  explicit SharedDatabase(Database* db, std::uint64_t initial_version = 0)
      : db_(db), version_(initial_version) {}

  SharedDatabase(const SharedDatabase&) = delete;
  SharedDatabase& operator=(const SharedDatabase&) = delete;

  /// Runs `fn(const Database&)` under the shared (reader) lock and returns
  /// its result.  Hold for the whole logical read -- e.g. one full query
  /// evaluation -- never for just a lookup you then use lock-free.
  template <typename Fn>
  auto WithRead(Fn&& fn) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return std::forward<Fn>(fn)(static_cast<const Database&>(*db_));
  }

  /// Runs `fn(Database&)` under the exclusive (writer) lock and bumps the
  /// version.  The version moves even when `fn` fails or changes nothing:
  /// over-invalidation only costs a missed batching opportunity, while
  /// under-invalidation would serve a stale result.
  template <typename Fn>
  auto WithWrite(Fn&& fn) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    version_.fetch_add(1, std::memory_order_relaxed);
    return std::forward<Fn>(fn)(*db_);
  }

  /// The write-version.  Stable while a WithRead callback is running (the
  /// reader lock excludes writers), so reading it inside WithRead yields
  /// the version the whole read observes.
  std::uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }

 private:
  Database* db_;
  mutable std::shared_mutex mu_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace server
}  // namespace itdb

#endif  // ITDB_SERVER_SHARED_DATABASE_H_
