// The server's worker pool and cooperative cancellation.
//
// Every statement runs on the one thread that took it: the per-tuple and
// per-pair kernels of Section 3 are plain loops, and concurrency exists
// only between sessions, whose statement pumps the server submits to the
// process-wide ThreadPool.  A statement's deadline reaches those loops
// through the CancellationToken its thread has installed.

#ifndef ITDB_UTIL_THREAD_POOL_H_
#define ITDB_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace itdb {

/// Cooperative cancellation and deadlines.
///
/// A token is armed with a wall-clock deadline (or cancelled outright) and
/// installed on the current thread with a CancellationScope.  Checks are
/// cooperative: kernels call CheckCancellation() at convenient boundaries
/// (the long sweeps every kCancellationStride indices, via
/// CheckCancellationAt) and fail with kResourceExhausted, so
/// Status-propagating pipelines unwind cleanly and never return a
/// truncated result.
///
/// All members are safe to call from any thread.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Arms the deadline: Expired() becomes true once the steady clock
  /// reaches `deadline`.  Re-arming moves the deadline.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
    has_deadline_.store(true, std::memory_order_release);
  }
  /// Arms the deadline `budget` from now.  A non-positive budget expires
  /// immediately.
  void SetDeadlineAfter(std::chrono::nanoseconds budget) {
    SetDeadline(std::chrono::steady_clock::now() + budget);
  }

  /// Expires the token immediately, regardless of any deadline.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Cancelled, or the armed deadline has passed.  The fast path (no
  /// deadline, not cancelled) is two relaxed loads -- no clock read.
  bool Expired() const {
    if (cancelled()) return true;
    if (!has_deadline_.load(std::memory_order_acquire)) return false;
    return std::chrono::steady_clock::now().time_since_epoch().count() >=
           deadline_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::atomic<std::int64_t> deadline_ns_{0};
};

/// RAII: installs `token` (which may be null: no cancellation) as the
/// current thread's token for the scope's lifetime, restoring the previous
/// one on exit.  Scopes nest; the innermost wins.
class CancellationScope {
 public:
  explicit CancellationScope(const CancellationToken* token);
  ~CancellationScope();
  CancellationScope(const CancellationScope&) = delete;
  CancellationScope& operator=(const CancellationScope&) = delete;

 private:
  const CancellationToken* saved_;
};

/// The current thread's installed token, or null.
const CancellationToken* CurrentCancellationToken();

/// OK when no token is installed or the installed token has not expired;
/// kResourceExhausted("deadline exceeded" / "cancelled") otherwise.
Status CheckCancellation();

/// How many indices a sweep runs between two cancellation checks: the
/// stride keeps clock reads off the per-index path.
inline constexpr std::int64_t kCancellationStride = 64;

/// CheckCancellation() at every kCancellationStride-th index of a sweep,
/// index 0 included; OK at the others.
inline Status CheckCancellationAt(std::int64_t index) {
  return index % kCancellationStride == 0 ? CheckCancellation()
                                          : Status::Ok();
}

/// A lazily grown, process-wide pool of worker threads.  Tasks must not
/// block on other tasks.
class ThreadPool {
 public:
  /// Hard cap on workers (sanity bound for ITDB_THREADS).
  static constexpr int kMaxWorkers = 256;

  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const;

  /// Grows the pool to at least `count` workers (capped at kMaxWorkers).
  void EnsureWorkers(int count);

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Lifetime instrumentation, readable from any thread.  The obs layer
  /// publishes these into the central metrics registry; the pool itself
  /// stays free of higher-layer dependencies.
  struct PoolStats {
    std::int64_t tasks_submitted = 0;
    std::int64_t queue_depth_max = 0;  // High-water mark of pending tasks.
    int workers = 0;
  };
  PoolStats stats() const;

  /// The shared pool.  Created empty; the server grows it to
  /// DefaultThreads() when it starts.
  static ThreadPool& Global();

  /// The default parallelism: ITDB_THREADS when set (clamped to
  /// [1, kMaxWorkers]), else std::thread::hardware_concurrency(), at least 1.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::int64_t tasks_submitted_ = 0;   // Guarded by mu_.
  std::int64_t queue_depth_max_ = 0;   // Guarded by mu_.
};

}  // namespace itdb

#endif  // ITDB_UTIL_THREAD_POOL_H_
