// Central metrics registry: named counters and histograms with a lock-free
// fast path.
//
// Before this subsystem every layer kept its own ad-hoc instrumentation --
// KernelCounters in core/index.h, NormalizeCache::Stats, thread-pool queue
// depths nobody could read.  The registry unifies the *read* side: any layer
// registers a counter or histogram once (mutex-protected, name -> stable
// handle) and then updates it with a single relaxed atomic operation, safe
// from any thread.  Concurrent sessions all update the same atomics, so
// "merging" across them is the trivial no-op -- a snapshot observes the
// sum of every thread's contributions.
//
// Updates deliberately use std::memory_order_relaxed: metrics never guard
// data, and torn *cross-counter* consistency (a snapshot taken mid-query
// sees counter A bumped but not B) is acceptable by design.  A statement
// runs on one thread, so per-query deltas of its own kernel counters
// (snapshots before and after on that thread) are exact; the global
// counters also take in whatever concurrent sessions add meanwhile.

#ifndef ITDB_OBS_METRICS_H_
#define ITDB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace itdb {
namespace obs {

/// A monotonically updated 64-bit metric.  All operations are lock-free.
class Counter {
 public:
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Raises the stored value to at least `v` (for high-water marks such as
  /// queue depths).
  void RecordMax(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A log2-bucketed histogram of non-negative 64-bit values: bucket i counts
/// values v with bit_width(v) == i (bucket 0 holds v == 0), so bucket i
/// covers [2^(i-1), 2^i).  Recording is lock-free; negative values clamp
/// to 0.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(std::int64_t value);

  struct Snapshot {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;  // 0 when count == 0.
    std::int64_t max = 0;
    std::array<std::int64_t, kBuckets> buckets{};
  };
  Snapshot snapshot() const;

  /// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...).
  static std::int64_t BucketLowerBound(int i);

  void Reset();

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

/// A name -> metric directory.  Registration (first use of a name) takes a
/// mutex; the returned handles are stable for the registry's lifetime, so
/// hot paths cache them in a function-local static and update lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The counter / histogram registered under `name`, creating it on first
  /// use.  Never returns null; the handle outlives every caller (handles
  /// are never deleted, Reset only zeroes them).
  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  struct Snapshot {
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, Histogram::Snapshot> histograms;

    /// Human-readable dump, one metric per line, sorted by name.
    std::string ToText() const;
  };
  Snapshot snapshot() const;

  /// Zeroes every registered metric (names stay registered).
  void Reset();

  /// The process-wide registry that the engine's built-in instrumentation
  /// (dbm closures, normalization, cache, thread pool, query counters)
  /// reports into.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shorthand for MetricsRegistry::Global().GetCounter(name)->Add(delta),
/// for call sites that do not want to cache the handle themselves.
void AddGlobalCounter(std::string_view name, std::int64_t delta);

/// Publishes the shared thread pool's gauges into `registry` as
/// "thread_pool.workers", "thread_pool.queue_depth_max", and
/// "thread_pool.tasks_submitted".  The pool's numbers are monotone, so the
/// update uses RecordMax and calling at any frequency is safe.  (The pool
/// lives below obs and cannot push; readers pull through this bridge.)
void PublishThreadPoolMetrics(MetricsRegistry& registry);

}  // namespace obs
}  // namespace itdb

#endif  // ITDB_OBS_METRICS_H_
