#include "obs/metrics.h"

#include <bit>
#include <sstream>

#include "util/thread_pool.h"

namespace itdb {
namespace obs {

void Histogram::Record(std::int64_t value) {
  if (value < 0) value = 0;
  const int bucket =
      static_cast<int>(std::bit_width(static_cast<std::uint64_t>(value)));
  buckets_[static_cast<std::size_t>(bucket >= kBuckets ? kBuckets - 1 : bucket)]
      .fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  if (out.count > 0) {
    out.min = min_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
  }
  for (int i = 0; i < kBuckets; ++i) {
    out.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return out;
}

std::int64_t Histogram::BucketLowerBound(int i) {
  if (i <= 0) return 0;
  return std::int64_t{1} << (i - 1);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

std::string MetricsRegistry::Snapshot::ToText() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << name << " " << value << "\n";
  }
  for (const auto& [name, hist] : histograms) {
    out << name << " count=" << hist.count << " sum=" << hist.sum
        << " min=" << hist.min << " max=" << hist.max << "\n";
  }
  return out.str();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace(name, counter->value());
  }
  for (const auto& [name, hist] : histograms_) {
    out.histograms.emplace(name, hist->snapshot());
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, hist] : histograms_) hist->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: outlives every static destructor that might
  // still record a counter during shutdown.
  static MetricsRegistry* registry = new MetricsRegistry;  // lint:allow
  return *registry;
}

void AddGlobalCounter(std::string_view name, std::int64_t delta) {
  MetricsRegistry::Global().GetCounter(name)->Add(delta);
}

void PublishThreadPoolMetrics(MetricsRegistry& registry) {
  const ThreadPool::PoolStats stats = ThreadPool::Global().stats();
  registry.GetCounter("thread_pool.workers")->RecordMax(stats.workers);
  registry.GetCounter("thread_pool.queue_depth_max")
      ->RecordMax(stats.queue_depth_max);
  registry.GetCounter("thread_pool.tasks_submitted")
      ->RecordMax(stats.tasks_submitted);
}

}  // namespace obs
}  // namespace itdb
