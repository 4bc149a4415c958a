#include "obs/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace itdb {
namespace obs {
namespace {

TEST(CounterTest, AddIncrementReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(CounterTest, RecordMaxIsAHighWaterMark) {
  Counter c;
  c.RecordMax(7);
  c.RecordMax(3);  // Lower: no effect.
  EXPECT_EQ(c.value(), 7);
  c.RecordMax(19);
  EXPECT_EQ(c.value(), 19);
}

TEST(CounterTest, ConcurrentAddsSum) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(HistogramTest, BucketsByBitWidth) {
  Histogram h;
  h.Record(0);  // Bucket 0.
  h.Record(1);  // Bucket 1.
  h.Record(2);  // Bucket 2: [2, 4).
  h.Record(3);  // Bucket 2.
  h.Record(4);  // Bucket 3: [4, 8).
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.sum, 10);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 4);
  EXPECT_EQ(s.buckets[0], 1);
  EXPECT_EQ(s.buckets[1], 1);
  EXPECT_EQ(s.buckets[2], 2);
  EXPECT_EQ(s.buckets[3], 1);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.buckets[0], 1);
}

TEST(HistogramTest, BucketLowerBounds) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4);
  EXPECT_EQ(Histogram::BucketLowerBound(4), 8);
}

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("reg.a");
  Counter* again = registry.GetCounter("reg.a");
  EXPECT_EQ(a, again);  // Same handle on every lookup.
  a->Add(3);
  Histogram* h = registry.GetHistogram("reg.h");
  h->Record(5);
  MetricsRegistry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("reg.a"), 3);
  EXPECT_EQ(snap.histograms.at("reg.h").count, 1);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsNames) {
  MetricsRegistry registry;
  registry.GetCounter("reg.b")->Add(9);
  registry.Reset();
  MetricsRegistry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("reg.b"), 0);
}

TEST(MetricsRegistryTest, ToTextListsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("text.count")->Add(12);
  registry.GetHistogram("text.sizes")->Record(100);
  std::string text = registry.snapshot().ToText();
  EXPECT_NE(text.find("text.count 12"), std::string::npos);
  EXPECT_NE(text.find("text.sizes"), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalCounterShorthand) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.global_shorthand");
  std::int64_t before = c->value();
  AddGlobalCounter("test.global_shorthand", 5);
  EXPECT_EQ(c->value(), before + 5);
}

TEST(MetricsRegistryTest, PublishThreadPoolMetrics) {
  MetricsRegistry registry;
  PublishThreadPoolMetrics(registry);
  MetricsRegistry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.count("thread_pool.workers"), 1u);
  EXPECT_EQ(snap.counters.count("thread_pool.queue_depth_max"), 1u);
  EXPECT_EQ(snap.counters.count("thread_pool.tasks_submitted"), 1u);
  EXPECT_GE(snap.counters.at("thread_pool.tasks_submitted"), 0);
}

}  // namespace
}  // namespace obs
}  // namespace itdb
