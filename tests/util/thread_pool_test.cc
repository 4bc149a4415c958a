#include "util/thread_pool.h"

#include <condition_variable>
#include <cstdlib>
#include <mutex>

#include <gtest/gtest.h>

namespace itdb {
namespace {

TEST(ThreadPoolTest, EnvironmentSizesDefaultThreads) {
  ASSERT_EQ(setenv("ITDB_THREADS", "2", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 2);
  ASSERT_EQ(setenv("ITDB_THREADS", "100000", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), ThreadPool::kMaxWorkers);
  ASSERT_EQ(setenv("ITDB_THREADS", "garbage", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);  // Unparsable: hardware default.
  ASSERT_EQ(unsetenv("ITDB_THREADS"), 0);
}

TEST(CancellationTest, NoTokenInstalledIsAlwaysOk) {
  EXPECT_EQ(CurrentCancellationToken(), nullptr);
  EXPECT_TRUE(CheckCancellation().ok());
}

TEST(CancellationTest, ScopeInstallsAndRestoresNested) {
  CancellationToken outer;
  CancellationToken inner;
  {
    CancellationScope a(&outer);
    EXPECT_EQ(CurrentCancellationToken(), &outer);
    {
      CancellationScope b(&inner);
      EXPECT_EQ(CurrentCancellationToken(), &inner);
    }
    EXPECT_EQ(CurrentCancellationToken(), &outer);
  }
  EXPECT_EQ(CurrentCancellationToken(), nullptr);
}

TEST(CancellationTest, CancelAndDeadlineExpireTheToken) {
  CancellationToken token;
  EXPECT_FALSE(token.Expired());
  token.SetDeadlineAfter(std::chrono::hours(1));
  EXPECT_FALSE(token.Expired());
  token.SetDeadlineAfter(std::chrono::nanoseconds(0));
  EXPECT_TRUE(token.Expired());

  CancellationToken cancelled;
  cancelled.Cancel();
  EXPECT_TRUE(cancelled.Expired());

  CancellationScope scope(&cancelled);
  Status s = CheckCancellation();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "cancelled");
}

TEST(CancellationTest, ExpiredDeadlineReportsDeadlineExceeded) {
  CancellationToken token;
  token.SetDeadlineAfter(std::chrono::nanoseconds(-1));
  CancellationScope scope(&token);
  Status s = CheckCancellation();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "deadline exceeded");
}

TEST(CancellationTest, SweepsCheckEveryStrideIndices) {
  CancellationToken token;
  token.Cancel();
  CancellationScope scope(&token);
  EXPECT_FALSE(CheckCancellationAt(0).ok());
  EXPECT_TRUE(CheckCancellationAt(1).ok());
  EXPECT_TRUE(CheckCancellationAt(kCancellationStride - 1).ok());
  EXPECT_FALSE(CheckCancellationAt(kCancellationStride).ok());
  EXPECT_FALSE(CheckCancellationAt(3 * kCancellationStride).ok());
}

TEST(ThreadPoolTest, EnsureWorkersGrowsMonotonically) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2);
  pool.EnsureWorkers(4);
  EXPECT_EQ(pool.num_workers(), 4);
  pool.EnsureWorkers(1);  // Never shrinks.
  EXPECT_EQ(pool.num_workers(), 4);
}

TEST(ThreadPoolTest, SubmitRunsEveryTaskAndCountsIt) {
  constexpr int kTasks = 100;
  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable done;
  int ran = 0;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++ran == kTasks) done.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return ran == kTasks; });
  }
  const ThreadPool::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_submitted, kTasks);
  EXPECT_GE(stats.queue_depth_max, 1);
  EXPECT_EQ(stats.workers, 3);
}

}  // namespace
}  // namespace itdb
