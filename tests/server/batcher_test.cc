// Coalescing half of ResultCache::Run: concurrent requests for one
// (statement, version) share a single computation, whether or not its
// outcome is then kept.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/result_cache.h"
#include "storage/database.h"

namespace itdb {
namespace server {
namespace {

constexpr const char* kCatalog = R"(
relation P(T: time) {
  [3+10n] : T >= 3;
}
)";

using Outcome = ResultCache::Outcome;
using Served = ResultCache::Served;

Outcome Text(const std::string& text, bool cacheable = true) {
  return Outcome{Status::Ok(), text, nullptr, cacheable};
}

// A computation that counts its runs and returns `outcome`.
std::function<Outcome()> Returns(Outcome outcome, std::atomic<int>* runs) {
  return [outcome, runs] {
    runs->fetch_add(1);
    return outcome;
  };
}

// Holds a leader's computation until Open(), so followers provably arrive
// while it is in flight.
class Gate {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

// One leader computing `result` for ("k", version) behind a gate, and
// `followers` identical requests that arrive while it is in flight.
// Returns every caller's outcome and how it was served, leader first.
struct Coalesced {
  std::vector<Outcome> outcomes;
  std::vector<Served> served;
  int computes = 0;
};

Coalesced RunCoalesced(ResultCache& cache, std::uint64_t version,
                       const Outcome& result, int followers) {
  Gate gate;
  std::atomic<int> computes{0};
  auto compute = [&]() -> Outcome {
    computes.fetch_add(1);
    gate.Enter();
    return result;
  };
  Coalesced c;
  c.outcomes.resize(static_cast<std::size_t>(followers) + 1);
  c.served.resize(c.outcomes.size(), Served::kComputed);
  const std::uint64_t waiting = cache.stats().coalesced + followers;
  std::vector<std::thread> threads;
  auto run = [&](std::size_t i) {
    c.outcomes[i] = cache.Run("k", version, compute, &c.served[i]);
  };
  threads.emplace_back(run, 0);
  gate.WaitEntered();
  for (std::size_t i = 1; i < c.outcomes.size(); ++i) {
    threads.emplace_back(run, i);
  }
  // Followers register (the coalesced stat) before they block.
  while (cache.stats().coalesced < waiting) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Open();
  for (std::thread& t : threads) t.join();
  c.computes = computes.load();
  return c;
}

TEST(BatcherTest, ConcurrentIdenticalKeysComputeOnceAndShareTheOutcome) {
  Result<Database> db = Database::FromText(kCatalog);
  ASSERT_TRUE(db.ok()) << db.status();
  Outcome result = Text("shared result");
  result.relation =
      std::make_shared<const GeneralizedRelation>(db.value().Get("P").value());
  ResultCache cache(1 << 20);
  Coalesced c = RunCoalesced(cache, 7, result, /*followers=*/2);
  EXPECT_EQ(c.computes, 1);
  EXPECT_EQ(c.served[0], Served::kComputed);
  for (std::size_t i = 0; i < c.outcomes.size(); ++i) {
    EXPECT_TRUE(c.outcomes[i].status.ok());
    EXPECT_EQ(c.outcomes[i].text, "shared result");
    EXPECT_EQ(c.outcomes[i].relation, result.relation);
    if (i > 0) {
      EXPECT_EQ(c.served[i], Served::kShared);
    }
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.leads, 1u);
  EXPECT_EQ(stats.coalesced, 2u);
  EXPECT_EQ(stats.misses, 3u);
  // Kept: a later request is a hit.
  std::atomic<int> runs{0};
  Served served = Served::kComputed;
  EXPECT_EQ(cache.Run("k", 7, Returns(Text("x"), &runs), &served).relation,
            result.relation);
  EXPECT_EQ(served, Served::kHit);
  EXPECT_EQ(runs.load(), 0);
}

TEST(BatcherTest, FailedOutcomeIsSharedButNotKept) {
  ResultCache cache(1 << 20);
  Outcome failure{Status::ResourceExhausted("deadline exceeded"), "", nullptr,
                  /*cacheable=*/true};
  Coalesced c = RunCoalesced(cache, 1, failure, /*followers=*/2);
  EXPECT_EQ(c.computes, 1);
  for (const Outcome& o : c.outcomes) {
    EXPECT_EQ(o.status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(cache.stats().entries, 0u);
  std::atomic<int> runs{0};
  EXPECT_TRUE(cache.Run("k", 1, Returns(Text("ok"), &runs)).status.ok());
  EXPECT_EQ(runs.load(), 1);
}

TEST(BatcherTest, UncacheableOutcomeIsSharedButNotKept) {
  ResultCache cache(1 << 20);
  Coalesced c =
      RunCoalesced(cache, 1, Text("unbounded", /*cacheable=*/false), 2);
  EXPECT_EQ(c.computes, 1);
  for (const Outcome& o : c.outcomes) EXPECT_EQ(o.text, "unbounded");
  EXPECT_EQ(cache.stats().entries, 0u);
  std::atomic<int> runs{0};
  Served served = Served::kHit;
  cache.Run("k", 1, Returns(Text("again", false), &runs), &served);
  EXPECT_EQ(served, Served::kComputed);
  EXPECT_EQ(runs.load(), 1);
}

TEST(BatcherTest, VersionBumpDuringAComputationDropsItsResult) {
  ResultCache cache(1 << 20);
  Gate gate;
  auto old_compute = [&]() -> Outcome {
    gate.Enter();
    return Text("v1");
  };
  Outcome old_outcome;
  std::thread leader([&] { old_outcome = cache.Run("k", 1, old_compute); });
  gate.WaitEntered();
  // A write lands: the same key at the new version must not join the
  // in-flight computation of the old one.
  std::atomic<int> runs{0};
  Served served = Served::kHit;
  EXPECT_EQ(cache.Run("k", 2, Returns(Text("v2"), &runs), &served).text, "v2");
  EXPECT_EQ(served, Served::kComputed);
  gate.Open();
  leader.join();
  EXPECT_EQ(old_outcome.text, "v1");  // Its own caller still gets it.
  EXPECT_EQ(cache.Run("k", 2, Returns(Text("x"), &runs), &served).text, "v2");
  EXPECT_EQ(served, Served::kHit);
  EXPECT_EQ(cache.stats().entries, 1u);
  // A statement at the older version computes alone and keeps nothing.
  EXPECT_EQ(cache.Run("k", 1, Returns(Text("late"), &runs), &served).text,
            "late");
  EXPECT_EQ(served, Served::kComputed);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(cache.Run("k", 2, Returns(Text("x"), &runs), &served).text, "v2");
}

TEST(BatcherTest, ZeroBudgetKeepsNothingButStillCoalesces) {
  ResultCache cache(0);
  Coalesced c = RunCoalesced(cache, 1, Text("shared"), /*followers=*/2);
  EXPECT_EQ(c.computes, 1);
  for (const Outcome& o : c.outcomes) EXPECT_EQ(o.text, "shared");
  EXPECT_EQ(cache.stats().coalesced, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
  std::atomic<int> runs{0};
  cache.Run("k", 1, Returns(Text("shared"), &runs));
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(BatcherTest, DifferentKeysOrVersionsRunIndependently) {
  ResultCache cache(1 << 20);
  std::atomic<int> runs{0};
  cache.Run("a", 1, Returns(Text("a1"), &runs));
  cache.Run("b", 1, Returns(Text("b1"), &runs));
  cache.Run("a", 2, Returns(Text("a2"), &runs));  // Later database version.
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(cache.stats().leads, 3u);
  // A different key never waits on an in-flight one.
  Gate gate;
  std::thread leader([&] {
    cache.Run("c", 2, [&]() -> Outcome {
      gate.Enter();
      return Text("c2");
    });
  });
  gate.WaitEntered();
  EXPECT_EQ(cache.Run("d", 2, Returns(Text("d2"), &runs)).text, "d2");
  gate.Open();
  leader.join();
  EXPECT_EQ(runs.load(), 4);
  EXPECT_EQ(cache.stats().coalesced, 0u);
}

}  // namespace
}  // namespace server
}  // namespace itdb
