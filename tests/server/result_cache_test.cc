#include "server/result_cache.h"

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/session.h"
#include "server/shared_database.h"
#include "storage/database.h"

namespace itdb {
namespace server {
namespace {

constexpr const char* kCatalog = R"(
relation P(T: time) {
  [3+10n] : T >= 3;
}
relation Q(T: time) {
  [4n];
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

TEST(ResultCacheTest, HitReturnsTheComputedResult) {
  ResultCache cache(1 << 20);
  std::atomic<int> runs{0};
  Served served = Served::kHit;
  EXPECT_EQ(cache.Run("k", 1, Returns(Text("hello\n"), &runs), &served).text,
            "hello\n");
  EXPECT_EQ(served, Served::kComputed);
  Outcome hit = cache.Run("k", 1, Returns(Text("other"), &runs), &served);
  EXPECT_EQ(served, Served::kHit);
  EXPECT_EQ(hit.text, "hello\n");
  EXPECT_EQ(runs.load(), 1);
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.leads, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, VersionBumpInvalidatesWholesale) {
  ResultCache cache(1 << 20);
  std::atomic<int> runs{0};
  cache.Run("a", 1, Returns(Text("a"), &runs));
  cache.Run("b", 1, Returns(Text("b"), &runs));
  EXPECT_EQ(cache.stats().entries, 2u);
  // A request at a newer version clears everything first.
  cache.Run("a", 2, Returns(Text("a"), &runs));
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Each entry charges ~128 overhead + key + text; a 600-byte budget holds
  // about three 60-byte entries.
  ResultCache cache(600);
  std::atomic<int> runs{0};
  auto payload = Returns(Text(std::string(60, 'x')), &runs);
  cache.Run("a", 1, payload);
  cache.Run("b", 1, payload);
  cache.Run("c", 1, payload);
  // Refresh "a" so "b" is the least recently used.
  Served served = Served::kComputed;
  cache.Run("a", 1, payload, &served);
  EXPECT_EQ(served, Served::kHit);
  cache.Run("d", 1, payload);
  ResultCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 600u);
  cache.Run("a", 1, payload, &served);
  EXPECT_EQ(served, Served::kHit);
  cache.Run("b", 1, payload, &served);
  EXPECT_EQ(served, Served::kComputed);
}

TEST(ResultCacheTest, OversizedEntriesAreNotKept) {
  ResultCache cache(64);
  std::atomic<int> runs{0};
  cache.Run("k", 1, Returns(Text(std::string(1024, 'x')), &runs));
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.Run("k", 1, Returns(Text(std::string(1024, 'x')), &runs));
  EXPECT_EQ(runs.load(), 2);
}

class CachedSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Database> db = Database::FromText(kCatalog);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    shared_.emplace(&db_);
  }

  SessionOptions Options() {
    SessionOptions options;
    options.result_cache = &cache_;
    return options;
  }

  std::string Run(Session& session, const std::string& statement) {
    std::ostringstream out;
    Status s = session.Execute(statement, out);
    EXPECT_TRUE(s.ok()) << s << " for " << statement;
    return out.str();
  }

  Database db_;
  std::optional<SharedDatabase> shared_;
  ResultCache cache_{std::size_t{1} << 20};
};

TEST_F(CachedSessionTest, WarmHitIsByteIdenticalAndSeatsTheCursor) {
  Session cold(&*shared_, Options());
  const std::string cold_text = Run(cold, "query P(t) AND t <= 33");
  EXPECT_EQ(cold.stats().cache_hits, 0);

  Session warm(&*shared_, Options());
  const std::string warm_text = Run(warm, "query P(t) AND t <= 33");
  EXPECT_EQ(warm_text, cold_text);
  EXPECT_EQ(warm.stats().cache_hits, 1);
  // The cached relation re-seats the fetch cursor.
  const std::string page = Run(warm, "fetch 100");
  EXPECT_NE(page.find("remaining"), std::string::npos) << page;
}

TEST_F(CachedSessionTest, CatalogWriteInvalidates) {
  Session session(&*shared_, Options());
  Run(session, "ask EXISTS t . Q(t) AND t = 8");
  Run(session, "define relation R(T: time) { [2n]; }");
  // Same query, new catalog version: recomputed, not served stale.
  Run(session, "ask EXISTS t . Q(t) AND t = 8");
  EXPECT_EQ(session.stats().cache_hits, 0);
  Run(session, "ask EXISTS t . Q(t) AND t = 8");
  EXPECT_EQ(session.stats().cache_hits, 1);
}

TEST_F(CachedSessionTest, AskResultsAreCachedToo) {
  Session session(&*shared_, Options());
  const std::string first = Run(session, "ask EXISTS t . P(t)");
  const std::string second = Run(session, "ask EXISTS t . P(t)");
  EXPECT_EQ(first, second);
  EXPECT_EQ(session.stats().cache_hits, 1);
}

TEST_F(CachedSessionTest, EightConcurrentClientsStayCoherent) {
  // TSan-checked in CI: concurrent sessions share one table while a writer
  // bumps the catalog version.
  constexpr int kClients = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c]() {
      Session session(&*shared_, Options());
      for (int r = 0; r < kRounds; ++r) {
        std::ostringstream out;
        Status s = session.Execute("query P(t) AND t <= 33", out);
        EXPECT_TRUE(s.ok()) << s;
        if (c == 0 && r % 10 == 5) {
          std::ostringstream define;
          Status ds = session.Execute(
              "define relation W" + std::to_string(r) +
                  "(T: time) { [5n]; }",
              define);
          EXPECT_TRUE(ds.ok()) << ds;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ResultCache::Stats stats = cache_.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  // One more read must agree with a fresh evaluation.
  Session check(&*shared_, Options());
  std::string cached = Run(check, "query P(t) AND t <= 33");
  SessionOptions plain;
  Session fresh(&*shared_, plain);
  EXPECT_EQ(cached, Run(fresh, "query P(t) AND t <= 33"));
}

}  // namespace
}  // namespace server
}  // namespace itdb
