#include "core/stats.h"

#include <string>

#include <gtest/gtest.h>

#include "storage/database.h"

namespace itdb {
namespace {

GeneralizedRelation Parse(const std::string& text, const std::string& name) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << db.status();
  Result<GeneralizedRelation> r = db.value().Get(name);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

// A singleton lrp pins its column, and a constraint tying another column to
// it bounds that column too: A = 2 and B <= A + 1 give B <= 3.
TEST(StatsTest, SingletonPinsBoundConstrainedColumns) {
  GeneralizedRelation h = Parse(
      "relation H(A: time, B: time) { [2, 4+3n] : B <= A + 1; }", "H");
  RelationStats stats = ComputeRelationStats(h);
  ASSERT_EQ(stats.hull_lo.size(), 2u);
  EXPECT_EQ(stats.hull_lo[0], 2);
  EXPECT_EQ(stats.hull_hi[0], 2);
  EXPECT_EQ(stats.hull_lo[1], -Dbm::kInf);
  EXPECT_EQ(stats.hull_hi[1], 3);
  EXPECT_NE(FormatRelationStats("H", stats).find("H.hull[1] [-inf, 3]\n"),
            std::string::npos)
      << FormatRelationStats("H", stats);
}

// Pins that contradict the constraints leave the plain hull: the tuple is
// empty, and a stats bound never claims more than the kernel sees.
TEST(StatsTest, ContradictoryPinsKeepThePlainHull) {
  GeneralizedRelation r =
      Parse("relation R(A: time, B: time) { [2, 5] : B <= A; }", "R");
  RelationStats stats = ComputeRelationStats(r);
  EXPECT_FALSE(stats.bit_empty);
  ASSERT_EQ(stats.hull_hi.size(), 2u);
  EXPECT_EQ(stats.hull_lo[0], 2);
  EXPECT_EQ(stats.hull_hi[1], 5);
}

// Without a singleton, or without a constraint, the hull is unchanged.
TEST(StatsTest, NoPinOrNoConstraintKeepsTheHull) {
  RelationStats periodic = ComputeRelationStats(Parse(
      "relation P(A: time, B: time) { [3n, 4+3n] : B <= A + 1; }", "P"));
  EXPECT_EQ(periodic.hull_hi[1], Dbm::kInf);
  RelationStats free = ComputeRelationStats(
      Parse("relation F(A: time, B: time) { [2, 4+3n]; }", "F"));
  EXPECT_EQ(free.hull_lo[0], 2);
  EXPECT_EQ(free.hull_hi[0], 2);
  EXPECT_EQ(free.hull_hi[1], Dbm::kInf);
}

}  // namespace
}  // namespace itdb
