#include "storage/text_format.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cmp.h"

namespace itdb {
namespace {

// Table 1 of the paper in the textual format.
constexpr const char* kRobots = R"(
# Table 1: the activities of robots.
relation Perform(From: time, To: time, Robot: string) {
  [2+2n, 4+2n | "robot1"] : From = To - 2 && From >= -1;
  [6+10n, 7+10n | "robot2"] : From = To - 1 && From >= 10;
  [10n, 3+10n | "robot2"] : From = To - 3;
}
)";

TEST(TextFormatTest, ParsesTable1) {
  Result<NamedRelation> r = ParseRelation(kRobots);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().name, "Perform");
  const GeneralizedRelation& rel = r.value().relation;
  EXPECT_EQ(rel.schema().temporal_arity(), 2);
  EXPECT_EQ(rel.schema().data_arity(), 1);
  ASSERT_EQ(rel.size(), 3);
  EXPECT_EQ(rel.tuples()[0].lrp(0), Lrp::Make(2, 2));
  EXPECT_EQ(rel.tuples()[2].lrp(0), Lrp::Make(0, 10));
  // Semantics of the first tuple: (x, x+2) for even x >= 0 (X1 >= -1 and
  // even means >= 0).
  EXPECT_TRUE(rel.Contains({{0, 2}, {Value("robot1")}}));
  EXPECT_TRUE(rel.Contains({{16, 17}, {Value("robot2")}}));
  EXPECT_FALSE(rel.Contains({{6, 7}, {Value("robot2")}}));
}

TEST(TextFormatTest, LrpSyntaxVariants) {
  Result<NamedRelation> r = ParseRelation(
      "relation R(A: time, B: time, C: time, D: time) {"
      "  [5, n, 10n, -3+4n];"
      "}");
  ASSERT_TRUE(r.ok()) << r.status();
  const GeneralizedTuple& t = r.value().relation.tuples()[0];
  EXPECT_EQ(t.lrp(0), Lrp::Singleton(5));
  EXPECT_EQ(t.lrp(1), Lrp::Make(0, 1));
  EXPECT_EQ(t.lrp(2), Lrp::Make(0, 10));
  EXPECT_EQ(t.lrp(3), Lrp::Make(-3, 4));
}

TEST(TextFormatTest, PaperStyleColumnNames) {
  // X1/X2 and T1/T2 resolve positionally, 1-based, as in the paper.
  Result<NamedRelation> r = ParseRelation(
      "relation R(A: time, B: time) { [n, n] : X1 <= X2 + 5 && T2 >= 0; }");
  ASSERT_TRUE(r.ok()) << r.status();
  const GeneralizedTuple& t = r.value().relation.tuples()[0];
  EXPECT_TRUE(t.ContainsTemporal({3, 4}));
  EXPECT_FALSE(t.ContainsTemporal({10, 4}));
  EXPECT_FALSE(t.ContainsTemporal({-8, -1}));
}

TEST(TextFormatTest, ConstraintOperators) {
  Result<NamedRelation> r = ParseRelation(
      "relation R(A: time, B: time) { [n, n] : A < B && B > 3 && A >= -2; }");
  ASSERT_TRUE(r.ok()) << r.status();
  const GeneralizedTuple& t = r.value().relation.tuples()[0];
  EXPECT_TRUE(t.ContainsTemporal({-2, 4}));
  EXPECT_FALSE(t.ContainsTemporal({4, 4}));   // A < B violated.
  EXPECT_FALSE(t.ContainsTemporal({-3, 4}));  // A >= -2 violated.
  EXPECT_FALSE(t.ContainsTemporal({-2, 3}));  // B > 3 violated.
}

// The rows of `[n, n] : constraint` over columns X, Y in [lo, hi]^2, as
// text.
std::vector<std::string> PairRows(const std::string& constraint,
                                  std::int64_t lo, std::int64_t hi) {
  Result<NamedRelation> r = ParseRelation(
      "relation R(X: time, Y: time) { [n, n] : " + constraint + "; }");
  EXPECT_TRUE(r.ok()) << r.status() << " for " << constraint;
  std::vector<std::string> out;
  if (!r.ok()) return out;
  for (const ConcreteRow& row : r.value().relation.Enumerate(lo, hi)) {
    out.push_back(row.ToString());
  }
  return out;
}

TEST(TextFormatTest, GreaterThanBetweenColumns) {
  const std::string box = " && X >= 0 && X <= 6 && Y >= 0 && Y <= 6";
  std::vector<std::string> gt = PairRows("X > Y + 3" + box, 0, 6);
  EXPECT_EQ(gt.size(), 6u);
  EXPECT_EQ(gt, PairRows("X >= Y + 4" + box, 0, 6));
  EXPECT_EQ(PairRows("X + 2 > Y", -4, 4), PairRows("Y <= X + 1", -4, 4));
}

// " + 3", " - 2", or "" for 0.
std::string Offset(std::int64_t c) {
  if (c == 0) return "";
  return c > 0 ? " + " + std::to_string(c) : " - " + std::to_string(-c);
}

// Every operator and operand shape parses to exactly the points where the
// comparison holds.
TEST(TextFormatTest, ConstraintsMatchBruteForce) {
  constexpr std::int64_t kLo = -5;
  constexpr std::int64_t kHi = 5;
  int checked = 0;
  for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq, CmpOp::kGe,
                   CmpOp::kGt}) {
    const std::string sym = " " + std::string(CmpOpSymbol(op)) + " ";
    for (std::int64_t a = -3; a <= 3; ++a) {
      for (std::int64_t b = -3; b <= 3; ++b) {
        // Each side is lhs_x * X + lhs_y * Y + lhs_k (likewise rhs); the
        // shapes X op Y + c, X op c and c op X take c = a once per a.
        struct Case {
          std::string text;
          std::int64_t lhs_x, lhs_y, lhs_k, rhs_x, rhs_y, rhs_k;
        };
        std::vector<Case> cases = {
            {"X" + Offset(a) + sym + "Y" + Offset(b), 1, 0, a, 0, 1, b}};
        if (b == 0) {
          cases.push_back({"X" + sym + "Y" + Offset(a), 1, 0, 0, 0, 1, a});
          cases.push_back({"X" + sym + std::to_string(a), 1, 0, 0, 0, 0, a});
          cases.push_back({std::to_string(a) + sym + "X", 0, 0, a, 1, 0, 0});
        }
        for (const Case& c : cases) {
          std::vector<std::string> want;
          for (std::int64_t x = kLo; x <= kHi; ++x) {
            for (std::int64_t y = kLo; y <= kHi; ++y) {
              std::int64_t l = c.lhs_x * x + c.lhs_y * y + c.lhs_k;
              std::int64_t r = c.rhs_x * x + c.rhs_y * y + c.rhs_k;
              if (Holds(l, op, r)) {
                want.push_back(ConcreteRow{{x, y}, {}}.ToString());
              }
            }
          }
          EXPECT_EQ(PairRows(c.text, kLo, kHi), want) << c.text;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 5 * (49 + 3 * 7));
}

TEST(TextFormatTest, ConstantOnLeftSide) {
  Result<NamedRelation> r =
      ParseRelation("relation R(A: time) { [n] : 5 <= A; }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value().relation.tuples()[0].ContainsTemporal({5}));
  EXPECT_FALSE(r.value().relation.tuples()[0].ContainsTemporal({4}));
}

TEST(TextFormatTest, IntDataValues) {
  Result<NamedRelation> r = ParseRelation(
      "relation R(T: time, Count: int) { [2n | -7]; [1+2n | 9]; }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().relation.tuples()[0].value(0).AsInt(), -7);
  EXPECT_EQ(r.value().relation.tuples()[1].value(0).AsInt(), 9);
}

TEST(TextFormatTest, ParseErrors) {
  EXPECT_FALSE(ParseRelation("relational R(T: time) {}").ok());
  EXPECT_FALSE(ParseRelation("relation R(T: tame) {}").ok());
  EXPECT_FALSE(ParseRelation("relation R(T: time) { [n] }").ok());  // No ';'.
  EXPECT_FALSE(
      ParseRelation("relation R(T: time) { [n, n]; }").ok());  // Arity.
  EXPECT_FALSE(
      ParseRelation("relation R(T: time) { [n] : Q >= 0; }").ok());  // Name.
  EXPECT_FALSE(
      ParseRelation("relation R(T: time) { [n] : 3 >= 0; }").ok());  // Ground.
  EXPECT_FALSE(
      ParseRelation("relation R(d: string, T: time) {}").ok());  // Order.
  EXPECT_FALSE(ParseRelation("relation R(T: time) {} trailing").ok());
  // Duplicate attribute names, within and across kinds.
  EXPECT_FALSE(ParseRelation("relation R(T: time, T: time) {}").ok());
  EXPECT_FALSE(ParseRelation("relation R(T: time, T: string) {}").ok());
  EXPECT_FALSE(
      ParseRelation("relation R(T: time, d: string, d: int) {}").ok());
}

TEST(TextFormatTest, RoundTrip) {
  Result<NamedRelation> first = ParseRelation(kRobots);
  ASSERT_TRUE(first.ok());
  std::string printed = PrintRelation("Perform", first.value().relation);
  Result<NamedRelation> second = ParseRelation(printed);
  ASSERT_TRUE(second.ok()) << second.status() << "\n" << printed;
  // Semantically identical on a window.
  EXPECT_EQ(second.value().relation.Enumerate(-30, 30),
            first.value().relation.Enumerate(-30, 30));
}

TEST(TextFormatTest, RoundTripUnconstrained) {
  Result<NamedRelation> first =
      ParseRelation("relation R(T: time) { [3+7n]; [5]; }");
  ASSERT_TRUE(first.ok());
  std::string printed = PrintRelation("R", first.value().relation);
  Result<NamedRelation> second = ParseRelation(printed);
  ASSERT_TRUE(second.ok()) << printed;
  EXPECT_EQ(second.value().relation.Enumerate(-30, 30),
            first.value().relation.Enumerate(-30, 30));
}

TEST(TextFormatTest, PrintOmitsInfeasibleTuples) {
  GeneralizedRelation rel(Schema::Temporal(1));
  GeneralizedTuple dead({Lrp::Make(0, 1)});
  dead.mutable_constraints().AddUpperBound(0, 0);
  dead.mutable_constraints().AddLowerBound(0, 1);
  ASSERT_TRUE(rel.AddTuple(std::move(dead)).ok());
  std::string printed = PrintRelation("R", rel);
  Result<NamedRelation> parsed = ParseRelation(printed);
  ASSERT_TRUE(parsed.ok()) << printed;
  EXPECT_EQ(parsed.value().relation.size(), 0);
}

}  // namespace
}  // namespace itdb
