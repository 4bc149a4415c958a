#include "query/optimize.h"

#include <gtest/gtest.h>

#include "query/eval.h"
#include "query/parser.h"
#include "storage/database.h"

namespace itdb {
namespace query {
namespace {

QueryPtr Parse(const std::string& text) {
  Result<QueryPtr> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return q.value();
}

// Count AST nodes of a given kind.
int CountKind(const QueryPtr& q, Query::Kind kind) {
  int self = q->kind() == kind ? 1 : 0;
  switch (q->kind()) {
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      return self + CountKind(q->left(), kind) + CountKind(q->right(), kind);
    case Query::Kind::kNot:
    case Query::Kind::kExists:
      return self + CountKind(q->left(), kind);
    default:
      return self;
  }
}

// Total "scope weight": for every quantifier node, the number of atoms in
// its scope.  Miniscoping strictly decreases this on queries with movable
// conjuncts.
int AtomCount(const QueryPtr& q) {
  switch (q->kind()) {
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      return AtomCount(q->left()) + AtomCount(q->right());
    case Query::Kind::kNot:
    case Query::Kind::kExists:
      return AtomCount(q->left());
    default:
      return 1;
  }
}

int ScopeWeight(const QueryPtr& q) {
  switch (q->kind()) {
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      return ScopeWeight(q->left()) + ScopeWeight(q->right());
    case Query::Kind::kNot:
      return ScopeWeight(q->left());
    case Query::Kind::kExists:
      return AtomCount(q->left()) + ScopeWeight(q->left());
    default:
      return 0;
  }
}

TEST(OptimizeTest, DoubleNegationEliminated) {
  QueryPtr q = Optimize(Parse("NOT NOT P(t)"));
  EXPECT_EQ(q->ToString(), "P(t)");
}

TEST(OptimizeTest, DeMorganPushesNegationToLeaves) {
  QueryPtr q = Optimize(Parse("NOT (P(t) AND Q(t))"));
  EXPECT_EQ(q->kind(), Query::Kind::kOr);
  EXPECT_EQ(q->left()->kind(), Query::Kind::kNot);
  EXPECT_EQ(q->right()->kind(), Query::Kind::kNot);
}

TEST(OptimizeTest, ComparisonNegationAbsorbed) {
  QueryPtr q = Optimize(Parse("NOT t1 <= t2"));
  ASSERT_EQ(q->kind(), Query::Kind::kCmp);
  EXPECT_EQ(q->cmp(), CmpOp::kGt);
  q = Optimize(Parse("NOT t1 = t2"));
  ASSERT_EQ(q->kind(), Query::Kind::kCmp);
  EXPECT_EQ(q->cmp(), CmpOp::kNe);
}

TEST(OptimizeTest, NegationThroughQuantifiers) {
  // not-forall becomes exists-not (cheaper: one complement instead of
  // three), but not-exists stays put (the complement after projection is
  // already the cheap direction).
  QueryPtr q = Optimize(Parse("NOT FORALL t . P(t)"));
  ASSERT_EQ(q->kind(), Query::Kind::kExists);
  EXPECT_EQ(q->left()->kind(), Query::Kind::kNot);
  q = Optimize(Parse("NOT EXISTS t . P(t)"));
  ASSERT_EQ(q->kind(), Query::Kind::kNot);
  EXPECT_EQ(q->left()->kind(), Query::Kind::kExists);
}

TEST(OptimizeTest, VacuousQuantifierDropped) {
  QueryPtr q = Optimize(Parse("EXISTS t . P(u)"));
  EXPECT_EQ(q->ToString(), "P(u)");
}

TEST(OptimizeTest, ScopeShrinksThroughConjunction) {
  QueryPtr q = Optimize(Parse("EXISTS t . P(u) AND Q(t)"));
  ASSERT_EQ(q->kind(), Query::Kind::kAnd);
  EXPECT_EQ(q->left()->ToString(), "P(u)");
  EXPECT_EQ(q->right()->kind(), Query::Kind::kExists);
}

TEST(OptimizeTest, Example41ShapeShrinks) {
  // The paper's Example 4.1 as written: the universal block scopes over the
  // whole implication.  After optimization the Perform/length conjuncts
  // leave the universal scope.
  QueryPtr original = Parse(R"(
    EXISTS x . EXISTS y . EXISTS t1 . EXISTS t2 .
      FORALL t3 . FORALL t4 . FORALL z .
        (Perform(t1, t2, x, "task2") AND t1 <= t3 <= t4 <= t2
           AND t1 + 5 <= t2)
        -> NOT Perform(t3, t4, y, z)
  )");
  QueryPtr optimized = Optimize(original);
  // The universal quantifiers no longer scope over the atoms that do not
  // mention t3/t4/z: total scope weight strictly decreases.
  EXPECT_LT(ScopeWeight(optimized), ScopeWeight(original));
  // The universal block is NOT EXISTS t3 t4 z . NOT (...): negation pushing
  // cancels its inner NOT against the implication's, leaving one complement
  // after the projection.
  EXPECT_EQ(CountKind(optimized, Query::Kind::kNot), 1);
}

TEST(OptimizeTest, Idempotent) {
  QueryPtr q = Parse(
      "NOT (EXISTS t . FORALL u . (P(t) OR NOT Q(u)) AND NOT t <= u)");
  QueryPtr once = Optimize(q);
  QueryPtr twice = Optimize(once);
  EXPECT_EQ(once->ToString(), twice->ToString());
}

// Semantics preservation: evaluate both forms on a concrete database.
class OptimizeSemanticsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizeSemanticsTest, OptimizedQueryGivesSameAnswer) {
  Result<Database> db = Database::FromText(R"(
    relation P(T: time) { [3+10n] : T >= 3; }
    relation Q(T: time) { [10n]; }
    relation Who(T: time, W: string) { [2n | "alice"]; [1+2n | "bob"]; }
  )");
  ASSERT_TRUE(db.ok());
  QueryPtr q = Parse(GetParam());
  QueryOptions naive;
  naive.optimize = false;
  QueryOptions optimized;
  optimized.optimize = true;
  Result<bool> a = EvalBooleanQuery(db.value(), q, naive);
  Result<bool> b = EvalBooleanQuery(db.value(), q, optimized);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a.value(), b.value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Queries, OptimizeSemanticsTest,
    ::testing::Values(
        "EXISTS t . P(t) AND NOT Q(t)",
        "NOT EXISTS t . P(t) AND Q(t)",
        "FORALL t . Q(t) -> NOT P(t)",
        "FORALL t . EXISTS w . Who(t, w)",
        "EXISTS w . FORALL t . Who(t, w)",
        "EXISTS t . FORALL u . (P(t) AND Q(u)) -> t <= u",
        "NOT NOT (EXISTS t . P(t))",
        "EXISTS t . EXISTS u . P(t) AND (Q(u) OR NOT Q(u))",
        "FORALL t . (Who(t, \"alice\") OR Who(t, \"bob\"))"));

}  // namespace
}  // namespace query
}  // namespace itdb
