#include "query/parser.h"

#include <gtest/gtest.h>

namespace itdb {
namespace query {
namespace {

TEST(QueryParserTest, Atom) {
  Result<QueryPtr> q = ParseQuery(R"(Perform(t1, t2, "robot1", x))");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q.value()->kind(), Query::Kind::kAtom);
  EXPECT_EQ(q.value()->relation(), "Perform");
  ASSERT_EQ(q.value()->args().size(), 4u);
  EXPECT_EQ(q.value()->args()[0], Term::Variable("t1"));
  EXPECT_EQ(q.value()->args()[2], Term::String("robot1"));
  EXPECT_EQ(q.value()->args()[3], Term::Variable("x"));
}

TEST(QueryParserTest, TermsWithOffsetsAndConstants) {
  Result<QueryPtr> q = ParseQuery("P(t + 5, u - 3, 42, -7)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q.value()->args()[0], Term::Variable("t", 5));
  EXPECT_EQ(q.value()->args()[1], Term::Variable("u", -3));
  EXPECT_EQ(q.value()->args()[2], Term::Int(42));
  EXPECT_EQ(q.value()->args()[3], Term::Int(-7));
}

TEST(QueryParserTest, Comparison) {
  Result<QueryPtr> q = ParseQuery("t1 + 5 <= t2");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q.value()->kind(), Query::Kind::kCmp);
  EXPECT_EQ(q.value()->cmp(), CmpOp::kLe);
  EXPECT_EQ(q.value()->lhs(), Term::Variable("t1", 5));
  EXPECT_EQ(q.value()->rhs(), Term::Variable("t2"));
}

TEST(QueryParserTest, ComparisonChain) {
  // t1 <= t2 <= t3 desugars to t1 <= t2 AND t2 <= t3.
  Result<QueryPtr> q = ParseQuery("t1 <= t2 <= t3");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q.value()->kind(), Query::Kind::kAnd);
  EXPECT_EQ(q.value()->left()->kind(), Query::Kind::kCmp);
  EXPECT_EQ(q.value()->right()->lhs(), Term::Variable("t2"));
  EXPECT_EQ(q.value()->right()->rhs(), Term::Variable("t3"));
}

TEST(QueryParserTest, PrecedenceAndOverOr) {
  Result<QueryPtr> q = ParseQuery("P() OR Q() AND R()");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q.value()->kind(), Query::Kind::kOr);
  EXPECT_EQ(q.value()->right()->kind(), Query::Kind::kAnd);
}

TEST(QueryParserTest, ImplicationDesugarsAndIsRightAssociative) {
  Result<QueryPtr> q = ParseQuery("P() -> Q() -> R()");
  ASSERT_TRUE(q.ok()) << q.status();
  // (NOT P) OR ((NOT Q) OR R).
  EXPECT_EQ(q.value()->kind(), Query::Kind::kOr);
  EXPECT_EQ(q.value()->left()->kind(), Query::Kind::kNot);
  EXPECT_EQ(q.value()->right()->kind(), Query::Kind::kOr);
}

TEST(QueryParserTest, QuantifierScopeExtendsRight) {
  Result<QueryPtr> q = ParseQuery("EXISTS t . P(t) AND t <= 5");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q.value()->kind(), Query::Kind::kExists);
  EXPECT_EQ(q.value()->left()->kind(), Query::Kind::kAnd);
  EXPECT_TRUE(q.value()->FreeVariables().empty());
}

TEST(QueryParserTest, LowercaseKeywords) {
  Result<QueryPtr> q =
      ParseQuery("exists t . forall u . not P(t) or t <= u");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q.value()->kind(), Query::Kind::kExists);
}

TEST(QueryParserTest, Example41Parses) {
  Result<QueryPtr> q = ParseQuery(R"(
    EXISTS x . EXISTS y . EXISTS t1 . EXISTS t2 .
      FORALL t3 . FORALL t4 . FORALL z .
        (Perform(t1, t2, x, "task2") AND t1 <= t3 <= t4 <= t2
           AND t1 + 5 <= t2)
        -> NOT Perform(t3, t4, y, z)
  )");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q.value()->FreeVariables().empty());
}

TEST(QueryParserTest, FreeVariables) {
  Result<QueryPtr> q = ParseQuery("EXISTS t . P(t, u) AND Q(v)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value()->FreeVariables(),
            (std::vector<std::string>{"u", "v"}));
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("P(").ok());
  EXPECT_FALSE(ParseQuery("EXISTS . P()").ok());
  EXPECT_FALSE(ParseQuery("EXISTS t P()").ok());   // Missing dot.
  EXPECT_FALSE(ParseQuery("P() Q()").ok());        // Trailing input.
  EXPECT_FALSE(ParseQuery("t1 t2").ok());          // No operator.
  EXPECT_FALSE(ParseQuery("AND P()").ok());
}

// Golden error messages: every parse failure names the offending token and
// its line:col position (the lexer threads spans through the token stream).
TEST(QueryParserTest, ErrorsCarryLineColAndOffendingToken) {
  auto message = [](const std::string& text) {
    Result<QueryPtr> q = ParseQuery(text);
    EXPECT_FALSE(q.ok()) << "unexpectedly parsed: " << text;
    return q.ok() ? std::string() : std::string(q.status().message());
  };
  EXPECT_EQ(message("t1 t2"),
            "expected comparison operator, got 't2' at 1:4 (offset 3)");
  EXPECT_EQ(message("EXISTS t P()"),
            "expected '.', got 'P' at 1:10 (offset 9)");
  EXPECT_EQ(message("P() Q()"),
            "trailing input after query, got 'Q' at 1:5 (offset 4)");
  EXPECT_EQ(message("P(,)"), "expected a term, got ',' at 1:3 (offset 2)");
  EXPECT_EQ(message("AND P()"),
            "expected a term, got 'AND' at 1:1 (offset 0)");
  EXPECT_EQ(message("P("),
            "expected a term, got end of input at 1:3 (offset 2)");
}

TEST(QueryParserTest, ErrorPositionsCountLines) {
  Result<QueryPtr> q = ParseQuery("P(t) AND\n  AND");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("at 2:3"), std::string::npos)
      << q.status();
}

TEST(QueryParserTest, SpansCoverTheSourceExtent) {
  Result<QueryPtr> q = ParseQuery("EXISTS t . R(t) AND t <= 5");
  ASSERT_TRUE(q.ok()) << q.status();
  // The quantifier spans the whole query.
  EXPECT_EQ(q.value()->span().line, 1);
  EXPECT_EQ(q.value()->span().col, 1);
  EXPECT_EQ(q.value()->span().begin, 0u);
  EXPECT_EQ(q.value()->span().end, 26u);
  // The atom's span starts at its own name.
  const Query& body = *q.value()->left();
  ASSERT_EQ(body.kind(), Query::Kind::kAnd);
  EXPECT_EQ(body.left()->span().col, 12);
  ASSERT_EQ(body.left()->args().size(), 1u);
  EXPECT_EQ(body.left()->TermSpan(0).col, 14);
}

TEST(QueryParserTest, ToStringRoundTripsThroughParser) {
  Result<QueryPtr> q =
      ParseQuery("EXISTS t . (P(t) OR t + 2 <= 7) AND NOT Q(t, \"a\")");
  ASSERT_TRUE(q.ok());
  Result<QueryPtr> again = ParseQuery(q.value()->ToString());
  ASSERT_TRUE(again.ok()) << q.value()->ToString();
  EXPECT_EQ(again.value()->ToString(), q.value()->ToString());
}

}  // namespace
}  // namespace query
}  // namespace itdb
