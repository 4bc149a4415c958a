#include "analysis/analyzer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/eval.h"
#include "query/parser.h"
#include "storage/database.h"
#include "util/diagnostic.h"

namespace itdb {
namespace analysis {
namespace {

using query::EvalQueryStringAnalyzed;
using query::ParseQuery;
using query::QueryPtr;

Database SmallDb() {
  Result<Database> db = Database::FromText(R"(
    relation P(T: time) { [3+10n] : T >= 3; }
    relation Q(T: time) { [10n]; }
    relation Less(A: time, B: time) { [n, n] : A <= B - 1; }
    relation Who(T: time, W: string) { [2n | "alice"]; [1+2n | "bob"]; }
    relation Seven(T: time) { [7n]; }
    relation Eleven(T: time) { [11n]; }
    relation Thirteen(T: time) { [13n]; }
  )");
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

QueryPtr Parse(const std::string& text) {
  Result<QueryPtr> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status() << " for " << text;
  return std::move(q).value();
}

bool HasCode(const AnalysisResult& r, std::string_view code) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(AnalyzerTest, CleanQueryHasNoFindings) {
  Database db = SmallDb();
  AnalysisResult r = Analyze(db, Parse("P(t) AND t <= 20"));
  EXPECT_FALSE(r.HasErrors());
  EXPECT_TRUE(r.diagnostics.empty())
      << FormatDiagnosticList(r.diagnostics);
  EXPECT_FALSE(r.root_proven_empty);
}

TEST(AnalyzerTest, SortErrorsSuppressLaterPasses) {
  Database db = SmallDb();
  // Unknown relation: A001, and no pass-2..4 findings on garbage input.
  AnalysisResult r = Analyze(db, Parse("Zq(t) AND P(t) AND Q(u)"));
  EXPECT_TRUE(r.HasErrors());
  EXPECT_TRUE(HasCode(r, diag::kUnknownRelation));
  EXPECT_FALSE(HasCode(r, diag::kCrossProduct));
  EXPECT_TRUE(r.proven_empty.empty());
}

TEST(AnalyzerTest, UnsafeDataVariableWarns) {
  Database db = SmallDb();
  // w occurs only under negation: it ranges over the whole active domain.
  AnalysisResult r = Analyze(db, Parse("P(t) AND NOT Who(t, w)"));
  EXPECT_FALSE(r.HasErrors());
  EXPECT_TRUE(HasCode(r, diag::kUnsafeDataVariable))
      << FormatDiagnosticList(r.diagnostics);
  // A positive binding occurrence silences it.
  AnalysisResult safe =
      Analyze(db, Parse("Who(t, w) AND NOT Who(t + 2, w)"));
  EXPECT_FALSE(HasCode(safe, diag::kUnsafeDataVariable))
      << FormatDiagnosticList(safe.diagnostics);
}

TEST(AnalyzerTest, DbmContradictionProvesEmptiness) {
  Database db = SmallDb();
  AnalysisResult r = Analyze(db, Parse("P(t) AND t > 5 AND t < 4"));
  EXPECT_FALSE(r.HasErrors());
  EXPECT_TRUE(HasCode(r, diag::kStaticallyEmpty))
      << FormatDiagnosticList(r.diagnostics);
  EXPECT_TRUE(r.root_proven_empty);
}

TEST(AnalyzerTest, OffsetChainsFeedTheDbm) {
  Database db = SmallDb();
  // t + 1 <= u and u <= t - 1 close to an infeasible cycle.
  AnalysisResult r =
      Analyze(db, Parse("Less(t, u) AND t + 1 <= u AND u <= t - 1"));
  EXPECT_TRUE(r.root_proven_empty)
      << FormatDiagnosticList(r.diagnostics);
  // The one-sided variant is satisfiable: no emptiness claim.
  AnalysisResult sat = Analyze(db, Parse("Less(t, u) AND t + 1 <= u"));
  EXPECT_FALSE(sat.root_proven_empty);
  EXPECT_FALSE(HasCode(sat, diag::kStaticallyEmpty));
}

TEST(AnalyzerTest, GroundFalseComparisonProvesEmptiness) {
  Database db = SmallDb();
  AnalysisResult r = Analyze(db, Parse("P(t) AND 3 < 2"));
  EXPECT_TRUE(r.root_proven_empty);
  // Negation blocks the claim: NOT over an empty subplan is the universe.
  AnalysisResult n = Analyze(db, Parse("P(t) AND NOT (Q(t) AND 3 < 2)"));
  EXPECT_FALSE(n.root_proven_empty);
}

TEST(AnalyzerTest, ExpensiveComplementWarns) {
  Database db = SmallDb();
  AnalysisResult r =
      Analyze(db, Parse("Less(a, b) AND NOT Less(b, a)"));
  EXPECT_TRUE(HasCode(r, diag::kExpensiveComplement))
      << FormatDiagnosticList(r.diagnostics);
  // One free temporal variable is under the default width threshold.
  AnalysisResult cheap = Analyze(db, Parse("P(t) AND NOT Q(t)"));
  EXPECT_FALSE(HasCode(cheap, diag::kExpensiveComplement))
      << FormatDiagnosticList(cheap.diagnostics);
}

TEST(AnalyzerTest, CrossProductWarns) {
  Database db = SmallDb();
  AnalysisResult r = Analyze(db, Parse("P(t) AND Q(u)"));
  EXPECT_TRUE(HasCode(r, diag::kCrossProduct))
      << FormatDiagnosticList(r.diagnostics);
  AnalysisResult joined = Analyze(db, Parse("P(t) AND Q(u) AND t <= u"));
  EXPECT_FALSE(HasCode(joined, diag::kCrossProduct))
      << FormatDiagnosticList(joined.diagnostics);
}

TEST(AnalyzerTest, YesNoPartsAreNoCrossProduct) {
  Database db = SmallDb();
  // `ask` tests the variable-disjoint conjuncts of its peeled body as
  // separate parts, so their chain is no cross product ...
  const std::string text = "EXISTS t . EXISTS u . P(t) AND Q(u)";
  AnalyzeOptions ask;
  ask.yes_no = true;
  AnalysisResult asked = Analyze(db, Parse(text), ask);
  EXPECT_FALSE(HasCode(asked, diag::kCrossProduct))
      << FormatDiagnosticList(asked.diagnostics);
  // ... but the same formula as a relation statement evaluates the join.
  AnalysisResult relation = Analyze(db, Parse(text));
  EXPECT_TRUE(HasCode(relation, diag::kCrossProduct))
      << FormatDiagnosticList(relation.diagnostics);
  // Only the top chain is split: a chain below it still warns.
  AnalysisResult nested = Analyze(
      db, Parse("EXISTS t . P(t) AND NOT (EXISTS u . EXISTS v . Q(u) AND "
                "Seven(v) AND u <= t)"),
      ask);
  EXPECT_TRUE(HasCode(nested, diag::kCrossProduct))
      << FormatDiagnosticList(nested.diagnostics);
  // A FORALL root answers through NOT body, one part: its chain warns.
  AnalysisResult universal =
      Analyze(db, Parse("FORALL t . FORALL u . P(t) AND Q(u)"), ask);
  EXPECT_TRUE(HasCode(universal, diag::kCrossProduct))
      << FormatDiagnosticList(universal.diagnostics);
}

TEST(AnalyzerTest, PeriodBlowupWarns) {
  Database db = SmallDb();
  // lcm(7, 11, 13) = 1001 > 720.
  AnalysisResult r = Analyze(
      db, Parse("Seven(t) AND Eleven(t) AND Thirteen(t)"));
  EXPECT_TRUE(HasCode(r, diag::kPeriodBlowup))
      << FormatDiagnosticList(r.diagnostics);
  // lcm(7, 11) = 77: fine.
  AnalysisResult ok = Analyze(db, Parse("Seven(t) AND Eleven(t)"));
  EXPECT_FALSE(HasCode(ok, diag::kPeriodBlowup))
      << FormatDiagnosticList(ok.diagnostics);
}

TEST(AnalyzerTest, VacuousQuantifierWarns) {
  Database db = SmallDb();
  AnalysisResult r = Analyze(db, Parse("EXISTS u . P(t)"));
  EXPECT_FALSE(r.HasErrors()) << FormatDiagnosticList(r.diagnostics);
  EXPECT_TRUE(HasCode(r, diag::kVacuousQuantifier));
}

TEST(AnalyzerTest, MixedConstantComparisonIsAnError) {
  Database db = SmallDb();
  AnalysisResult r = Analyze(db, Parse("P(t) AND \"a\" = 3"));
  EXPECT_TRUE(r.HasErrors());
  EXPECT_TRUE(HasCode(r, diag::kIncompatibleConstant))
      << FormatDiagnosticList(r.diagnostics);
}

TEST(AnalyzerTest, DataSelfComparisonIsAnError) {
  Database db = SmallDb();
  AnalysisResult r = Analyze(db, Parse("Who(t, w) AND w < w"));
  EXPECT_TRUE(r.HasErrors());
  EXPECT_TRUE(HasCode(r, diag::kMixedSortComparison))
      << FormatDiagnosticList(r.diagnostics);
}

TEST(RewriteTest, DeadOrBranchIsEliminated) {
  Database db = SmallDb();
  // The ground-false conjunct makes the branch BIT-empty (the evaluator
  // joins against zero tuples), so dropping it is representation-safe.
  QueryPtr q = Parse("(P(t) AND 3 < 2) OR Q(t)");
  AnalysisResult r = Analyze(db, q);
  ASSERT_FALSE(r.HasErrors());
  int removed = 0;
  QueryPtr rewritten = ApplySoundRewrites(q, r, &removed);
  EXPECT_EQ(removed, 1);
  EXPECT_EQ(rewritten->ToString(), "Q(t)");
}

TEST(RewriteTest, SetLevelProofDoesNotRewrite) {
  Database db = SmallDb();
  // DBM-refuted branch: provably the empty SET, but its evaluation can
  // keep infeasible tuples, so elimination would be visible in the
  // union's representation.  Diagnostics fire; the rewrite must not.
  QueryPtr q = Parse("(P(t) AND t > 5 AND t < 4) OR Q(t)");
  AnalysisResult r = Analyze(db, q);
  ASSERT_FALSE(r.HasErrors());
  EXPECT_FALSE(r.proven_empty.empty());
  int removed = 0;
  QueryPtr rewritten = ApplySoundRewrites(q, r, &removed);
  EXPECT_EQ(removed, 0);
  EXPECT_EQ(rewritten.get(), q.get());
}

TEST(RewriteTest, NothingToRewriteReturnsSameTree) {
  Database db = SmallDb();
  QueryPtr q = Parse("P(t) OR Q(t)");
  AnalysisResult r = Analyze(db, q);
  int removed = 0;
  QueryPtr rewritten = ApplySoundRewrites(q, r, &removed);
  EXPECT_EQ(removed, 0);
  EXPECT_EQ(rewritten.get(), q.get());
}

TEST(RewriteTest, NegatedContextBlocksElimination) {
  Database db = SmallDb();
  // Under NOT, dropping the empty branch is semantically a no-op but not
  // representation-preserving; the rewriter must leave it alone.
  QueryPtr q = Parse("NOT ((P(t) AND 3 < 2) OR Q(t)) AND P(t)");
  AnalysisResult r = Analyze(db, q);
  ASSERT_FALSE(r.HasErrors());
  int removed = 0;
  QueryPtr rewritten = ApplySoundRewrites(q, r, &removed);
  EXPECT_EQ(removed, 0);
  EXPECT_EQ(rewritten.get(), q.get());
}

TEST(RewriteTest, FreeVariableSupersetBlocksElimination) {
  Database db = SmallDb();
  // The dead branch mentions u, which the surviving branch does not; the
  // union's schema would change, so elimination must not fire.
  QueryPtr q = Parse("(Less(t, u) AND 3 < 2) OR Q(t)");
  AnalysisResult r = Analyze(db, q);
  ASSERT_FALSE(r.HasErrors());
  int removed = 0;
  QueryPtr rewritten = ApplySoundRewrites(q, r, &removed);
  EXPECT_EQ(removed, 0);
}

TEST(RewriteTest, QuantifiedVariableInDeadBranchBlocksElimination) {
  Database db = SmallDb();
  // The dead branch mentions t, which EXISTS binds: the optimizer keeps
  // EXISTS t above the OR, but would sink it into the survivor once the
  // branch were gone -- another plan, another representation.
  QueryPtr q = Parse("EXISTS t . ((P(t) AND Q(u)) OR (P(t) AND 3 < 2))");
  AnalysisResult r = Analyze(db, q);
  ASSERT_FALSE(r.HasErrors());
  int removed = 0;
  QueryPtr rewritten = ApplySoundRewrites(q, r, &removed);
  EXPECT_EQ(removed, 0);
  EXPECT_EQ(rewritten.get(), q.get());
  // A dead branch free of the quantified variable still goes.
  q = Parse("EXISTS u . (Less(t, u) OR (P(t) AND 3 < 2))");
  r = Analyze(db, q);
  ASSERT_FALSE(r.HasErrors());
  rewritten = ApplySoundRewrites(q, r, &removed);
  EXPECT_EQ(removed, 1);
  EXPECT_EQ(rewritten->ToString(), "EXISTS u . (Less(t, u))");
}

bool SameRepresentation(const GeneralizedRelation& a,
                        const GeneralizedRelation& b) {
  return a.schema() == b.schema() && a.tuples() == b.tuples();
}

TEST(AnalyzedEvalTest, AnalysisIsBitIdentical) {
  Database db = SmallDb();
  const char* queries[] = {
      "P(t) AND t <= 40",
      "(P(t) AND t > 5 AND t < 4) OR Q(t)",
      "P(t) AND t > 5 AND t < 4",
      "Who(t, w) AND Who(t + 2, w)",
      "NOT ((P(t) AND 3 < 2) OR Q(t)) AND P(t) AND t <= 50",
      "EXISTS u . (Less(t, u) OR (P(t) AND 3 < 2))",
  };
  for (const char* text : queries) {
    query::QueryOptions off;
    off.analyze = false;
    query::QueryOptions on;
    on.analyze = true;
    Result<GeneralizedRelation> base = EvalQueryString(db, text, off);
    Result<GeneralizedRelation> got = EvalQueryString(db, text, on);
    ASSERT_TRUE(base.ok()) << base.status() << " for " << text;
    ASSERT_TRUE(got.ok()) << got.status() << " for " << text;
    EXPECT_TRUE(SameRepresentation(*base, *got)) << text;
  }
}

TEST(AnalyzedEvalTest, DeadBranchUnderItsQuantifierStaysBitIdentical) {
  // A shrunk fuzz case: eliminating the dead branch before optimizing let
  // EXISTS t0 sink below the join with U1(t1), which projects before the
  // cross product instead of after it -- 15 tuples instead of 17.
  Result<Database> db = Database::FromText(R"(
    relation U0(T: time) { [1+3n]; [0+2n]; [3]; }
    relation U1(T: time) { [3+4n]; [0+4n]; [4+6n] : T <= -5; }
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  const char* text =
      "EXISTS t0 . ((((U0(t0) AND NOT (U1(t0))) AND U1(t1)) OR (((U0(t0) "
      "AND NOT (U1(t0))) AND U1(t1)) AND (3 < 2 AND 0 = 0))))";
  query::QueryOptions off;
  off.analyze = false;
  Result<GeneralizedRelation> base =
      query::EvalQueryString(db.value(), text, off);
  Result<GeneralizedRelation> got =
      query::EvalQueryString(db.value(), text, {});
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(SameRepresentation(*base, *got))
      << base->size() << " vs " << got->size() << " tuples";
}

TEST(AnalyzedEvalTest, ErrorsAbortEvaluationWithDiagnostics) {
  Database db = SmallDb();
  query::QueryOptions options;  // analyze defaults to true
  Result<GeneralizedRelation> r = EvalQueryString(db, "Who(t, w) AND w < w",
                                                  options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("A007"), std::string::npos)
      << r.status();
  // Unknown relations keep their historical kNotFound code.
  Result<GeneralizedRelation> nf = EvalQueryString(db, "Zq(t)", options);
  ASSERT_FALSE(nf.ok());
  EXPECT_EQ(nf.status().code(), StatusCode::kNotFound);
}

TEST(AnalyzedEvalTest, EvalQueryAnalyzedReturnsStructuredFindings) {
  Database db = SmallDb();
  Result<query::AnalyzedResult> ok =
      EvalQueryStringAnalyzed(db, "P(t) AND t <= 20");
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_TRUE(ok->relation.has_value());
  EXPECT_TRUE(ok->analysis.diagnostics.empty());

  Result<query::AnalyzedResult> bad =
      EvalQueryStringAnalyzed(db, "Zq(t) AND P(t)");
  ASSERT_TRUE(bad.ok()) << bad.status();  // Diagnostics ARE the result.
  EXPECT_FALSE(bad->relation.has_value());
  EXPECT_TRUE(bad->analysis.HasErrors());

  Result<query::AnalyzedResult> warn =
      EvalQueryStringAnalyzed(db, "P(t) AND Q(u)");
  ASSERT_TRUE(warn.ok()) << warn.status();
  EXPECT_TRUE(warn->relation.has_value());
  EXPECT_GT(warn->analysis.warnings(), 0);
}

TEST(AnalyzedEvalTest, ProvenEmptyRootShortCircuits) {
  Database db = SmallDb();
  // Bit-level proof (ground-false conjunct): served without evaluating.
  Result<query::AnalyzedResult> r =
      EvalQueryStringAnalyzed(db, "P(t) AND 3 < 2");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->analysis.root_proven_bit_empty);
  ASSERT_TRUE(r->relation.has_value());
  EXPECT_EQ(r->relation->size(), 0);
  EXPECT_EQ(r->relation->schema().temporal_names(),
            std::vector<std::string>{"t"});
}

TEST(AnalyzedEvalTest, SetLevelEmptyRootStillEvaluates) {
  Database db = SmallDb();
  // DBM-level proof only: the evaluator runs (its representation of the
  // empty set is its own business), but the diagnostics still flag it.
  Result<query::AnalyzedResult> r =
      EvalQueryStringAnalyzed(db, "P(t) AND t > 5 AND t < 4");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->analysis.root_proven_empty);
  EXPECT_FALSE(r->analysis.root_proven_bit_empty);
  ASSERT_TRUE(r->relation.has_value());
}

}  // namespace
}  // namespace analysis
}  // namespace itdb
