#include "fuzz/query_oracle.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/generator.h"
#include "fuzz/query_gen.h"
#include "query/ast.h"
#include "query/eval.h"
#include "query/parser.h"
#include "query/prepared.h"

#ifndef ITDB_FUZZ_CORPUS_DIR
#error "ITDB_FUZZ_CORPUS_DIR must be defined by the build"
#endif

namespace itdb {
namespace fuzz {
namespace {

using query::Query;
using query::QueryPtr;
using query::Term;

TEST(QueryGenTest, DeterministicForFixedSeed) {
  Database db = MakeRandomDatabase(7, {});
  QueryGenConfig cfg;
  QueryPtr a = MakeRandomQuery(42, db, cfg);
  QueryPtr b = MakeRandomQuery(42, db, cfg);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->ToString(), b->ToString());
  QueryPtr c = MakeRandomQuery(43, db, cfg);
  EXPECT_NE(a->ToString(), c->ToString());
}

TEST(QueryOracleTest, PassesOnAHandWrittenCase) {
  Database db = MakeRandomDatabase(3, {});
  // U0(t) AND t <= 4: well-formed, no analysis findings expected.
  QueryPtr q = Query::And(
      Query::Atom("U0", {Term::Variable("t")}),
      Query::Compare(Term::Variable("t"), CmpOp::kLe, Term::Int(4)));
  QueryCaseOutcome outcome = CheckQueryCase(db, q);
  EXPECT_FALSE(outcome.skipped);
  EXPECT_FALSE(outcome.failure.has_value()) << *outcome.failure;
  EXPECT_EQ(outcome.variants_checked, 3);
  // A single atom with a comparison gets a fully bounded certificate, so
  // the soundness oracle must have verified it against the plain result.
  EXPECT_EQ(outcome.certificates_checked, 1);
  // Both closed forms, on the baseline and each of the three variants.
  EXPECT_EQ(outcome.closed_checked, 8);
  // The optimized baseline has the plain evaluation's point set.
  EXPECT_EQ(outcome.optimizer_checked, 1);
}

// Closed forms whose peeled bodies split into parts over disjoint
// variables: the EXISTS form of an AND and the FORALL form of an OR.
TEST(QueryOracleTest, ChecksClosedFormsOfIndependentConjuncts) {
  Database db = MakeRandomDatabase(3, {});
  QueryPtr t = Query::Atom("U0", {Term::Variable("t")});
  QueryPtr u = Query::Atom("U0", {Term::Variable("u")});
  const std::pair<QueryPtr, bool> cases[] = {
      {Query::And(t, u), false},
      {Query::Or(t, u), true},
  };
  for (const auto& [q, universal] : cases) {
    SCOPED_TRACE(q->ToString());
    QueryPtr closed = universal
                          ? Query::Forall("t", Query::Forall("u", q))
                          : Query::Exists("t", Query::Exists("u", q));
    query::Prepared prepared(closed, {}, query::Answer::kYesNo);
    ASSERT_TRUE(prepared.Compile(db).ok());
    EXPECT_EQ(prepared.plans().size(), 2u);
    QueryCaseOutcome outcome = CheckQueryCase(db, q);
    EXPECT_FALSE(outcome.skipped);
    EXPECT_FALSE(outcome.failure.has_value()) << *outcome.failure;
    EXPECT_EQ(outcome.closed_checked, 8);
  }
}

TEST(QueryOracleTest, ChecksAProvenEmptySubplan) {
  Database db = MakeRandomDatabase(3, {});
  // The right OR branch is a DBM contradiction; the analyzer proves it
  // empty and the oracle evaluates it standalone.
  QueryPtr contradiction = Query::And(
      Query::Compare(Term::Variable("t"), CmpOp::kGt, Term::Int(3)),
      Query::Compare(Term::Variable("t"), CmpOp::kLt, Term::Int(3)));
  QueryPtr q = Query::Or(
      Query::Atom("U0", {Term::Variable("t")}),
      Query::And(Query::Atom("U0", {Term::Variable("t")}),
                 std::move(contradiction)));
  QueryCaseOutcome outcome = CheckQueryCase(db, q);
  EXPECT_FALSE(outcome.skipped);
  EXPECT_FALSE(outcome.failure.has_value()) << *outcome.failure;
  EXPECT_GT(outcome.empties_checked, 0);
}

// The acceptance gate: 500 random queries, zero violations of any oracle --
// analysis never changes results (at 1 and N threads), every proven-empty
// subplan really is empty (and every proven bit-empty one has zero
// tuples), actual cardinality / periods / hulls never
// exceed the root certificate, closed forms answer yes/no as the
// relation path's emptiness says, and optimizing keeps the point set.
TEST(QueryFuzzTest, FiveHundredCasesNoFindings) {
  QueryFuzzConfig config;
  config.seed = 20260806;
  config.cases = 500;
  ASSERT_GE(config.cases, 500);
  QueryFuzzReport report = RunQueryFuzz(config);
  EXPECT_TRUE(report.ok()) << report.Summary()
                           << (report.failures.empty()
                                   ? ""
                                   : "\nfirst: " +
                                         report.failures[0].description +
                                         "\nquery: " +
                                         report.failures[0].query);
  EXPECT_EQ(report.cases, 500);
  // The generator's contradiction/dead-branch rates make both oracles
  // fire many times over 500 cases; a silent no-op run is itself a bug.
  EXPECT_GT(report.variants_checked, 1000);
  EXPECT_GT(report.empties_checked, 20) << report.Summary();
  // Ground-false conjuncts give zero certified rows: bit-level proofs.
  EXPECT_GT(report.bit_empties_checked, 20) << report.Summary();
  // Most generated queries earn at least a partial certificate, so the
  // soundness oracle must run on a large fraction of the cases.
  EXPECT_GT(report.certificates_checked, 100) << report.Summary();
  // Closed forms answer through the peeled yes/no path on most cases.
  EXPECT_GT(report.closed_checked, 3000) << report.Summary();
  // Most baselines are compared with their unoptimized evaluation.
  EXPECT_GT(report.optimizer_checked, 250) << report.Summary();
}

// Certificate soundness as a property over the checked-in corpus: every
// `# check:` query annotated in tests/fuzz/corpus/*.itdb (deliberately
// delicate constructions -- NP-regime complements, statically empty
// intersections) must pass all three oracles against its own database,
// and the corpus as a whole must exercise the certificate check.
TEST(QueryOracleTest, CorpusCheckQueriesRespectTheirCertificates) {
  int certificates = 0;
  int queries = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(ITDB_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() != ".itdb") continue;
    std::ifstream file(entry.path());
    ASSERT_TRUE(file) << entry.path();
    std::stringstream buffer;
    buffer << file.rdbuf();
    std::vector<std::string> checks;
    std::istringstream lines(buffer.str());
    for (std::string line; std::getline(lines, line);) {
      const std::string marker = "# check: ";
      if (line.rfind(marker, 0) == 0) {
        checks.push_back(line.substr(marker.size()));
      }
    }
    if (checks.empty()) continue;
    Result<Database> db = Database::FromText(buffer.str());
    ASSERT_TRUE(db.ok()) << entry.path() << ": " << db.status();
    for (const std::string& text : checks) {
      Result<QueryPtr> q = query::ParseQuery(text);
      ASSERT_TRUE(q.ok()) << entry.path() << ": " << q.status();
      QueryCaseOutcome outcome = CheckQueryCase(db.value(), q.value());
      EXPECT_FALSE(outcome.failure.has_value())
          << entry.path() << ": " << text << ": " << *outcome.failure;
      certificates += outcome.certificates_checked;
      ++queries;
    }
  }
  EXPECT_GE(queries, 3);
  EXPECT_GT(certificates, 0);
}

TEST(QueryOracleTest, ShrinkReturnsRootWhenNoSubtreeFails) {
  Database db = MakeRandomDatabase(3, {});
  QueryPtr q = Query::And(
      Query::Atom("U0", {Term::Variable("t")}),
      Query::Compare(Term::Variable("t"), CmpOp::kLe, Term::Int(4)));
  // A passing case shrinks to itself: no subtree "still fails".
  QueryPtr shrunk = ShrinkFailingQuery(db, q);
  EXPECT_EQ(shrunk->ToString(), q->ToString());
}

}  // namespace
}  // namespace fuzz
}  // namespace itdb
