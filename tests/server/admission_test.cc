#include "server/admission.h"

#include <string>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "query/prepared.h"
#include "storage/database.h"
#include "util/diagnostic.h"

namespace itdb {
namespace server {
namespace {

TEST(AdmissionQueueTest, AdmitsUpToBoundThenSheds) {
  AdmissionOptions options;
  options.max_pending = 2;
  AdmissionQueue queue(options);
  EXPECT_TRUE(queue.TryAdmit());
  EXPECT_TRUE(queue.TryAdmit());
  EXPECT_EQ(queue.pending(), 2);
  EXPECT_FALSE(queue.TryAdmit());
  EXPECT_EQ(queue.shed_total(), 1);
  EXPECT_EQ(queue.pending(), 2);  // The shed request holds no slot.
  queue.Release();
  EXPECT_TRUE(queue.TryAdmit());
  EXPECT_EQ(queue.admitted_total(), 3);
}

TEST(AdmissionQueueTest, ZeroBoundShedsEverything) {
  AdmissionOptions options;
  options.max_pending = 0;
  AdmissionQueue queue(options);
  const std::int64_t shed_before =
      obs::MetricsRegistry::Global().snapshot().counters["server.shed"];
  EXPECT_FALSE(queue.TryAdmit());
  EXPECT_FALSE(queue.TryAdmit());
  EXPECT_EQ(queue.shed_total(), 2);
  EXPECT_EQ(queue.admitted_total(), 0);
  const std::int64_t shed_after =
      obs::MetricsRegistry::Global().snapshot().counters["server.shed"];
  EXPECT_EQ(shed_after - shed_before, 2);
}

// Grades `text` the way a session does: from the one analysis of its
// prepared statement.
CostGrade Grade(const Database& db, const std::string& text) {
  Result<query::Prepared> prepared = query::Prepared::Parse(text, {});
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  if (!prepared.ok()) return {};
  return GradeAnalysis(prepared.value().Analyze(db));
}

class ClassifyCostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Coprime periods 97 and 101: their lcm (9797) is past the analyzer's
    // period-blowup threshold (720), so joining P and Q draws A012.
    Result<Database> db = Database::FromText(R"(
relation P(T: time) {
  [1+97n];
}
relation Q(T: time) {
  [2+101n];
}
)");
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
  }

  CostClass Classify(const std::string& text) {
    return Grade(db_, text).cls;
  }

  Database db_;
};

TEST_F(ClassifyCostTest, SimpleQueriesAreNormal) {
  EXPECT_EQ(Classify("P(t)"), CostClass::kNormal);
  EXPECT_EQ(Classify("EXISTS t . P(t)"), CostClass::kNormal);
}

TEST_F(ClassifyCostTest, PeriodBlowupIsHeavy) {
  EXPECT_EQ(Classify("P(t) AND Q(t)"), CostClass::kHeavy);
}

TEST_F(ClassifyCostTest, WideComplementIsHeavy) {
  // NOT over two free temporal columns: A010 (NP-complete regime).
  EXPECT_EQ(Classify("NOT (P(t) AND P(u)) AND P(t) AND P(u)"),
            CostClass::kHeavy);
}

TEST(AdmissionQueueTest, HeavyAdmissionHasItsOwnBudget) {
  AdmissionOptions options;
  options.max_pending = 8;
  options.max_pending_heavy = 1;
  AdmissionQueue queue(options);
  ASSERT_TRUE(queue.TryAdmit());
  EXPECT_TRUE(queue.PromoteToHeavy());
  EXPECT_EQ(queue.pending(), 1);
  EXPECT_EQ(queue.pending_heavy(), 1);
  // A second heavy query sheds on the heavy budget while light traffic
  // still flows.
  ASSERT_TRUE(queue.TryAdmit());
  EXPECT_FALSE(queue.PromoteToHeavy());
  queue.Release();
  EXPECT_EQ(queue.shed_heavy_total(), 1);
  EXPECT_TRUE(queue.TryAdmit());
  EXPECT_EQ(queue.pending(), 2);
  // Finishing the heavy query frees both counters.
  queue.DemoteFromHeavy();
  queue.Release();
  EXPECT_EQ(queue.pending(), 1);
  EXPECT_EQ(queue.pending_heavy(), 0);
  ASSERT_TRUE(queue.TryAdmit());
  EXPECT_TRUE(queue.PromoteToHeavy());
  queue.DemoteFromHeavy();
  queue.Release();
  queue.Release();
  EXPECT_EQ(queue.pending(), 0);
}

TEST(AdmissionQueueTest, PromotionFailureHoldsNoHeavySlot) {
  AdmissionOptions options;
  options.max_pending = 4;
  options.max_pending_heavy = 0;
  AdmissionQueue queue(options);
  ASSERT_TRUE(queue.TryAdmit());
  EXPECT_FALSE(queue.PromoteToHeavy());
  // The failed promotion takes no heavy slot; the shed request gives back
  // its total slot and leaves nothing behind.
  EXPECT_EQ(queue.pending_heavy(), 0);
  queue.Release();
  EXPECT_EQ(queue.pending(), 0);
  EXPECT_EQ(queue.shed_heavy_total(), 1);
}

// The demonstrable improvement over the heuristic: a join of singleton
// relations has no A010 complement and no A012 period blowup (every
// period is 0), so the heuristic classifier admitted it as normal -- but
// its certified cardinality (the product of the stored tuple counts) is
// over the huge-query threshold, and certified grading sheds it at a
// zero-budget heavy gate where the heuristic would have let it through.
TEST(GradeAnalysisTest, CertifiedHugeJoinIsHeavyWhereHeuristicAdmitted) {
  // Three relations of 101 singleton tuples: 101^3 = 1,030,301 certified
  // join rows > the 1,000,000 threshold; lcm stays 1.
  std::string text;
  for (const char* name : {"P", "Q", "R"}) {
    text += std::string("relation ") + name + "(T: time) {\n";
    for (int i = 0; i < 101; ++i) {
      text += "  [" + std::to_string(i) + "];\n";
    }
    text += "}\n";
  }
  Result<Database> db = Database::FromText(text);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<query::QueryPtr> q = query::ParseQuery("P(t) AND Q(t) AND R(t)");
  ASSERT_TRUE(q.ok()) << q.status();

  // The heuristic signals are absent: no A010, no A012.
  analysis::AnalysisResult analyzed = analysis::Analyze(db.value(), q.value());
  for (const Diagnostic& d : analyzed.diagnostics) {
    EXPECT_NE(d.code, diag::kExpensiveComplement) << d.message;
    EXPECT_NE(d.code, diag::kPeriodBlowup) << d.message;
  }

  CostGrade grade = GradeAnalysis(analyzed);
  EXPECT_EQ(grade.cls, CostClass::kHeavy);
  ASSERT_TRUE(grade.root_certificate.rows.has_value());
  EXPECT_GT(*grade.root_certificate.rows, 1'000'000);

  // End to end at the queue: with no heavy budget, the certified grade
  // sheds the query where the heuristic's kNormal grade (never promoted)
  // admitted it.
  AdmissionOptions options;
  options.max_pending = 8;
  options.max_pending_heavy = 0;
  AdmissionQueue queue(options);
  ASSERT_TRUE(queue.TryAdmit());
  EXPECT_FALSE(queue.PromoteToHeavy());
  queue.Release();
  EXPECT_EQ(queue.shed_heavy_total(), 1);
}

TEST(GradeAnalysisTest, BoundedCertificateEnablesCaching) {
  Result<Database> db = Database::FromText("relation P(T: time) { [2n]; }\n");
  ASSERT_TRUE(db.ok()) << db.status();
  CostGrade grade = Grade(db.value(), "P(t) AND t <= 10");
  EXPECT_EQ(grade.cls, CostClass::kNormal);
  EXPECT_TRUE(grade.root_certificate.bounded());
  // Complements are rows-unbounded: certified cacheability refuses them.
  grade = Grade(db.value(), "NOT P(t)");
  EXPECT_FALSE(grade.root_certificate.bounded());
}

TEST_F(ClassifyCostTest, UnanalyzableQueriesGradeNormal) {
  // Unknown relation: analysis reports errors, not cost warnings; the
  // session's own evaluation will surface the real failure.
  EXPECT_EQ(Classify("Missing(t)"), CostClass::kNormal);
}

}  // namespace
}  // namespace server
}  // namespace itdb
