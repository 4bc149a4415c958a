#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/eval.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/prepared.h"
#include "storage/text_format.h"

namespace itdb {
namespace query {
namespace {

/// A database whose atoms produce multi-tuple relations, so the AND nodes
/// drive real Join work (candidate pairs, prefilter pruning, closures).
Database JoinHeavyDb() {
  std::string text = R"(
    relation P(T: time) {
      [1+6n] : T >= 1;
      [2+10n] : T >= 2;
      [3+15n] : T >= 3;
      [4+21n];
    }
    relation Q(T: time) {
      [1+4n];
      [2+6n] : T <= 1000;
      [3+9n];
      [5+14n] : T >= 5;
    }
    relation R(A: time, B: time) {
      [2n, 3n] : A <= B + 10;
      [1+2n, 1+5n] : A >= -100;
      [7n, 2+7n];
    }
  )";
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

// EXISTS u projects a column that needs normalization (period > 1, bound
// to t by an inequality, not pinned), so the normalize cache does work.
constexpr const char* kJoinQuery =
    "EXISTS u . (P(t) AND Q(t) AND R(t, u) AND Q(u))";

std::int64_t SumMetric(const obs::ProfileNode& node, std::string_view name) {
  std::int64_t total = node.Metric(name);
  for (const obs::ProfileNode& child : node.children) {
    total += SumMetric(child, name);
  }
  return total;
}

// A relation statement evaluated with its profile, as the `profile` verb
// runs it: one Prepared, evaluated by EvalPrepared with a profile.
struct Profiled {
  Result<GeneralizedRelation> relation;
  obs::Profile profile;
};

Profiled EvalProfiled(const Database& db, const char* text,
                      const QueryOptions& options = {}) {
  Result<Prepared> prepared = Prepared::Parse(text, options);
  if (!prepared.ok()) return {prepared.status(), {}};
  obs::Profile profile;
  Result<GeneralizedRelation> relation =
      EvalPrepared(db, prepared.value(), &profile);
  return {std::move(relation), std::move(profile)};
}

int CountNodes(const obs::ProfileNode& node) {
  int n = 1;
  for (const obs::ProfileNode& child : node.children) n += CountNodes(child);
  return n;
}

TEST(ProfileTest, JoinHeavyQueryReportsPerNodeMetrics) {
  Database db = JoinHeavyDb();
  Profiled profiled = EvalProfiled(db, kJoinQuery);
  ASSERT_TRUE(profiled.relation.ok()) << profiled.relation.status();
  const obs::Profile& profile = profiled.profile;
  ASSERT_FALSE(profile.empty());

  // The root is the whole-query span; the plan tree hangs beneath it.
  EXPECT_EQ(profile.root.label.rfind("query ", 0), 0u) << profile.root.label;
  EXPECT_GT(profile.total_wall_ns, 0);
  EXPECT_GT(CountNodes(profile.root), 4);  // Root + AND nodes + leaves.

  // Every plan node reports wall time and its result size.
  EXPECT_EQ(profile.root.Metric("tuples_out"),
            static_cast<std::int64_t>(profiled.relation->size()));
  for (const obs::ProfileNode& child : profile.root.children) {
    EXPECT_GE(child.wall_ns, 0);
    EXPECT_GE(child.Metric("tuples_out", -1), 0) << child.label;
  }

  // The joins visited candidate pairs and the prefilters / cache did work.
  EXPECT_GT(SumMetric(profile.root, "pairs_candidate"), 0);
  EXPECT_GT(SumMetric(profile.root, "pairs_pruned_residue") +
                SumMetric(profile.root, "pairs_pruned_hull"),
            0);
  EXPECT_GT(SumMetric(profile.root, "cache_hits"), 0);
  EXPECT_GT(SumMetric(profile.root, "cache_misses"), 0);

  // Inclusive times: every node covers its children, and the top plan node
  // accounts for (almost) all of the root's wall time -- the work between
  // the two spans is a label + two counter snapshots.  The uncovered time
  // may be at most max(10%, 2 ms) of the root's.  Descheduling between the
  // spans can only widen the gap, so the bound holds for the best of up to
  // three profiled runs.
  auto excess = [](const obs::Profile& p) {
    std::int64_t child_sum = 0;
    for (const obs::ProfileNode& child : p.root.children) {
      EXPECT_LE(child.wall_ns, p.root.wall_ns);
      child_sum += child.wall_ns;
    }
    EXPECT_LE(child_sum, p.root.wall_ns);
    const std::int64_t allowed =
        std::max<std::int64_t>(p.root.wall_ns / 10, 2000000);
    return p.root.wall_ns - child_sum - allowed;
  };
  std::int64_t best = excess(profile);
  for (int run = 1; run < 3 && best > 0; ++run) {
    Profiled again = EvalProfiled(db, kJoinQuery);
    ASSERT_TRUE(again.relation.ok()) << again.relation.status();
    best = std::min(best, excess(again.profile));
  }
  EXPECT_LE(best, 0);

  // The rendered profile carries the headline fields.
  std::string text = profile.ToText();
  EXPECT_NE(text.find("wall="), std::string::npos);
  EXPECT_NE(text.find("tuples_out="), std::string::npos);
  EXPECT_NE(text.find("pairs_candidate="), std::string::npos);
}

TEST(ProfileTest, AChainProfilesAsOneAndOverItsConjuncts) {
  Database db = JoinHeavyDb();
  // Written order is the feed order.
  QueryOptions options;
  options.cost_plan = false;
  Profiled profiled =
      EvalProfiled(db, "P(t) AND Q(t) AND R(t, u) AND Q(u)", options);
  ASSERT_TRUE(profiled.relation.ok()) << profiled.relation.status();
  ASSERT_EQ(profiled.profile.root.children.size(), 1u);
  const obs::ProfileNode& chain = profiled.profile.root.children[0];
  EXPECT_EQ(chain.label, "AND");
  std::vector<std::string> labels;
  for (const obs::ProfileNode& child : chain.children) {
    labels.push_back(child.label);
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"ATOM P(t)", "ATOM Q(t)",
                                              "ATOM R(t, u)", "ATOM Q(u)"}));
  EXPECT_GT(profiled.relation->size(), 0);
  EXPECT_EQ(chain.Metric("tuples_out", -1),
            static_cast<std::int64_t>(profiled.relation->size()));
  EXPECT_GT(chain.Metric("pairs_candidate"), 0);
}

// EXISTS and OR report the equal tuples they dropped next to tuples_out;
// the statement's counters and the `metrics` registry carry the total.
TEST(ProfileTest, ExistsAndOrReportTheEqualTuplesTheyDropped) {
  Result<Database> db = Database::FromText(R"(
    relation P(T: time) { [1+6n]; [2+10n]; }
    relation R(A: time, B: time) { [2n, 3n]; [2n, 1+3n]; }
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  // R's tuples differ only in B.
  Profiled exists = EvalProfiled(*db, "EXISTS u . R(t, u)");
  ASSERT_TRUE(exists.relation.ok()) << exists.relation.status();
  EXPECT_EQ(exists.relation->size(), 1);
  ASSERT_EQ(exists.profile.root.children.size(), 1u);
  const obs::ProfileNode& node = exists.profile.root.children[0];
  EXPECT_EQ(node.label, "EXISTS u");
  EXPECT_EQ(node.Metric("tuples_out", -1), 1);
  EXPECT_EQ(node.Metric("tuples_equal_dropped", -1), 1);
  ASSERT_GE(node.metrics.size(), 2u);
  EXPECT_EQ(node.metrics[1].first, "tuples_equal_dropped");

  Profiled both = EvalProfiled(*db, "P(t) OR P(t)");
  ASSERT_TRUE(both.relation.ok()) << both.relation.status();
  ASSERT_EQ(both.profile.root.children.size(), 1u);
  EXPECT_EQ(both.profile.root.children[0].label, "OR");
  EXPECT_EQ(both.profile.root.children[0].Metric("tuples_equal_dropped", -1),
            2);
  // Nodes that keep every copy do not report the arg.
  for (const obs::ProfileNode& atom : both.profile.root.children[0].children) {
    EXPECT_EQ(atom.Metric("tuples_equal_dropped", -1), -1) << atom.label;
  }

  // A caller's counters see the drops; without them the statement
  // publishes its own into the global registry.
  KernelCounters counters;
  QueryOptions options;
  options.algebra.counters = &counters;
  ASSERT_TRUE(EvalQueryString(*db, "P(t) OR P(t)", options).ok());
  EXPECT_EQ(counters.tuples_equal_dropped.load(), 2);
  auto published = [] {
    return obs::MetricsRegistry::Global()
        .snapshot()
        .counters["kernel.tuples_equal_dropped"];
  };
  const std::int64_t before = published();
  ASSERT_TRUE(EvalQueryString(*db, "EXISTS u . R(t, u)").ok());
  EXPECT_EQ(published() - before, 1);
}

TEST(ProfileTest, TracingChangesNoResultBit) {
  Database db = JoinHeavyDb();
  QueryOptions plain;
  Result<GeneralizedRelation> baseline = EvalQueryString(db, kJoinQuery, plain);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::string expect = PrintRelation("r", baseline.value());

  // Profiled and traced evaluation must agree with the plain one bit for
  // bit.
  QueryOptions options;
  Profiled profiled = EvalProfiled(db, kJoinQuery, options);
  ASSERT_TRUE(profiled.relation.ok()) << profiled.relation.status();
  EXPECT_EQ(PrintRelation("r", profiled.relation.value()), expect)
      << "profiled";

  obs::Tracer tracer;
  options.algebra.tracer = &tracer;
  Result<GeneralizedRelation> traced = EvalQueryString(db, kJoinQuery, options);
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_EQ(PrintRelation("r", traced.value()), expect) << "traced";
  EXPECT_GT(tracer.size(), 0u);
}

TEST(ProfileTest, ExplicitTracerEmitsValidChromeTrace) {
  Database db = JoinHeavyDb();
  QueryOptions options;
  obs::Tracer tracer;
  options.algebra.tracer = &tracer;
  Result<GeneralizedRelation> result = EvalQueryString(db, kJoinQuery, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(tracer.size(), 0u);
  // Plan spans and algebra spans share the tracer.
  bool saw_plan = false;
  bool saw_algebra = false;
  for (const obs::SpanRecord& s : tracer.records()) {
    saw_plan |= s.category == "plan";
    saw_algebra |= s.category == "algebra";
  }
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_algebra);
  Status valid = obs::ValidateChromeTrace(tracer.ToChromeTraceJson());
  EXPECT_TRUE(valid.ok()) << valid;
}

TEST(ProfileTest, UntracedEvalOpensNoSpans) {
  Database db = JoinHeavyDb();
  // A process-global tracer receives the algebra spans, but plan spans
  // only go to a caller's algebra.tracer.
  obs::Tracer tracer;
  obs::InstallGlobalTracer(&tracer);
  Result<GeneralizedRelation> result = EvalQueryString(db, kJoinQuery);
  obs::InstallGlobalTracer(nullptr);
  ASSERT_TRUE(result.ok()) << result.status();
  const std::vector<obs::SpanRecord> records = tracer.records();
  EXPECT_TRUE(std::any_of(
      records.begin(), records.end(),
      [](const obs::SpanRecord& s) { return s.category == "algebra"; }));
  EXPECT_TRUE(std::none_of(
      records.begin(), records.end(),
      [](const obs::SpanRecord& s) { return s.category == "plan"; }));
}

TEST(FormatQueryPlanTest, RendersTheTreeExplainPrints) {
  Result<QueryPtr> q =
      ParseQuery("(EXISTS t . (P(t) AND NOT Q(t))) OR P(0)");
  ASSERT_TRUE(q.ok()) << q.status();
  std::string plan = FormatQueryPlanWithEstimates(q.value(), {});
  EXPECT_EQ(plan,
            "OR\n"
            "  EXISTS t\n"
            "    AND\n"
            "      ATOM P(t)\n"
            "      NOT\n"
            "        ATOM Q(t)\n"
            "  ATOM P(0)\n");
}

}  // namespace
}  // namespace query
}  // namespace itdb
