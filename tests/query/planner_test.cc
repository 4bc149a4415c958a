#include "query/planner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/absint.h"
#include "fuzz/generator.h"
#include "fuzz/query_gen.h"
#include "query/eval.h"
#include "query/parser.h"
#include "query/prepared.h"
#include "query/sorts.h"

#ifndef ITDB_FUZZ_CORPUS_DIR
#error "ITDB_FUZZ_CORPUS_DIR must be defined by the build"
#endif
#ifndef ITDB_EXAMPLES_QUERIES_DIR
#error "ITDB_EXAMPLES_QUERIES_DIR must be defined by the build"
#endif

namespace itdb {
namespace query {
namespace {

// Big and Wide are large and share no variable in the test queries; Link is
// a small selective bridge between them.
Database SkewedDb() {
  std::ostringstream text;
  text << "relation Big(T: time) {";
  for (int i = 0; i < 40; ++i) text << " [" << 10 * i << "];";
  text << " }\n";
  text << "relation Wide(T: time) {";
  for (int i = 0; i < 40; ++i) text << " [" << 7 * i + 3 << "];";
  text << " }\n";
  text << "relation Link(A: time, B: time) { [0, 3]; [10, 10]; }\n";
  text << "relation Tiny(T: time) { [0]; }\n";
  Result<Database> db = Database::FromText(text.str());
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

PlannedQuery Plan(const Database& db, const std::string& text) {
  Result<QueryPtr> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  Result<SortMap> sorts = InferSorts(db, q.value());
  EXPECT_TRUE(sorts.ok()) << sorts.status();
  return PlanQuery(db, q.value(), sorts.value(), nullptr);
}

// The leaf reached by walking left() all the way down: the conjunct the
// planned left-deep chain evaluates first.
const Query& LeftmostLeaf(const Query& q) {
  const Query* node = &q;
  while (node->kind() != Query::Kind::kAtom &&
         node->kind() != Query::Kind::kCmp) {
    node = node->left().get();
  }
  return *node;
}

TEST(PlannerTest, SelectiveLinkSeedsTheChain) {
  Database db = SkewedDb();
  // Written order joins Big x Wide first: a 40 * 40 cross product.  The
  // planner must seed with the 2-tuple Link and keep every join connected.
  PlannedQuery planned = Plan(db, "Big(t) AND Wide(u) AND Link(t, u)");
  EXPECT_EQ(LeftmostLeaf(*planned.query).relation(), "Link")
      << planned.query->ToString();
}

TEST(PlannerTest, CrossProductsComeLast) {
  Database db = SkewedDb();
  // Tiny(u) shares nothing with the t-chain; it must not split the
  // connected prefix.  The final (topmost) join should be the one that
  // brings in the disconnected conjunct.
  PlannedQuery planned = Plan(db, "Tiny(u) AND Big(t) AND Wide(t)");
  const Query& root = *planned.query;
  ASSERT_EQ(root.kind(), Query::Kind::kAnd);
  // Right child of the root = last conjunct joined = the cross product.
  EXPECT_EQ(root.right()->relation(), "Tiny") << root.ToString();
}

TEST(PlannerTest, SelectionsJoinEarly) {
  Database db = SkewedDb();
  // The t <= 5 restriction is the cheapest conjunct; greedy ordering pins
  // it into the chain before the wide join materializes.
  PlannedQuery planned = Plan(db, "Big(t) AND Wide(t) AND t <= 5");
  const Query& first = LeftmostLeaf(*planned.query);
  // Either the comparison itself or the relation it was folded against
  // leads; the Big x Wide pair must not be the seed.  The seed pair is the
  // two deepest leaves: leftmost leaf plus its sibling.
  const Query* node = planned.query.get();
  while (node->left()->kind() == Query::Kind::kAnd) {
    node = node->left().get();
  }
  bool cmp_in_seed = node->left()->kind() == Query::Kind::kCmp ||
                     node->right()->kind() == Query::Kind::kCmp;
  EXPECT_TRUE(cmp_in_seed) << planned.query->ToString();
  (void)first;
}

TEST(PlannerTest, WideComplementsComeLast) {
  Database db = SkewedDb();
  // The chain is connected without the width-2 complement (Link bridges t
  // and u), so the complement -- whose estimate is exponential in its free
  // temporal width, the A010 signal -- must join last.
  PlannedQuery planned =
      Plan(db, "(NOT Link(t, u)) AND Big(t) AND Wide(u) AND Link(t, u)");
  const Query& root = *planned.query;
  ASSERT_EQ(root.kind(), Query::Kind::kAnd);
  EXPECT_EQ(root.right()->kind(), Query::Kind::kNot) << root.ToString();
}

TEST(PlannerTest, EveryPlannedNodeHasAnEstimate) {
  Database db = SkewedDb();
  PlannedQuery planned = Plan(db, "Big(t) AND Wide(u) AND Link(t, u)");
  int nodes = 0;
  auto walk = [&](auto&& self, const Query& q) -> void {
    ++nodes;
    EXPECT_TRUE(planned.estimates.contains(&q)) << q.ToString();
    switch (q.kind()) {
      case Query::Kind::kAnd:
      case Query::Kind::kOr:
        self(self, *q.left());
        self(self, *q.right());
        break;
      case Query::Kind::kNot:
      case Query::Kind::kExists:
        self(self, *q.left());
        break;
      default:
        break;
    }
  };
  walk(walk, *planned.query);
  EXPECT_EQ(nodes, 5);
  std::string rendered =
      FormatQueryPlanWithEstimates(planned.query, planned.estimates);
  EXPECT_NE(rendered.find("est_rows="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("est_cost="), std::string::npos) << rendered;
}

TEST(PlannerTest, UnknownRelationsPlanWithoutFailing) {
  Database db = SkewedDb();
  // Sort inference rejects unknown relations before evaluation, so hand
  // PlanQuery a sort map directly: it must estimate the unreadable atom as
  // empty rather than fail.
  Result<QueryPtr> q = ParseQuery("Big(t) AND Nope(t)");
  ASSERT_TRUE(q.ok());
  SortMap sorts{{"t", Sort::kTime}};
  PlannedQuery planned = PlanQuery(db, q.value(), sorts, nullptr);
  EXPECT_NE(planned.query, nullptr);
}

TEST(PlannerTest, PlannedEvaluationIsBitIdenticalToWrittenOrder) {
  Database db = SkewedDb();
  const std::string queries[] = {
      "Big(t) AND Wide(u) AND Link(t, u)",
      "Wide(t) AND Big(t) AND t <= 40",
      "(NOT Link(t, u)) AND Big(t) AND Wide(u) AND Link(t, u)",
      "EXISTS u . (Big(t) AND Link(t, u) AND Wide(u))",
      "Tiny(u) AND Big(t) AND Wide(t)",
  };
  for (const std::string& text : queries) {
    QueryOptions on;
    on.cost_plan = true;
    QueryOptions off;
    off.cost_plan = false;
    Result<GeneralizedRelation> with = EvalQueryString(db, text, on);
    Result<GeneralizedRelation> without = EvalQueryString(db, text, off);
    ASSERT_TRUE(with.ok()) << with.status() << " for " << text;
    ASSERT_TRUE(without.ok()) << without.status() << " for " << text;
    EXPECT_EQ(with.value().schema(), without.value().schema()) << text;
    EXPECT_EQ(with.value().tuples(), without.value().tuples()) << text;
  }
}

// The improvement certified bounds buy over the heuristic: the cost model
// prices joins from tuple counts and distinct-value estimates only, so two
// relations whose hulls are DISJOINT still price like any other join.  The
// certificate intersects the hulls, refutes the pair, clamps the estimate
// to zero rows, and the planner seeds the chain with the provably empty
// join instead of burying it.
TEST(PlannerTest, CertifiedHullRefutationZeroesAndReordersTheChain) {
  std::ostringstream text;
  text << "relation Big(T: time) {";
  for (int i = 0; i < 40; ++i) text << " [" << 10 * i << "];";
  text << " }\n";
  text << "relation Wide(T: time) {";
  for (int i = 0; i < 40; ++i) text << " [" << 7 * i + 3 << "];";
  text << " }\n";
  // Phantom's 40 tuples live in [1000, 1039] -- disjoint from Big's
  // certified hull [0, 390].
  text << "relation Phantom(T: time) {";
  for (int i = 0; i < 40; ++i) text << " [" << 1000 + i << "];";
  text << " }\n";
  Result<Database> db = Database::FromText(text.str());
  ASSERT_TRUE(db.ok()) << db.status();
  Result<QueryPtr> q = ParseQuery("Big(t) AND Wide(t) AND Phantom(t)");
  ASSERT_TRUE(q.ok());
  Result<SortMap> sorts = InferSorts(db.value(), q.value());
  ASSERT_TRUE(sorts.ok());

  // Heuristic-only plan: the root still expects rows.
  PlannedQuery heuristic =
      PlanQuery(db.value(), q.value(), sorts.value(), nullptr);
  EXPECT_GT(heuristic.estimates.at(heuristic.query.get()).rows, 0.0)
      << heuristic.query->ToString();

  // Certified plan: zero rows at the root, and the refuted Big-Phantom
  // pair seeds the chain (the deepest two leaves).
  analysis::AbstractInterpreter interp(db.value(), sorts.value());
  interp.Interpret(q.value());
  PlannedQuery certified =
      PlanQuery(db.value(), q.value(), sorts.value(), nullptr, &interp);
  EXPECT_EQ(certified.estimates.at(certified.query.get()).rows, 0.0)
      << certified.query->ToString();
  const Query* node = certified.query.get();
  while (node->left()->kind() == Query::Kind::kAnd) {
    node = node->left().get();
  }
  std::set<std::string> seed = {node->left()->relation(),
                                node->right()->relation()};
  EXPECT_TRUE(seed.count("Phantom")) << certified.query->ToString();
  EXPECT_FALSE(seed.count("Wide")) << certified.query->ToString();

  // Bit-identity: the clamped plan evaluates to the written order's
  // (empty) result.
  QueryOptions written;
  written.cost_plan = false;
  Result<GeneralizedRelation> with = EvalQueryString(
      db.value(), "Big(t) AND Wide(t) AND Phantom(t)", QueryOptions{});
  Result<GeneralizedRelation> without = EvalQueryString(
      db.value(), "Big(t) AND Wide(t) AND Phantom(t)", written);
  ASSERT_TRUE(with.ok()) << with.status();
  ASSERT_TRUE(without.ok()) << without.status();
  EXPECT_EQ(with.value().tuples(), without.value().tuples());
  EXPECT_TRUE(with.value().tuples().empty());
}

TEST(PlannerTest, StatsCacheHitsOnRepeatedPlans) {
  Database db = SkewedDb();
  StatsCache cache;
  Result<QueryPtr> q = ParseQuery("Big(t) AND Wide(u) AND Link(t, u)");
  ASSERT_TRUE(q.ok());
  Result<SortMap> sorts = InferSorts(db, q.value());
  ASSERT_TRUE(sorts.ok());
  PlanQuery(db, q.value(), sorts.value(), &cache);
  StatsCache::Stats first = cache.stats();
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.misses, 3u);  // Big, Wide, Link.
  PlanQuery(db, q.value(), sorts.value(), &cache);
  StatsCache::Stats second = cache.stats();
  EXPECT_EQ(second.hits, 3u);
  EXPECT_EQ(second.misses, 3u);
}

// ------------------------------------- one interpretation per statement

// The compiled statement's plan as explain renders it: clamped and
// annotated by the analysis' own interpreter.
std::string RenderCompiled(const Prepared& prepared) {
  return FormatQueryPlanWithEstimates(prepared.plan(), prepared.estimates(),
                                      &prepared.certificates());
}

// The same plan built with a second, fresh interpreter over the rewritten
// tree's sorts, seeded from the parsed query -- the recipe planning used
// before the analysis' interpreter was reused.
std::string RenderWithFreshInterpreter(const Database& db,
                                       const Prepared& prepared) {
  Result<SortMap> sorts = InferSorts(db, prepared.rewritten());
  EXPECT_TRUE(sorts.ok()) << sorts.status();
  if (!sorts.ok()) return "";
  StatsCache cache;
  analysis::AbstractInterpreter interp(db, sorts.value(), &cache);
  interp.SeedActiveDomain(*prepared.query());
  interp.Interpret(prepared.rewritten());
  PlannedQuery planned =
      PlanQuery(db, prepared.rewritten(), sorts.value(), &cache, &interp);
  return FormatQueryPlanWithEstimates(planned.query, planned.estimates,
                                      &interp.certificates());
}

// Compiles `text` with analysis on and off and, for each compiled plan,
// compares the two renderings.  Returns the number of plans compared.
int ExpectSameRendering(const Database& db, const std::string& text) {
  int compared = 0;
  for (bool analyze : {true, false}) {
    QueryOptions options;
    options.analyze = analyze;
    Result<Prepared> prepared = Prepared::Parse(text, options);
    if (!prepared.ok()) continue;
    // With analysis errors there is no interpreter to compare against (and
    // with `analyze` on, no plan).
    if (prepared->Analyze(db).interpreter == nullptr) continue;
    if (!prepared->Compile(db).ok() || prepared->statically_empty()) continue;
    EXPECT_EQ(RenderCompiled(*prepared),
              RenderWithFreshInterpreter(db, *prepared))
        << text << " (analyze " << (analyze ? "on" : "off") << ")";
    ++compared;
  }
  return compared;
}

std::string ReadAll(const std::filesystem::path& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(MergedInterpretationTest, DeadBranchAndRewrittenComparison) {
  Database db = SkewedDb();
  // The ground-false branch is eliminated before optimizing, and the
  // optimizer turns NOT (t < 100) into a new CMP node (t >= 100): the
  // rewritten tree shares some leaves with the parsed one and not others.
  const std::string queries[] = {
      "(Big(t) AND Link(t, u)) OR (Link(t, u) AND 3 < 2)",
      "Big(t) AND NOT (t < 100) AND Link(t, u)",
      "(Big(t) AND NOT (t < 100) AND Link(t, u)) OR (Link(t, u) AND 3 < 2)",
  };
  for (const std::string& text : queries) {
    EXPECT_EQ(ExpectSameRendering(db, text), 2) << text;
  }
  Result<Prepared> prepared = Prepared::Parse(queries[2], {});
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Compile(db).ok());
  EXPECT_EQ(prepared->rewritten()->ToString().find("3 < 2"),
            std::string::npos)
      << prepared->rewritten()->ToString();
  EXPECT_NE(prepared->rewritten()->ToString().find("t >= 100"),
            std::string::npos)
      << prepared->rewritten()->ToString();
}

TEST(MergedInterpretationTest, CheckQueriesRenderAsWithASecondInterpreter) {
  int compared = 0;
  for (const char* dir : {ITDB_EXAMPLES_QUERIES_DIR, ITDB_FUZZ_CORPUS_DIR}) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".itdb") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const std::filesystem::path& path : files) {
      SCOPED_TRACE(path.filename().string());
      const std::string text = ReadAll(path);
      Result<Database> db = Database::FromText(text);
      ASSERT_TRUE(db.ok()) << db.status();
      std::istringstream lines(text);
      for (std::string line; std::getline(lines, line);) {
        const std::string prefix = "# check:";
        if (line.rfind(prefix, 0) != 0) continue;
        compared += ExpectSameRendering(db.value(), line.substr(prefix.size()));
      }
    }
  }
  EXPECT_GE(compared, 10);
}

TEST(MergedInterpretationTest, FuzzQueriesRenderAsWithASecondInterpreter) {
  int compared = 0;
  for (std::uint32_t seed = 1; seed <= 200; ++seed) {
    Database db = fuzz::MakeRandomDatabase(seed, {});
    QueryPtr q = fuzz::MakeRandomQuery(seed, db, {});
    compared += ExpectSameRendering(db, q->ToString());
  }
  EXPECT_GE(compared, 100);
}

}  // namespace
}  // namespace query
}  // namespace itdb
