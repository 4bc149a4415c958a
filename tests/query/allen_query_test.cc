// Allen's thirteen interval relations as first-order queries.
//
// The paper stores an interval as a pair of temporal attributes (§1,
// Example 2.4), so each of Allen's relations between strict intervals
// (s1, e1) and (s2, e2) is a conjunction of restricted comparisons on the
// four endpoints -- the point-algebra reading of interval constraints.
// Every check below is a `query` or `ask` statement through the one query
// pipeline; the table of conjunctions and the brute-force predicates live
// here, in the test, and nowhere in the library.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/eval.h"
#include "storage/database.h"

namespace itdb {
namespace query {
namespace {

using I = std::int64_t;

struct AllenRow {
  const char* name;
  const char* inverse;  // The converse: r(a, b) iff inverse(b, a).
  // The relation of interval a = (s1, e1) to interval b = (s2, e2).
  const char* conjunction;
  bool (*holds)(I s1, I e1, I s2, I e2);  // Brute force, strict intervals.
};

const AllenRow kAllen[] = {
    {"before", "after", "e1 < s2",
     [](I, I e1, I s2, I) { return e1 < s2; }},
    {"after", "before", "e2 < s1",
     [](I s1, I, I, I e2) { return e2 < s1; }},
    {"meets", "met-by", "e1 = s2",
     [](I, I e1, I s2, I) { return e1 == s2; }},
    {"met-by", "meets", "e2 = s1",
     [](I s1, I, I, I e2) { return e2 == s1; }},
    {"overlaps", "overlapped-by", "s1 < s2 AND s2 < e1 AND e1 < e2",
     [](I s1, I e1, I s2, I e2) { return s1 < s2 && s2 < e1 && e1 < e2; }},
    {"overlapped-by", "overlaps", "s2 < s1 AND s1 < e2 AND e2 < e1",
     [](I s1, I e1, I s2, I e2) { return s2 < s1 && s1 < e2 && e2 < e1; }},
    {"starts", "started-by", "s1 = s2 AND e1 < e2",
     [](I s1, I e1, I s2, I e2) { return s1 == s2 && e1 < e2; }},
    {"started-by", "starts", "s1 = s2 AND e2 < e1",
     [](I s1, I e1, I s2, I e2) { return s1 == s2 && e2 < e1; }},
    {"during", "contains", "s2 < s1 AND e1 < e2",
     [](I s1, I e1, I s2, I e2) { return s2 < s1 && e1 < e2; }},
    {"contains", "during", "s1 < s2 AND e2 < e1",
     [](I s1, I e1, I s2, I e2) { return s1 < s2 && e2 < e1; }},
    {"finishes", "finished-by", "e1 = e2 AND s2 < s1",
     [](I s1, I e1, I s2, I e2) { return e1 == e2 && s2 < s1; }},
    {"finished-by", "finishes", "e1 = e2 AND s1 < s2",
     [](I s1, I e1, I s2, I e2) { return e1 == e2 && s1 < s2; }},
    {"equals", "equals", "s1 = s2 AND e1 = e2",
     [](I s1, I e1, I s2, I e2) { return s1 == s2 && e1 == e2; }},
};
constexpr int kNumAllen = 13;

const AllenRow& Named(const std::string& name) {
  for (const AllenRow& row : kAllen) {
    if (name == row.name) return row;
  }
  ADD_FAILURE() << "no Allen relation named " << name;
  return kAllen[0];
}

// The endpoint variables of one interval in a statement.
struct Interval {
  std::string s, e;
};
const Interval kA{"s1", "e1"};
const Interval kB{"s2", "e2"};
const Interval kC{"s3", "e3"};

// The row's conjunction stating `a row b`, parenthesized.
std::string Rel(const AllenRow& row, const Interval& a, const Interval& b) {
  std::string out = "(";
  std::string token;
  auto flush = [&] {
    if (token == "s1") {
      token = a.s;
    } else if (token == "e1") {
      token = a.e;
    } else if (token == "s2") {
      token = b.s;
    } else if (token == "e2") {
      token = b.e;
    }
    out += token;
    token.clear();
  };
  for (const char* c = row.conjunction; *c != '\0'; ++c) {
    if (*c == ' ') {
      flush();
      out += ' ';
    } else {
      token += *c;
    }
  }
  flush();
  return out + ")";
}

std::string Strict(const Interval& i) { return i.s + " < " + i.e; }

std::string Exists(const std::vector<Interval>& intervals,
                   const std::string& body) {
  std::string out;
  for (const Interval& i : intervals) {
    out += "EXISTS " + i.s + " . EXISTS " + i.e + " . ";
  }
  return out + body;
}

std::string Forall(const std::vector<Interval>& intervals,
                   const std::string& body) {
  std::string out;
  for (const Interval& i : intervals) {
    out += "FORALL " + i.s + " . FORALL " + i.e + " . ";
  }
  return out + body;
}

bool Ask(const std::string& text, const Database& db = Database()) {
  Result<bool> r = EvalBooleanQueryString(db, text);
  EXPECT_TRUE(r.ok()) << r.status() << " for " << text;
  return r.ok() && r.value();
}

// The rows of a relation over the free variables s1, e1, s2, e2 (columns
// in name order) with every coordinate in [lo, hi], as (s1, e1, s2, e2).
std::set<std::vector<I>> EndpointRows(const GeneralizedRelation& r, I lo,
                                      I hi) {
  std::vector<std::size_t> col;
  for (const char* name : {"s1", "e1", "s2", "e2"}) {
    const std::vector<std::string>& names = r.schema().temporal_names();
    std::size_t i = 0;
    while (i < names.size() && names[i] != name) ++i;
    EXPECT_LT(i, names.size()) << "no column " << name;
    col.push_back(i);
  }
  std::set<std::vector<I>> out;
  for (const ConcreteRow& row : r.Enumerate(lo, hi)) {
    out.insert({row.temporal[col[0]], row.temporal[col[1]],
                row.temporal[col[2]], row.temporal[col[3]]});
  }
  return out;
}

TEST(AllenQueryTest, TableNamesAndInversesAreConsistent) {
  std::set<std::string> names;
  for (const AllenRow& row : kAllen) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
    EXPECT_EQ(std::string(Named(Named(row.name).inverse).inverse), row.name);
  }
  EXPECT_EQ(names.size(), 13u);
}

TEST(AllenQueryTest, BruteForcePredicatesPartitionStrictPairs) {
  // Exactly one relation holds between any two strict intervals.
  for (I s1 = -4; s1 <= 4; ++s1) {
    for (I e1 = s1 + 1; e1 <= 5; ++e1) {
      for (I s2 = -4; s2 <= 4; ++s2) {
        for (I e2 = s2 + 1; e2 <= 5; ++e2) {
          int holds = 0;
          for (const AllenRow& row : kAllen) {
            if (row.holds(s1, e1, s2, e2)) ++holds;
          }
          EXPECT_EQ(holds, 1) << "(" << s1 << "," << e1 << ") vs (" << s2
                              << "," << e2 << ")";
        }
      }
    }
  }
}

TEST(AllenQueryTest, GroundTextbookCases) {
  // [1,3] vs [5,8] and friends, through the predicate and the conjunction.
  struct Case {
    const char* name;
    I s1, e1, s2, e2;
  };
  const Case cases[] = {
      {"before", 1, 3, 5, 8},      {"meets", 1, 3, 3, 8},
      {"overlaps", 1, 5, 3, 8},    {"starts", 1, 3, 1, 8},
      {"during", 4, 6, 1, 8},      {"finishes", 5, 8, 1, 8},
      {"equals", 1, 8, 1, 8},      {"after", 5, 8, 1, 3},
      {"met-by", 3, 8, 1, 3},      {"overlapped-by", 3, 8, 1, 5},
      {"started-by", 1, 8, 1, 3},  {"contains", 1, 8, 4, 6},
      {"finished-by", 1, 8, 5, 8},
  };
  for (const Case& c : cases) {
    const AllenRow& row = Named(c.name);
    EXPECT_TRUE(row.holds(c.s1, c.e1, c.s2, c.e2)) << c.name;
    const std::string pin = "s1 = " + std::to_string(c.s1) +
                            " AND e1 = " + std::to_string(c.e1) +
                            " AND s2 = " + std::to_string(c.s2) +
                            " AND e2 = " + std::to_string(c.e2);
    EXPECT_TRUE(Ask(Exists({kA, kB}, pin + " AND " + Rel(row, kA, kB))))
        << c.name;
  }
}

TEST(AllenQueryTest, ConjunctionsCarveOutThePredicates) {
  // The open query over all of Z, read on a window, is exactly the set of
  // strict pairs the predicate accepts.
  for (const AllenRow& row : kAllen) {
    Result<GeneralizedRelation> r = EvalQueryString(
        Database(), Strict(kA) + " AND " + Strict(kB) + " AND " +
                        Rel(row, kA, kB));
    ASSERT_TRUE(r.ok()) << row.name << ": " << r.status();
    std::set<std::vector<I>> expect;
    for (I s1 = -3; s1 <= 3; ++s1) {
      for (I e1 = s1 + 1; e1 <= 3; ++e1) {
        for (I s2 = -3; s2 <= 3; ++s2) {
          for (I e2 = s2 + 1; e2 <= 3; ++e2) {
            if (row.holds(s1, e1, s2, e2)) expect.insert({s1, e1, s2, e2});
          }
        }
      }
    }
    EXPECT_EQ(EndpointRows(r.value(), -3, 3), expect) << row.name;
  }
}

// Jointly exhaustive and pairwise disjoint over all of Z, proved by the
// engine rather than on a window.
TEST(AllenQueryTest, ThirteenRelationsAreJointlyExhaustiveAndDisjoint) {
  const std::string strict = Strict(kA) + " AND " + Strict(kB);
  auto exhaustive_without = [&](int skip) {
    std::string any;
    for (int i = 0; i < kNumAllen; ++i) {
      if (i == skip) continue;
      if (!any.empty()) any += " OR ";
      any += Rel(kAllen[i], kA, kB);
    }
    return Ask(Forall({kA, kB}, "(" + strict + ") -> (" + any + ")"));
  };
  EXPECT_TRUE(exhaustive_without(-1));
  for (int i = 0; i < kNumAllen; ++i) {
    // Dropping any one relation leaves some strict pair uncovered.
    EXPECT_FALSE(exhaustive_without(i)) << kAllen[i].name;
    for (int j = i + 1; j < kNumAllen; ++j) {
      EXPECT_FALSE(Ask(Exists({kA, kB}, strict + " AND " +
                                            Rel(kAllen[i], kA, kB) + " AND " +
                                            Rel(kAllen[j], kA, kB))))
          << kAllen[i].name << " and " << kAllen[j].name;
    }
  }
}

TEST(AllenQueryTest, InverseIsTheConverse) {
  const std::string strict = Strict(kA) + " AND " + Strict(kB);
  for (const AllenRow& row : kAllen) {
    const AllenRow& inverse = Named(row.inverse);
    EXPECT_TRUE(Ask(Forall({kA, kB}, "(" + strict + " AND " +
                                         Rel(row, kA, kB) + ") -> " +
                                         Rel(inverse, kB, kA))))
        << row.name;
    EXPECT_TRUE(Ask(Forall({kA, kB}, "(" + strict + " AND " +
                                         Rel(inverse, kB, kA) + ") -> " +
                                         Rel(row, kA, kB))))
        << row.name;
  }
}

// Brute-force composition: the relations r with a r1 b, b r2 c and a r c
// for some strict intervals on a window wide enough for six endpoints.
std::set<int> BruteCompose(const AllenRow& r1, const AllenRow& r2) {
  std::set<int> out;
  constexpr I kLo = -6, kHi = 6;
  for (I s1 = kLo; s1 <= kHi; ++s1) {
    for (I e1 = s1 + 1; e1 <= kHi + 1; ++e1) {
      for (I s2 = kLo; s2 <= kHi; ++s2) {
        for (I e2 = s2 + 1; e2 <= kHi + 1; ++e2) {
          if (!r1.holds(s1, e1, s2, e2)) continue;
          for (I s3 = kLo; s3 <= kHi; ++s3) {
            for (I e3 = s3 + 1; e3 <= kHi + 1; ++e3) {
              if (!r2.holds(s2, e2, s3, e3)) continue;
              for (int r = 0; r < kNumAllen; ++r) {
                if (kAllen[r].holds(s1, e1, s3, e3)) out.insert(r);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

// Does r belong to the composition r1 ; r2?  One closed statement.
bool InComposition(const AllenRow& r1, const AllenRow& r2,
                   const AllenRow& r) {
  return Ask(Exists({kA, kB, kC}, Strict(kA) + " AND " + Strict(kB) +
                                      " AND " + Strict(kC) + " AND " +
                                      Rel(r1, kA, kB) + " AND " +
                                      Rel(r2, kB, kC) + " AND " +
                                      Rel(r, kA, kC)));
}

std::set<std::string> Composition(const std::string& r1,
                                  const std::string& r2) {
  std::set<std::string> out;
  for (const AllenRow& r : kAllen) {
    if (InComposition(Named(r1), Named(r2), r)) out.insert(r.name);
  }
  return out;
}

TEST(AllenQueryTest, CompositionTextbookEntries) {
  using Names = std::set<std::string>;
  EXPECT_EQ(Composition("before", "before"), Names{"before"});
  EXPECT_EQ(Composition("meets", "meets"), Names{"before"});
  EXPECT_EQ(Composition("during", "during"), Names{"during"});
  // equals is the identity of composition.
  for (const char* rel : {"overlaps", "during", "finishes"}) {
    EXPECT_EQ(Composition("equals", rel), Names{rel});
    EXPECT_EQ(Composition(rel, "equals"), Names{rel});
  }
}

// All 13 x 13 x 13 entries of Allen's composition table, each one closed
// statement, against brute force.  The table has 409 entries.
TEST(AllenQueryTest, WholeCompositionTableMatchesBruteForce) {
  int entries = 0;
  for (int i = 0; i < kNumAllen; ++i) {
    for (int j = 0; j < kNumAllen; ++j) {
      const std::set<int> expect = BruteCompose(kAllen[i], kAllen[j]);
      for (int r = 0; r < kNumAllen; ++r) {
        const bool in = InComposition(kAllen[i], kAllen[j], kAllen[r]);
        EXPECT_EQ(in, expect.contains(r))
            << kAllen[i].name << " ; " << kAllen[j].name << " has "
            << kAllen[r].name;
        entries += in ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(entries, 409);
}

// Two periodic interval relations A(S, E) and B(S, E), each interval of
// fixed length.
Database PeriodicIntervals(I a_start, I a_len, I a_period, I b_start,
                           I b_len, I b_period) {
  auto relation = [](const char* name, I start, I len, I period) {
    return "relation " + std::string(name) + "(S: time, E: time) { [" +
           std::to_string(start) + "+" + std::to_string(period) + "n, " +
           std::to_string(start + len) + "+" + std::to_string(period) +
           "n] : S = E - " + std::to_string(len) + "; }\n";
  };
  Result<Database> db =
      Database::FromText(relation("A", a_start, a_len, a_period) +
                         relation("B", b_start, b_len, b_period));
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

// The Allen join of A and B under `row` as one open query, read on the
// window [lo, hi], against brute-force enumeration of both relations on
// that window.
void ExpectJoinMatchesBruteForce(const Database& db, const AllenRow& row,
                                 I lo, I hi) {
  Result<GeneralizedRelation> joined = EvalQueryString(
      db, "A(s1, e1) AND B(s2, e2) AND " + Strict(kA) + " AND " + Strict(kB) +
              " AND " + Rel(row, kA, kB));
  ASSERT_TRUE(joined.ok()) << row.name << ": " << joined.status();
  std::set<std::vector<I>> expect;
  for (const ConcreteRow& a : db.Get("A").value().Enumerate(lo, hi)) {
    for (const ConcreteRow& b : db.Get("B").value().Enumerate(lo, hi)) {
      if (row.holds(a.temporal[0], a.temporal[1], b.temporal[0],
                    b.temporal[1])) {
        expect.insert({a.temporal[0], a.temporal[1], b.temporal[0],
                       b.temporal[1]});
      }
    }
  }
  EXPECT_EQ(EndpointRows(joined.value(), lo, hi), expect) << row.name;
}

TEST(AllenQueryTest, DuringOnPeriodicIntervals) {
  // Short intervals [2+8n, 4+8n] inside long ones [8m, 6+8m]: "during"
  // holds exactly when the phases align (n == m).
  const Database db = PeriodicIntervals(2, 2, 8, 0, 6, 8);
  Result<GeneralizedRelation> during = EvalQueryString(
      db, "A(s1, e1) AND B(s2, e2) AND " + Rel(Named("during"), kA, kB));
  ASSERT_TRUE(during.ok()) << during.status();
  const std::set<std::vector<I>> rows = EndpointRows(during.value(), -20, 20);
  EXPECT_TRUE(rows.contains({2, 4, 0, 6}));
  EXPECT_TRUE(rows.contains({10, 12, 8, 14}));
  EXPECT_FALSE(rows.contains({2, 4, 8, 14}));
  for (const AllenRow& row : kAllen) {
    ExpectJoinMatchesBruteForce(db, row, -20, 20);
  }
}

TEST(AllenQueryTest, SweepAllRelationsAgainstBruteForce) {
  const Database db = PeriodicIntervals(0, 3, 6, 1, 2, 4);
  for (const AllenRow& row : kAllen) {
    ExpectJoinMatchesBruteForce(db, row, -12, 12);
  }
}

}  // namespace
}  // namespace query
}  // namespace itdb
