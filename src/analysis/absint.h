// Abstract interpretation over the query AST: certified bounds.
//
// The analyzer's cost pass (cost.h) guesses: A010/A011 are heuristics with
// no soundness contract.  This module computes *certificates* -- sound
// upper bounds, per query node, in three abstract domains:
//
//   * period lattice: an lcm L such that every lrp period of the node's
//     result representation divides L.  Seeded from
//     RelationStats::period_lcm_rep (the representation-level lcm:
//     Complement picks its uniform period from every stored tuple,
//     feasible or not) and composed with saturating Lcm.  The root's L is
//     the lcm the A012 blowup warning reports: normalization can never
//     split beyond it.
//
//   * zone: the node's free temporal variables and a closed
//     difference-bound matrix over them (core/dbm.h; Konecny's DBM domain,
//     PAPERS.md) that every valuation in the node's denotation (the SET,
//     not the representation) satisfies.  It holds the paper's restricted
//     constraints X <= Y + a (Section 2.1), not only per-variable bounds.
//     An infeasible zone refutes the node at the set level; like any
//     set-level proof it must never drive a rewrite, because the evaluator
//     may still represent the empty set with infeasible tuples.
//
//   * cardinality: an upper bound on the number of generalized tuples in
//     the node's result REPRESENTATION, seeded from
//     RelationStats::tuple_count / normalized_rows and composed through
//     the algebra (join of n x m tuples yields at most n*m; a projection
//     that drops a temporal column splits each tuple at most L^(m-1)
//     ways, because the normalization factor prod(L_t/k_c) = L_t^j /
//     prod(k_c) is bounded by L_t^(j-1) when j >= 1 columns have nonzero
//     period -- the lcm divides the product).
//
// Soundness contract (machine-checked by the fuzz oracle's certificate
// axis, fuzz/query_oracle.h): for every query the evaluator completes,
// the actual result satisfies
//     tuples  <= Certificate::rows        (when rows is bounded)
//     every lrp period divides ::lcm      (when lcm is bounded)
//     every feasible valuation of the temporal columns lies in ::zone
// (the oracle checks the zone's unary bounds).
// nullopt rows/lcm mean "unbounded": the analysis could not certify a
// bound (complements put cardinality out of reach; lcm composition can
// overflow).  Unbounded certificates gate result-cache admission and
// drive the A017 diagnostic; bounded-but-huge ones drive A014.
//
// Two emptiness proofs fall out of one certificate.  rows == 0 is a
// bit-level proof: evaluation returns zero tuples, so it may drive
// rewrites and short-circuits (analyzer.h).  rows == 0 or an infeasible
// zone is a set-level proof (Certificate::ProvenEmpty).
//
// One interpreter serves a whole statement: the analyzer's pass 3 builds
// it over the parsed tree (analyzer.h), the planner interprets the
// optimized tree on the same instance and clamps its estimates with it
// (query/planner.h), and evaluation ranges data variables over its active
// domain (query/prepared.h).

#ifndef ITDB_ANALYSIS_ABSINT_H_
#define ITDB_ANALYSIS_ABSINT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/dbm.h"
#include "core/stats.h"
#include "query/ast.h"
#include "query/sorts.h"
#include "storage/database.h"

namespace itdb {
namespace analysis {

/// A zone: a closed difference-bound matrix over named temporal variables.
/// Every valuation of `vars` that the node's denotation contains satisfies
/// `dbm`; variables not listed are unconstrained.  An infeasible `dbm` is
/// bottom: the denotation is the empty set.
struct Zone {
  /// Sorted and distinct; vars[i] is DBM variable i.
  std::vector<std::string> vars;
  /// Closed (Dbm::Close), so its entries are the tightest bounds implied.
  Dbm dbm{0};

  /// No constraint over `vars`.
  static Zone Top(std::vector<std::string> vars);
  /// The empty set over `vars`.
  static Zone Bottom(std::vector<std::string> vars);

  bool refuted() const { return !dbm.feasible(); }
  /// The unary bounds of `var`: -Dbm::kInf / Dbm::kInf when it is
  /// unconstrained or not in `vars`, Dbm::kInf / -Dbm::kInf on bottom.
  std::int64_t Lower(const std::string& var) const;
  std::int64_t Upper(const std::string& var) const;

  friend bool operator==(const Zone& a, const Zone& b) = default;
};

/// Period-lcm budget: a certified lcm above this is reported as unbounded
/// (nullopt) rather than propagated.
inline constexpr std::int64_t kMaxCertifiedLcm = 1'000'000'000;

/// A sound bound triple for one query node.  nullopt = unbounded (top).
struct Certificate {
  /// Upper bound on generalized tuples in the result representation.
  std::optional<std::int64_t> rows;
  /// Every lrp period of the result representation divides this (>= 1).
  std::optional<std::int64_t> lcm;
  /// A zone over the node's free temporal variables.
  Zone zone;
  /// The denotation is provably every point over the node's free variables
  /// (data ones ranging over the active domain): the complement of a
  /// proven-empty node, kept by EXISTS over a temporal variable.
  bool universe = false;

  bool bounded() const { return rows.has_value() && lcm.has_value(); }
  /// The denotation is provably the empty SET: no tuples at all, or an
  /// infeasible zone (the representation may still hold infeasible
  /// tuples).
  bool ProvenEmpty() const { return rows == 0 || zone.refuted(); }
};

/// Compact rendering for explain/profile annotations:
///   "cert_rows=12, cert_lcm=6"   (with "unbounded" for nullopt), plus
///   ", cert_empty=set" when ProvenEmpty().
std::string FormatCertificate(const Certificate& c);

using CertificateMap = std::map<const query::Query*, Certificate>;

/// Bottom-up abstract interpreter over a query tree.  One instance is tied
/// to one Database snapshot + SortMap + active domain; Interpret() memoizes
/// per node (so trees that share subtrees share their certificates), and
/// the planner registers certificates for the nodes it rebuilds so the
/// planned tree is fully annotated.
class AbstractInterpreter {
 public:
  /// `sorts` must cover every variable of the queries interpreted (the
  /// analyzer's pass-1 output).  `stats_cache` may be null (statistics are
  /// then computed per relation per instance).  The active domain is
  /// seeded lazily from the first Interpret() argument unless
  /// SeedActiveDomain was called; seed with the ORIGINAL query when
  /// interpreting a rewritten tree, since the evaluator's data universes
  /// come from the original constants.
  AbstractInterpreter(const Database& db, query::SortMap sorts,
                      StatsCache* stats_cache = nullptr);

  AbstractInterpreter(const AbstractInterpreter&) = delete;
  AbstractInterpreter& operator=(const AbstractInterpreter&) = delete;

  /// Computes the evaluator's active domain (all data values in `db` plus
  /// the constants of `q`; query::ComputeActiveDomain), fixing it for this
  /// instance.
  void SeedActiveDomain(const query::Query& q);

  /// Interprets the tree rooted at `q`, memoizing a Certificate for every
  /// node, and returns the root's.
  const Certificate& Interpret(const query::QueryPtr& q);

  /// The memoized certificate of `q`, or null if never interpreted.
  const Certificate* Find(const query::Query* q) const;

  /// Attaches a certificate to a node the planner rebuilt (same semantics
  /// as an interpreted node, new identity).
  void Register(const query::Query* q, Certificate cert);

  /// The certificate algebra for conjunction, exposed so the planner can
  /// certify the AND nodes it builds while reordering chains.
  Certificate Conjoin(const Certificate& l, const Certificate& r) const;

  const CertificateMap& certificates() const { return certs_; }

  /// The seeded active domain (empty before seeding).
  const query::ActiveDomain& active_domain() const { return adom_; }
  /// Active-domain size for a data sort (0 before seeding).
  std::int64_t domain_size(query::Sort sort) const;

 private:
  /// The memoized certificate of `q`, interpreting it first if needed.
  const Certificate& Node(const query::Query& q);
  Certificate AtomCert(const query::Query& q);
  Certificate CmpCert(const query::Query& q);
  Certificate DisjoinCert(const query::Query& q, const Certificate& l,
                          const Certificate& r) const;
  Certificate ComplementCert(const Certificate& child) const;
  Certificate ExistsCert(const query::Query& q,
                         const Certificate& child) const;
  /// nullopt when the lcm exceeds kMaxCertifiedLcm (treated as top).
  std::optional<std::int64_t> CapLcm(std::optional<std::int64_t> l) const;
  RelationStats StatsFor(const std::string& name,
                         const GeneralizedRelation& rel) const;
  bool IsTemporal(const std::string& var) const;
  /// Product of active-domain sizes of the data variables in `vars` that
  /// are missing from `present`; nullopt on overflow or unknown sort.
  std::optional<std::int64_t> MissingDataFactor(
      const std::vector<std::string>& vars,
      const std::vector<std::string>& present) const;

  const Database& db_;
  query::SortMap sorts_;
  StatsCache* stats_cache_;
  bool domain_seeded_ = false;
  query::ActiveDomain adom_;
  CertificateMap certs_;
};

}  // namespace analysis
}  // namespace itdb

#endif  // ITDB_ANALYSIS_ABSINT_H_
