// Point-based linear temporal logic over the infinite integer timeline,
// evaluated as first-order queries (Section 4).
//
// The paper's introduction observes that "model-checking is essentially a
// form of query evaluation on a special type of database".  This module
// makes that literal: atomic propositions are unary temporal relations of
// a Database, and each temporal operator is a fixed first-order definition
// over them (ToQuery), so the satisfaction set of any formula is the
// result of one query -- computed exactly, over all of Z, with no horizon,
// by the same pipeline (query/prepared.h) that answers `ask` and `query`.
//
// Operators (discrete time, both temporal directions) and their definition
// at the instant x (ALGORITHMS.md §6 has the full table):
//   Prop(p)                   p(x)
//   Not / And / Or            boolean structure
//   Next / Prev               the subformula at x + 1 / x - 1
//   Eventually / Always       EXISTS / FORALL u >= x        (F / G)
//   Once / Historically       EXISTS / FORALL u <= x        (O / H)
//   Until(a, b)               exists u >= x with b(u) and a on [x, u)
//   Since(a, b)               past mirror of Until
//   EventuallyWithin(a,l,h)   exists u in [x+l, x+h] with a(u)
//   AlwaysWithin(a,l,h)       for all  u in [x+l, x+h], a(u)

#ifndef ITDB_TL_LTL_H_
#define ITDB_TL_LTL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/relation.h"
#include "query/ast.h"
#include "query/eval.h"
#include "storage/database.h"
#include "util/status.h"

namespace itdb {
namespace tl {

class TlFormula;
using TlPtr = std::shared_ptr<const TlFormula>;

/// An immutable temporal-logic formula.
class TlFormula {
 public:
  enum class Kind {
    kProp,
    kNot,
    kAnd,
    kOr,
    kNext,
    kPrev,
    kEventually,
    kAlways,
    kOnce,
    kHistorically,
    kUntil,
    kSince,
    kEventuallyWithin,
    kAlwaysWithin,
  };

  static TlPtr Prop(std::string relation_name);
  static TlPtr Not(TlPtr a);
  static TlPtr And(TlPtr a, TlPtr b);
  static TlPtr Or(TlPtr a, TlPtr b);
  /// a -> b, sugar for (NOT a) OR b.
  static TlPtr Implies(TlPtr a, TlPtr b);
  static TlPtr Next(TlPtr a);
  static TlPtr Prev(TlPtr a);
  static TlPtr Eventually(TlPtr a);
  static TlPtr Always(TlPtr a);
  static TlPtr Once(TlPtr a);
  static TlPtr Historically(TlPtr a);
  static TlPtr Until(TlPtr a, TlPtr b);
  static TlPtr Since(TlPtr a, TlPtr b);
  /// Pre: lo <= hi.
  static TlPtr EventuallyWithin(TlPtr a, std::int64_t lo, std::int64_t hi);
  static TlPtr AlwaysWithin(TlPtr a, std::int64_t lo, std::int64_t hi);
  /// Derived: a W b == G a | (a U b)  (until with no obligation that b
  /// ever happens).
  static TlPtr WeakUntil(TlPtr a, TlPtr b);
  /// Derived: a R b == !( !a U !b )  (b holds up to and including the
  /// first a, or forever).
  static TlPtr Release(TlPtr a, TlPtr b);

  Kind kind() const { return kind_; }
  const std::string& prop() const { return prop_; }
  const TlPtr& left() const { return left_; }
  const TlPtr& right() const { return right_; }
  std::int64_t lo() const { return lo_; }
  std::int64_t hi() const { return hi_; }

  std::string ToString() const;

 protected:
  TlFormula() = default;

 private:
  friend struct TlBuilder;

  Kind kind_ = Kind::kProp;
  std::string prop_;
  TlPtr left_;
  TlPtr right_;
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
};

/// The first-order definition of `f` at `at` (a temporal variable with an
/// offset, or an integer constant).  Its only free variable is `at`'s; the
/// bound ones are t1, t2, ..., one per quantifier (sort inference rejects
/// shadowing).  kInvalidArgument on a bounded operator with lo > hi,
/// kOverflow when an offset leaves the 64-bit range.
Result<query::QueryPtr> ToQuery(const TlFormula& f, const query::Term& at);

/// OK when every atom of `q` names a relation of `db` with one temporal
/// column and no data column, as a proposition must; sort inference alone
/// would read a data column as a data-sorted instant.
Status CheckPropositions(const Database& db, const query::Query& q);

/// The satisfaction set {t in Z | t |= f}: the relation (column "T") of
/// ToQuery(f, T).
Result<GeneralizedRelation> SatisfactionSet(
    const Database& db, const TlPtr& f,
    const query::QueryOptions& options = {});

/// Whether the formula holds at the single instant t: ToQuery(f, t).
Result<bool> HoldsAt(const Database& db, const TlPtr& f, std::int64_t t,
                     const query::QueryOptions& options = {});

/// Whether the formula holds at every instant: FORALL T . ToQuery(f, T).
Result<bool> HoldsEverywhere(const Database& db, const TlPtr& f,
                             const query::QueryOptions& options = {});

}  // namespace tl
}  // namespace itdb

#endif  // ITDB_TL_LTL_H_
