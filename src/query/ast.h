// Abstract syntax of the two-sorted first-order query language (Section 4).
//
// The language has a temporal sort (interpreted over Z, with the successor
// function and the interpreted predicate <=) and a generic data sort.
// Uninterpreted predicates are the named relations of a Database.  Full
// boolean structure and quantification over both sorts are allowed;
// evaluation compiles to the closed relational algebra of Section 3.

#ifndef ITDB_QUERY_AST_H_
#define ITDB_QUERY_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cmp.h"
#include "core/value.h"
#include "util/source_span.h"

namespace itdb {
namespace query {

/// A term: a variable (with an optional successor offset, "t + 3"), an
/// integer constant, or a string constant.
struct Term {
  enum class Kind { kVariable, kInt, kString };

  Kind kind = Kind::kInt;
  std::string var;          // kVariable: the variable name.
  std::int64_t number = 0;  // kVariable: offset; kInt: the constant.
  std::string text;         // kString: the constant.

  static Term Variable(std::string name, std::int64_t offset = 0) {
    Term t;
    t.kind = Kind::kVariable;
    t.var = std::move(name);
    t.number = offset;
    return t;
  }
  static Term Int(std::int64_t v) {
    Term t;
    t.kind = Kind::kInt;
    t.number = v;
    return t;
  }
  static Term String(std::string s) {
    Term t;
    t.kind = Kind::kString;
    t.text = std::move(s);
    return t;
  }

  std::string ToString() const;

  friend bool operator==(const Term& a, const Term& b) = default;
};

class Query;
using QueryPtr = std::shared_ptr<const Query>;

/// An immutable query tree.
class Query {
 public:
  enum class Kind {
    kAtom,    // relation(args...)
    kCmp,     // term op term (<, <=, >, >= on the temporal sort only)
    kAnd,
    kOr,
    kNot,
    kExists,  // one quantified variable (sort inferred)
  };

  static QueryPtr Atom(std::string relation, std::vector<Term> args);
  static QueryPtr Compare(Term lhs, CmpOp op, Term rhs);
  static QueryPtr And(QueryPtr a, QueryPtr b);
  static QueryPtr Or(QueryPtr a, QueryPtr b);
  static QueryPtr Not(QueryPtr a);
  /// a -> b, sugar for (NOT a) OR b.
  static QueryPtr Implies(QueryPtr a, QueryPtr b);
  static QueryPtr Exists(std::string var, QueryPtr body);
  /// FORALL var . body, sugar for NOT EXISTS var . NOT body (Section 4).
  static QueryPtr Forall(std::string var, QueryPtr body);

  Kind kind() const { return kind_; }
  const std::string& relation() const { return relation_; }
  const std::vector<Term>& args() const { return args_; }
  const Term& lhs() const { return lhs_; }
  const Term& rhs() const { return rhs_; }
  CmpOp cmp() const { return cmp_; }
  const QueryPtr& left() const { return left_; }
  const QueryPtr& right() const { return right_; }
  const std::string& quantified_var() const { return relation_; }

  /// Source span of the node (unknown for programmatically built trees).
  const SourceSpan& span() const { return span_; }
  /// Span of one term: for kAtom, index into args(); for kCmp, 0 = lhs and
  /// 1 = rhs.  Falls back to the node span when the parser recorded none.
  const SourceSpan& TermSpan(std::size_t i) const {
    return i < term_spans_.size() && term_spans_[i].known() ? term_spans_[i]
                                                           : span_;
  }

  /// Attaches source locations to a freshly parsed node.  Parser-only: the
  /// tree is otherwise immutable, and spans are metadata (they never affect
  /// evaluation or equality).
  static void SetSpans(const QueryPtr& q, SourceSpan span,
                       std::vector<SourceSpan> term_spans = {});

  /// Free variables, sorted by name.
  std::vector<std::string> FreeVariables() const;

  std::string ToString() const;

 protected:
  Query() = default;

 private:
  friend struct QueryBuilder;

  Kind kind_ = Kind::kAtom;
  std::string relation_;      // kAtom: name; kExists: variable.
  std::vector<Term> args_;    // kAtom.
  Term lhs_;                  // kCmp.
  Term rhs_;                  // kCmp.
  CmpOp cmp_ = CmpOp::kEq;
  QueryPtr left_;
  QueryPtr right_;
  SourceSpan span_;                     // Unknown unless parsed from text.
  std::vector<SourceSpan> term_spans_;  // kAtom: per arg; kCmp: lhs, rhs.
};

/// The formula a yes/no statement tests for emptiness (query/prepared.h).
struct PeeledBody {
  QueryPtr body;
  /// The statement holds iff the body is empty (else: iff it is nonempty).
  bool holds_when_empty = false;
};

/// Peels the quantifier prefix of a closed formula: an optional leading NOT
/// directly over an EXISTS sets holds_when_empty, then EXISTS nodes are
/// stripped, a NOT NOT directly above an EXISTS being transparent.  So
/// `EXISTS x1 ... xk . phi` peels to phi and holds iff phi is nonempty;
/// `FORALL x1 ... xk . phi` peels to the subtree NOT phi, and `NOT EXISTS
/// x . psi` to psi, each holding iff its body is empty.  Any other root is
/// its own body.  The body is a subtree of `q`.
PeeledBody PeelQuantifierPrefix(QueryPtr q);

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_AST_H_
