#include "tl/ltl.h"

#include <string>
#include <utility>

#include "util/numeric.h"

namespace itdb {
namespace tl {

struct TlBuilder : TlFormula {
  using TlFormula::TlFormula;
  Kind& kind() { return kind_; }
  std::string& prop() { return prop_; }
  TlPtr& left() { return left_; }
  TlPtr& right() { return right_; }
  std::int64_t& lo() { return lo_; }
  std::int64_t& hi() { return hi_; }
};

namespace {

std::shared_ptr<TlBuilder> NewNode(TlFormula::Kind kind) {
  auto node = std::make_shared<TlBuilder>();
  node->kind() = kind;
  return node;
}

std::shared_ptr<TlBuilder> Unary(TlFormula::Kind kind, TlPtr a) {
  auto node = NewNode(kind);
  node->left() = std::move(a);
  return node;
}

std::shared_ptr<TlBuilder> Binary(TlFormula::Kind kind, TlPtr a, TlPtr b) {
  auto node = NewNode(kind);
  node->left() = std::move(a);
  node->right() = std::move(b);
  return node;
}

}  // namespace

TlPtr TlFormula::Prop(std::string relation_name) {
  auto node = NewNode(Kind::kProp);
  node->prop() = std::move(relation_name);
  return node;
}
TlPtr TlFormula::Not(TlPtr a) { return Unary(Kind::kNot, std::move(a)); }
TlPtr TlFormula::And(TlPtr a, TlPtr b) {
  return Binary(Kind::kAnd, std::move(a), std::move(b));
}
TlPtr TlFormula::Or(TlPtr a, TlPtr b) {
  return Binary(Kind::kOr, std::move(a), std::move(b));
}
TlPtr TlFormula::Implies(TlPtr a, TlPtr b) {
  return Or(Not(std::move(a)), std::move(b));
}
TlPtr TlFormula::Next(TlPtr a) { return Unary(Kind::kNext, std::move(a)); }
TlPtr TlFormula::Prev(TlPtr a) { return Unary(Kind::kPrev, std::move(a)); }
TlPtr TlFormula::Eventually(TlPtr a) {
  return Unary(Kind::kEventually, std::move(a));
}
TlPtr TlFormula::Always(TlPtr a) { return Unary(Kind::kAlways, std::move(a)); }
TlPtr TlFormula::Once(TlPtr a) { return Unary(Kind::kOnce, std::move(a)); }
TlPtr TlFormula::Historically(TlPtr a) {
  return Unary(Kind::kHistorically, std::move(a));
}
TlPtr TlFormula::Until(TlPtr a, TlPtr b) {
  return Binary(Kind::kUntil, std::move(a), std::move(b));
}
TlPtr TlFormula::Since(TlPtr a, TlPtr b) {
  return Binary(Kind::kSince, std::move(a), std::move(b));
}
TlPtr TlFormula::EventuallyWithin(TlPtr a, std::int64_t lo, std::int64_t hi) {
  auto node = Unary(Kind::kEventuallyWithin, std::move(a));
  node->lo() = lo;
  node->hi() = hi;
  return node;
}
TlPtr TlFormula::AlwaysWithin(TlPtr a, std::int64_t lo, std::int64_t hi) {
  auto node = Unary(Kind::kAlwaysWithin, std::move(a));
  node->lo() = lo;
  node->hi() = hi;
  return node;
}
TlPtr TlFormula::WeakUntil(TlPtr a, TlPtr b) {
  TlPtr always_a = Always(a);
  return Or(std::move(always_a), Until(std::move(a), std::move(b)));
}
TlPtr TlFormula::Release(TlPtr a, TlPtr b) {
  return Not(Until(Not(std::move(a)), Not(std::move(b))));
}

std::string TlFormula::ToString() const {
  switch (kind_) {
    case Kind::kProp:
      return prop_;
    case Kind::kNot:
      return "!(" + left_->ToString() + ")";
    case Kind::kAnd:
      return "(" + left_->ToString() + " & " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " | " + right_->ToString() + ")";
    case Kind::kNext:
      return "X(" + left_->ToString() + ")";
    case Kind::kPrev:
      return "Y(" + left_->ToString() + ")";
    case Kind::kEventually:
      return "F(" + left_->ToString() + ")";
    case Kind::kAlways:
      return "G(" + left_->ToString() + ")";
    case Kind::kOnce:
      return "P(" + left_->ToString() + ")";
    case Kind::kHistorically:
      return "H(" + left_->ToString() + ")";
    case Kind::kUntil:
      return "(" + left_->ToString() + " U " + right_->ToString() + ")";
    case Kind::kSince:
      return "(" + left_->ToString() + " S " + right_->ToString() + ")";
    case Kind::kEventuallyWithin:
      return "F[" + std::to_string(lo_) + "," + std::to_string(hi_) + "](" +
             left_->ToString() + ")";
    case Kind::kAlwaysWithin:
      return "G[" + std::to_string(lo_) + "," + std::to_string(hi_) + "](" +
             left_->ToString() + ")";
  }
  return "?";
}

namespace {

using query::Query;
using query::QueryPtr;
using query::Term;
using Kind = TlFormula::Kind;

QueryPtr Le(const Term& a, const Term& b) {
  return Query::Compare(a, CmpOp::kLe, b);
}

/// One ToQuery call: bound variables are t1, t2, ... from a counter,
/// skipping the free variable's name.
struct Translator {
  std::string free;
  int next = 0;

  // EXISTS u . range(u) AND a(u), or FORALL u . range(u) -> a(u).
  template <typename Range>
  Result<QueryPtr> Quantify(bool forall, const TlFormula& a,
                            const Range& range) {
    Term u = Fresh();
    ITDB_ASSIGN_OR_RETURN(QueryPtr body, At(a, u));
    return forall ? Query::Forall(u.var, Query::Implies(range(u), body))
                  : Query::Exists(u.var, Query::And(range(u), body));
  }

  Term Fresh() {
    std::string name;
    do {
      name = "t" + std::to_string(++next);
    } while (name == free);
    return Term::Variable(std::move(name));
  }

  Result<QueryPtr> At(const TlFormula& f, const Term& x) {
    switch (f.kind()) {
      case Kind::kProp:
        return Query::Atom(f.prop(), {x});
      case Kind::kNot: {
        ITDB_ASSIGN_OR_RETURN(QueryPtr a, At(*f.left(), x));
        return Query::Not(std::move(a));
      }
      case Kind::kAnd:
      case Kind::kOr: {
        ITDB_ASSIGN_OR_RETURN(QueryPtr a, At(*f.left(), x));
        ITDB_ASSIGN_OR_RETURN(QueryPtr b, At(*f.right(), x));
        return f.kind() == Kind::kAnd ? Query::And(a, b) : Query::Or(a, b);
      }
      case Kind::kNext:
      case Kind::kPrev: {
        Term shifted = x;
        ITDB_ASSIGN_OR_RETURN(
            shifted.number,
            CheckedAdd(x.number, f.kind() == Kind::kNext ? 1 : -1));
        return At(*f.left(), shifted);
      }
      case Kind::kEventually:
      case Kind::kAlways:
        return Quantify(f.kind() == Kind::kAlways, *f.left(),
                        [&](const Term& u) { return Le(x, u); });
      case Kind::kOnce:
      case Kind::kHistorically:
        return Quantify(f.kind() == Kind::kHistorically, *f.left(),
                        [&](const Term& u) { return Le(u, x); });
      case Kind::kEventuallyWithin:
      case Kind::kAlwaysWithin: {
        const bool always = f.kind() == Kind::kAlwaysWithin;
        if (f.lo() > f.hi()) {
          return Status::InvalidArgument(
              std::string(always ? "AlwaysWithin" : "EventuallyWithin") +
              ": lo > hi");
        }
        Term lo = x;
        Term hi = x;
        ITDB_ASSIGN_OR_RETURN(lo.number, CheckedAdd(x.number, f.lo()));
        ITDB_ASSIGN_OR_RETURN(hi.number, CheckedAdd(x.number, f.hi()));
        return Quantify(always, *f.left(), [&](const Term& u) {
          return Query::And(Le(lo, u), Le(u, hi));
        });
      }
      case Kind::kUntil:
      case Kind::kSince: {
        // a U b: EXISTS u . x <= u AND b(u) AND
        //          FORALL v . (x <= v AND v < u) -> a(v); S mirrors it.
        const bool past = f.kind() == Kind::kSince;
        Term u = Fresh();
        ITDB_ASSIGN_OR_RETURN(QueryPtr b, At(*f.right(), u));
        ITDB_ASSIGN_OR_RETURN(
            QueryPtr waiting, Quantify(true, *f.left(), [&](const Term& v) {
              return past ? Query::And(Query::Compare(u, CmpOp::kLt, v),
                                       Le(v, x))
                          : Query::And(Le(x, v),
                                       Query::Compare(v, CmpOp::kLt, u));
            }));
        return Query::Exists(
            u.var, Query::And(Query::And(past ? Le(u, x) : Le(x, u), b),
                              waiting));
      }
    }
    return Status::InvalidArgument("unreachable formula kind");
  }
};

// The variable every satisfaction set is defined over, and so its column.
constexpr const char* kInstant = "T";

}  // namespace

Result<query::QueryPtr> ToQuery(const TlFormula& f, const query::Term& at) {
  Translator translator{at.kind == Term::Kind::kVariable ? at.var : ""};
  return translator.At(f, at);
}

Status CheckPropositions(const Database& db, const query::Query& q) {
  if (q.kind() == Query::Kind::kAtom) {
    ITDB_ASSIGN_OR_RETURN(GeneralizedRelation rel, db.Get(q.relation()));
    if (rel.schema().temporal_arity() != 1 || rel.schema().data_arity() != 0) {
      return Status::InvalidArgument(
          "proposition \"" + q.relation() +
          "\" must be a purely temporal unary relation");
    }
  }
  for (const QueryPtr& child : {q.left(), q.right()}) {
    if (child != nullptr) ITDB_RETURN_IF_ERROR(CheckPropositions(db, *child));
  }
  return Status::Ok();
}

Result<GeneralizedRelation> SatisfactionSet(const Database& db, const TlPtr& f,
                                            const query::QueryOptions& options) {
  ITDB_ASSIGN_OR_RETURN(QueryPtr q, ToQuery(*f, Term::Variable(kInstant)));
  ITDB_RETURN_IF_ERROR(CheckPropositions(db, *q));
  return query::EvalQuery(db, q, options);
}

Result<bool> HoldsAt(const Database& db, const TlPtr& f, std::int64_t t,
                     const query::QueryOptions& options) {
  ITDB_ASSIGN_OR_RETURN(QueryPtr q, ToQuery(*f, Term::Int(t)));
  ITDB_RETURN_IF_ERROR(CheckPropositions(db, *q));
  return query::EvalBooleanQuery(db, q, options);
}

Result<bool> HoldsEverywhere(const Database& db, const TlPtr& f,
                             const query::QueryOptions& options) {
  ITDB_ASSIGN_OR_RETURN(QueryPtr q, ToQuery(*f, Term::Variable(kInstant)));
  ITDB_RETURN_IF_ERROR(CheckPropositions(db, *q));
  return query::EvalBooleanQuery(db, Query::Forall(kInstant, q), options);
}

}  // namespace tl
}  // namespace itdb
