#include "query/ast.h"

#include <algorithm>
#include <set>

namespace itdb {
namespace query {

std::string Term::ToString() const {
  switch (kind) {
    case Kind::kVariable:
      if (number == 0) return var;
      if (number > 0) return var + " + " + std::to_string(number);
      return var + " - " + std::to_string(-number);
    case Kind::kInt:
      return std::to_string(number);
    case Kind::kString:
      return "\"" + text + "\"";
  }
  return "?";
}

struct QueryBuilder : Query {
  using Query::Query;
  Kind& kind() { return kind_; }
  std::string& relation() { return relation_; }
  std::vector<Term>& args() { return args_; }
  Term& lhs() { return lhs_; }
  Term& rhs() { return rhs_; }
  CmpOp& cmp() { return cmp_; }
  QueryPtr& left() { return left_; }
  QueryPtr& right() { return right_; }
  SourceSpan& span() { return span_; }
  std::vector<SourceSpan>& term_spans() { return term_spans_; }
};

namespace {

std::shared_ptr<QueryBuilder> NewNode(Query::Kind kind) {
  auto node = std::make_shared<QueryBuilder>();
  node->kind() = kind;
  return node;
}

void CollectFree(const Query& q, std::set<std::string>& bound,
                 std::set<std::string>& free) {
  switch (q.kind()) {
    case Query::Kind::kAtom:
      for (const Term& t : q.args()) {
        if (t.kind == Term::Kind::kVariable && !bound.contains(t.var)) {
          free.insert(t.var);
        }
      }
      break;
    case Query::Kind::kCmp:
      for (const Term* t : {&q.lhs(), &q.rhs()}) {
        if (t->kind == Term::Kind::kVariable && !bound.contains(t->var)) {
          free.insert(t->var);
        }
      }
      break;
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      CollectFree(*q.left(), bound, free);
      CollectFree(*q.right(), bound, free);
      break;
    case Query::Kind::kNot:
      CollectFree(*q.left(), bound, free);
      break;
    case Query::Kind::kExists: {
      bool inserted = bound.insert(q.quantified_var()).second;
      CollectFree(*q.left(), bound, free);
      if (inserted) bound.erase(q.quantified_var());
      break;
    }
  }
}

}  // namespace

void Query::SetSpans(const QueryPtr& q, SourceSpan span,
                     std::vector<SourceSpan> term_spans) {
  // Safe: the parser calls this on nodes it just created and still uniquely
  // owns; spans are pure metadata for diagnostics.
  auto* node =
      static_cast<QueryBuilder*>(const_cast<Query*>(q.get()));  // NOLINT
  node->span() = span;
  node->term_spans() = std::move(term_spans);
}

QueryPtr Query::Atom(std::string relation, std::vector<Term> args) {
  auto node = NewNode(Kind::kAtom);
  node->relation() = std::move(relation);
  node->args() = std::move(args);
  return node;
}

QueryPtr Query::Compare(Term lhs, CmpOp op, Term rhs) {
  auto node = NewNode(Kind::kCmp);
  node->lhs() = std::move(lhs);
  node->rhs() = std::move(rhs);
  node->cmp() = op;
  return node;
}

QueryPtr Query::And(QueryPtr a, QueryPtr b) {
  auto node = NewNode(Kind::kAnd);
  node->left() = std::move(a);
  node->right() = std::move(b);
  return node;
}

QueryPtr Query::Or(QueryPtr a, QueryPtr b) {
  auto node = NewNode(Kind::kOr);
  node->left() = std::move(a);
  node->right() = std::move(b);
  return node;
}

QueryPtr Query::Not(QueryPtr a) {
  auto node = NewNode(Kind::kNot);
  node->left() = std::move(a);
  return node;
}

QueryPtr Query::Implies(QueryPtr a, QueryPtr b) {
  return Or(Not(std::move(a)), std::move(b));
}

QueryPtr Query::Exists(std::string var, QueryPtr body) {
  auto node = NewNode(Kind::kExists);
  node->relation() = std::move(var);
  node->left() = std::move(body);
  return node;
}

QueryPtr Query::Forall(std::string var, QueryPtr body) {
  return Not(Exists(std::move(var), Not(std::move(body))));
}

PeeledBody PeelQuantifierPrefix(QueryPtr q) {
  auto not_over_exists = [](const QueryPtr& n) {
    return n->kind() == Query::Kind::kNot &&
           n->left()->kind() == Query::Kind::kExists;
  };
  PeeledBody out;
  out.holds_when_empty = not_over_exists(q);
  if (out.holds_when_empty) q = q->left();
  while (true) {
    if (q->kind() == Query::Kind::kExists) {
      q = q->left();
    } else if (q->kind() == Query::Kind::kNot && not_over_exists(q->left())) {
      q = q->left()->left();
    } else {
      break;
    }
  }
  out.body = std::move(q);
  return out;
}

std::vector<std::string> Query::FreeVariables() const {
  std::set<std::string> bound;
  std::set<std::string> free;
  CollectFree(*this, bound, free);
  return std::vector<std::string>(free.begin(), free.end());
}

std::string Query::ToString() const {
  switch (kind_) {
    case Kind::kAtom: {
      std::string out = relation_ + "(";
      for (std::size_t i = 0; i < args_.size(); ++i) {
        if (i > 0) out += ", ";
        out += args_[i].ToString();
      }
      return out + ")";
    }
    case Kind::kCmp: {
      return lhs_.ToString() + " " + std::string(CmpOpSymbol(cmp_)) + " " +
             rhs_.ToString();
    }
    case Kind::kAnd:
      return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
    case Kind::kNot:
      return "NOT (" + left_->ToString() + ")";
    case Kind::kExists:
      return "EXISTS " + relation_ + " . (" + left_->ToString() + ")";
  }
  return "?";
}

}  // namespace query
}  // namespace itdb
