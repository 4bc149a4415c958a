// Parser for the textual query syntax.
//
// Grammar (precedence low to high; keywords accepted in UPPER or lower
// case):
//
//   query  := impl
//   impl   := or ("->" impl)?                      (right associative)
//   or     := and ("OR" and)*
//   and    := unary ("AND" unary)*
//   unary  := "NOT" unary
//           | "EXISTS" VAR "." impl    (quantifier scope extends maximally)
//           | "FORALL" VAR "." impl    (sugar: NOT EXISTS VAR . NOT impl)
//           | primary
//   primary:= "(" query ")" | NAME "(" terms ")" | chain
//   chain  := term (OP term)+                      (comparison chains:
//                                                   "t1 <= t2 <= t3" means
//                                                   t1 <= t2 AND t2 <= t3)
//   term   := VAR (("+"|"-") INT)? | INT | "-" INT | STRING
//   OP     := "<=" | "<" | ">=" | ">" | "=" | "!="
//
// Example (Example 4.1 of the paper):
//
//   EXISTS x . EXISTS y . EXISTS t1 . EXISTS t2 .
//     FORALL t3 . FORALL t4 . FORALL z .
//       (Perform(t1, t2, x, "task2") AND t1 <= t3 <= t4 <= t2
//          AND t1 + 5 <= t2)
//       -> NOT Perform(t3, t4, y, z)

#ifndef ITDB_QUERY_PARSER_H_
#define ITDB_QUERY_PARSER_H_

#include <string_view>

#include "query/ast.h"
#include "util/status.h"

namespace itdb {
namespace query {

/// Parses one query.  Fails with kParseError on malformed input.
Result<QueryPtr> ParseQuery(std::string_view text);

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_PARSER_H_
