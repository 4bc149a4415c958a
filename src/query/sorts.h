// Sort inference for query variables.
//
// The query language is two-sorted (Section 4): temporal variables range
// over Z, data variables over the generic sort D.  The surface syntax does
// not annotate variables, so sorts are inferred:
//   * an argument position of a relation atom dictates the sort (and data
//     type) of the variable appearing there;
//   * order comparisons (<=, <, >=, >) and successor offsets force the
//     temporal sort;
//   * comparison against a string constant forces the string data sort;
//   * comparison against an integer constant forces the temporal sort
//     (write the value into a relation to compare data integers);
//   * = / != propagate sorts between their operands.
// Inference iterates to a fixpoint; inconsistent or undetermined variables
// are errors.
//
// Two entry points share one implementation: InferSorts (legacy, stops at
// the first problem and returns it as a Status) and InferSortsDiagnosed
// (collects every problem as a coded Diagnostic with a source span -- the
// front end of the static analyzer, src/analysis).
//
// The data sort's range is defined here too: ComputeActiveDomain is the
// one scan of a statement's active domain, shared by the abstract
// interpreter (analysis/absint.h) and evaluation (query/prepared.h).

#ifndef ITDB_QUERY_SORTS_H_
#define ITDB_QUERY_SORTS_H_

#include <map>
#include <string>
#include <vector>

#include "core/schema.h"
#include "core/value.h"
#include "query/ast.h"
#include "storage/database.h"
#include "util/diagnostic.h"
#include "util/status.h"

namespace itdb {
namespace query {

enum class Sort {
  kTime,
  kDataString,
  kDataInt,
};

/// Variable name -> inferred sort, for every variable in the query
/// (quantified variable names must be distinct from each other and from the
/// free variables; shadowing is rejected).
using SortMap = std::map<std::string, Sort>;

/// Infers the sort of every variable of `q` against the relation schemas in
/// `db`.  Fails on: unknown relations, arity mismatches, inconsistent sort
/// usage, undetermined variables, and variable shadowing.
Result<SortMap> InferSorts(const Database& db, const QueryPtr& q);

struct SortDiagnostics {
  /// Best-effort map: every variable whose sort could be determined, even
  /// when other variables produced diagnostics.
  SortMap sorts;
  /// Coded findings (diag::kUnknownRelation .. diag::kMixedSortComparison),
  /// in source order per pass.  Use HasErrors() to gate on validity.
  std::vector<Diagnostic> diagnostics;
  /// First source span seen for each variable (for follow-up diagnostics).
  std::map<std::string, SourceSpan> var_spans;
  /// Variables bound by a quantifier.
  std::vector<std::string> quantified;
};

/// Collecting variant of InferSorts.  With `strict_unused_quantified` a
/// quantified variable that is never used still yields A006 (exactly the
/// legacy behavior); the analyzer passes false and reports such variables
/// as A013 vacuous-quantifier warnings instead.
SortDiagnostics InferSortsDiagnosed(const Database& db, const QueryPtr& q,
                                    bool strict_unused_quantified = true);

/// The active domain of the generic sort, split by type: every data value
/// stored in the database plus the constants of the query (Section 4's
/// safe interpretation of data variables and quantifiers).  Each list is
/// sorted and duplicate-free.
struct ActiveDomain {
  std::vector<Value> strings;
  std::vector<Value> ints;

  const std::vector<Value>& OfType(DataType type) const {
    return type == DataType::kString ? strings : ints;
  }
};

/// Scans `db`'s data values and collects `q`'s constants (atom string
/// constants, data-position integer constants and comparison string
/// constants).  Seed it with the
/// ORIGINAL query of a statement: constants of a branch the analyzer's
/// rewrites eliminated still belong to the domain.
ActiveDomain ComputeActiveDomain(const Database& db, const Query& q);

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_SORTS_H_
