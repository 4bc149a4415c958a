// The verbatim Section 3.4 projection, the reference that Project's exact
// elimination of free and pinned columns and its normalization of one
// constraint-graph part at a time are compared against (tests) and
// measured against (bench_table2_projection).
//
// Every tuple is normalized as a whole to its common period (Theorem 3.2),
// the dropped columns are eliminated in n-space, where Theorem 3.1 makes
// real elimination exact, and the kept columns are rebuilt in the requested
// order.  No column is spared the k^m split.

#ifndef ITDB_TESTS_COMMON_REFERENCE_PROJECTION_H_
#define ITDB_TESTS_COMMON_REFERENCE_PROJECTION_H_

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/normalize.h"
#include "core/relation.h"
#include "util/status.h"

namespace itdb {
namespace testing_util {

/// Projects a purely temporal relation onto the named columns, in order.
inline Result<GeneralizedRelation> ReferenceProject(
    const GeneralizedRelation& r, const std::vector<std::string>& attrs,
    const NormalizeOptions& options = {}) {
  std::vector<int> keep;
  for (const std::string& name : attrs) {
    std::optional<int> c = r.schema().FindTemporal(name);
    if (!c.has_value()) {
      return Status::NotFound("ReferenceProject: no temporal column " + name);
    }
    keep.push_back(*c);
  }
  GeneralizedRelation out(Schema(attrs, {}, {}));
  for (const GeneralizedTuple& t : r.tuples()) {
    ITDB_ASSIGN_OR_RETURN(std::vector<GeneralizedTuple> normal,
                          NormalizeTuple(t, options));
    for (const GeneralizedTuple& nt : normal) {
      ITDB_ASSIGN_OR_RETURN(NSpaceTuple ns, NSpaceTuple::Build(nt));
      for (int c = 0; c < t.temporal_arity(); ++c) {
        if (std::find(keep.begin(), keep.end(), c) == keep.end()) {
          ITDB_RETURN_IF_ERROR(ns.EliminateColumn(c));
        }
      }
      ITDB_ASSIGN_OR_RETURN(GeneralizedTuple projected, ns.Rebuild(keep, {}));
      ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(projected)));
    }
  }
  return out;
}

}  // namespace testing_util
}  // namespace itdb

#endif  // ITDB_TESTS_COMMON_REFERENCE_PROJECTION_H_
