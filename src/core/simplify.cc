#include "core/simplify.h"

#include <utility>
#include <vector>

#include "core/algebra.h"

namespace itdb {

Result<bool> TupleSubsumes(const GeneralizedTuple& big,
                           const GeneralizedTuple& small) {
  if (big.temporal_arity() != small.temporal_arity() ||
      big.data_arity() != small.data_arity()) {
    return Status::InvalidArgument("TupleSubsumes: arity mismatch");
  }
  Dbm small_closed = small.constraints();
  ITDB_RETURN_IF_ERROR(small_closed.Close());
  if (!small_closed.feasible()) return true;  // Empty set is subsumed by all.
  if (big.data() != small.data()) return false;
  for (int i = 0; i < big.temporal_arity(); ++i) {
    if (!big.lrp(i).Includes(small.lrp(i))) return false;
  }
  return small_closed.Implies(big.constraints());
}

Result<GeneralizedRelation> Simplify(const GeneralizedRelation& r) {
  // Pass 1: drop tuples with empty extensions (Theorem 3.5's exact test).
  std::vector<GeneralizedTuple> live;
  for (const GeneralizedTuple& t : r.tuples()) {
    ITDB_ASSIGN_OR_RETURN(bool empty, TupleIsEmpty(t));
    if (!empty) live.push_back(t);
  }
  // Pass 2: drop tuples subsumed by another surviving tuple.  Process in
  // order, preferring to keep earlier tuples; a tuple subsumed by an already
  // dropped tuple is re-tested against the keepers only, so mutual
  // subsumption (duplicates) keeps exactly one copy.
  std::vector<bool> dropped(live.size(), false);
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::size_t j = 0; j < live.size(); ++j) {
      if (i == j || dropped[j] || dropped[i]) continue;
      ITDB_ASSIGN_OR_RETURN(bool sub, TupleSubsumes(live[j], live[i]));
      if (sub) {
        // Keep the lexicographically earlier index on mutual subsumption.
        ITDB_ASSIGN_OR_RETURN(bool back, TupleSubsumes(live[i], live[j]));
        if (back && i < j) continue;
        dropped[i] = true;
        break;
      }
    }
  }
  GeneralizedRelation out(r.schema());
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!dropped[i]) ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(live[i])));
  }
  return out;
}

}  // namespace itdb
