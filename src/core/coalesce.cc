#include "core/coalesce.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace itdb {

namespace {

/// Canonical signature of everything in a tuple EXCEPT column `col`'s lrp:
/// data values, the other lrps, the closed constraint matrix, and the
/// period of column `col` (families must share it).  Tuples with equal
/// signatures differ at most in column `col`'s offset.
Result<std::string> SignatureWithoutOffset(const GeneralizedTuple& t,
                                           int col) {
  std::string key;
  for (int i = 0; i < t.temporal_arity(); ++i) {
    key += i == col ? "@" : t.lrp(i).ToString();
    key += "|";
  }
  key += std::to_string(t.lrp(col).period());
  key += "#";
  for (const Value& v : t.data()) {
    key += v.ToString();
    key += "|";
  }
  Dbm closed = t.constraints();
  ITDB_RETURN_IF_ERROR(closed.Close());
  if (!closed.feasible()) return std::string();  // Empty tuple: droppable.
  key += "#";
  int n = closed.num_vars() + 1;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      key += std::to_string(closed.bound_node(p, q));
      key += ",";
    }
  }
  return key;
}

}  // namespace

Result<GeneralizedRelation> CoalesceResidues(const GeneralizedRelation& r) {
  const int m = r.schema().temporal_arity();
  std::vector<GeneralizedTuple> tuples;
  // Drop tuples with contradictory constraints up front (their extension is
  // empty, so removal preserves the set) and deduplicate exact copies.
  {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < r.tuples().size(); ++i) {
      ITDB_RETURN_IF_ERROR(CheckCancellationAt(static_cast<std::int64_t>(i)));
      const GeneralizedTuple& t = r.tuples()[i];
      Dbm closed = t.constraints();
      ITDB_RETURN_IF_ERROR(closed.Close());
      if (closed.feasible() && seen.insert(t.ToString()).second) {
        tuples.push_back(t);
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int col = 0; col < m && !changed; ++col) {
      // Families keyed by everything but this column's offset, each
      // member list in tuple order.
      std::map<std::string, std::vector<std::size_t>> families;
      for (std::size_t i = 0; i < tuples.size(); ++i) {
        ITDB_RETURN_IF_ERROR(
            CheckCancellationAt(static_cast<std::int64_t>(i)));
        if (tuples[i].lrp(col).period() == 0) continue;
        ITDB_ASSIGN_OR_RETURN(std::string key,
                              SignatureWithoutOffset(tuples[i], col));
        if (key.empty()) continue;
        families[std::move(key)].push_back(i);
      }
      for (const auto& [key, members] : families) {
        // A merge rewrites `tuples`, invalidating every index in
        // `families`: restart the scan from the top.
        if (changed) break;
        if (members.size() < 2) continue;
        const std::int64_t k = tuples[members.front()].lrp(col).period();
        std::map<std::int64_t, std::vector<std::size_t>> by_offset;
        for (std::size_t idx : members) {
          by_offset[tuples[idx].lrp(col).offset()].push_back(idx);
        }
        // Try divisors of k ascending: the smaller the target period, the
        // more tuples collapse.
        for (std::int64_t d = 1; d < k && !changed; ++d) {
          if (k % d != 0) continue;
          for (std::int64_t r0 = 0; r0 < d && !changed; ++r0) {
            bool complete = true;
            for (std::int64_t c = r0; c < k; c += d) {
              if (!by_offset.contains(c)) {
                complete = false;
                break;
              }
            }
            if (!complete) continue;
            // Merge: one representative keeps the family with the coarser
            // period; all members with the covered offsets are removed.
            std::set<std::size_t> to_remove;
            for (std::int64_t c = r0; c < k; c += d) {
              for (std::size_t idx : by_offset[c]) to_remove.insert(idx);
            }
            const GeneralizedTuple& proto = tuples[*to_remove.begin()];
            std::vector<Lrp> lrps = proto.temporal();
            lrps[static_cast<std::size_t>(col)] = Lrp::Make(r0, d);
            GeneralizedTuple merged(std::move(lrps), proto.data());
            merged.set_constraints(proto.constraints());
            std::vector<GeneralizedTuple> next;
            next.reserve(tuples.size() - to_remove.size() + 1);
            for (std::size_t i = 0; i < tuples.size(); ++i) {
              if (!to_remove.contains(i)) next.push_back(std::move(tuples[i]));
            }
            // Another family may already have merged to the same tuple;
            // keep one copy, by the entry pass's text check.
            const std::string text = merged.ToString();
            if (std::none_of(next.begin(), next.end(),
                             [&text](const GeneralizedTuple& t) {
                               return t.ToString() == text;
                             })) {
              next.push_back(std::move(merged));
            }
            tuples = std::move(next);
            changed = true;
          }
        }
      }
    }
  }
  GeneralizedRelation out(r.schema());
  for (GeneralizedTuple& t : tuples) {
    ITDB_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
  }
  return out;
}

}  // namespace itdb
