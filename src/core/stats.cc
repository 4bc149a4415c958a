#include "core/stats.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "core/index.h"
#include "obs/metrics.h"
#include "util/numeric.h"

namespace itdb {

namespace {

/// The hull of `t` with its singleton lrps closed into a copy of its
/// constraints as equalities, when it has both: A = 2 and B <= A + 1 give
/// B <= 3, which neither the DBM hull nor the singleton shows alone.  Else
/// (or when the pins contradict the constraints) TemporalHull::Of, which
/// stays as it is: it feeds the kernel prefilters.
TemporalHull PinnedHull(const GeneralizedTuple& t) {
  TemporalHull hull = TemporalHull::Of(t);
  const auto singleton = [](const Lrp& lrp) { return lrp.period() == 0; };
  if (!hull.usable() || std::ranges::none_of(t.temporal(), singleton) ||
      t.constraints().ToAtomics().empty()) {
    return hull;
  }
  GeneralizedTuple pinned = t;
  for (int i = 0; i < t.temporal_arity(); ++i) {
    if (singleton(t.lrp(i))) {
      pinned.mutable_constraints().AddEquality(i, t.lrp(i).offset());
    }
  }
  TemporalHull tight = TemporalHull::Of(pinned);
  return tight.usable() ? tight : hull;
}

}  // namespace

RelationStats ComputeRelationStats(const GeneralizedRelation& r) {
  RelationStats out;
  const int m = r.schema().temporal_arity();
  const int l = r.schema().data_arity();
  out.tuple_count = r.size();

  std::vector<std::set<std::pair<std::int64_t, std::int64_t>>> temporal_keys(
      static_cast<std::size_t>(m));
  std::vector<std::set<Value>> data_keys(static_cast<std::size_t>(l));
  out.hull_lo.assign(static_cast<std::size_t>(m), Dbm::kInf);
  out.hull_hi.assign(static_cast<std::size_t>(m), -Dbm::kInf);
  std::int64_t lcm = 1;
  bool lcm_overflow = false;
  bool any_feasible = false;
  std::int64_t lcm_rep = 1;
  bool lcm_rep_overflow = false;
  std::int64_t normalized = 0;
  bool normalized_overflow = false;

  for (const GeneralizedTuple& t : r.tuples()) {
    // Representation-level aggregates run over every tuple, feasible or
    // not: Complement and Project consume the representation as stored.
    std::int64_t tuple_lcm = 1;
    bool tuple_lcm_overflow = false;
    for (const Lrp& lrp : t.temporal()) {
      if (lrp.period() <= 0) continue;
      Result<std::int64_t> next = Lcm(tuple_lcm, lrp.period());
      if (next.ok()) {
        tuple_lcm = next.value();
      } else {
        tuple_lcm_overflow = true;
        break;
      }
    }
    if (tuple_lcm_overflow) {
      lcm_rep_overflow = true;
      normalized_overflow = true;
    } else {
      if (!lcm_rep_overflow) {
        Result<std::int64_t> next = Lcm(lcm_rep, tuple_lcm);
        if (next.ok()) {
          lcm_rep = next.value();
        } else {
          lcm_rep_overflow = true;
        }
      }
      if (!normalized_overflow) {
        std::int64_t split = 1;
        for (const Lrp& lrp : t.temporal()) {
          if (lrp.period() <= 0) continue;
          Result<std::int64_t> grown =
              CheckedMul(split, tuple_lcm / lrp.period());
          if (grown.ok()) {
            split = grown.value();
          } else {
            normalized_overflow = true;
            break;
          }
        }
        if (!normalized_overflow) {
          Result<std::int64_t> sum = CheckedAdd(normalized, split);
          if (sum.ok()) {
            normalized = sum.value();
          } else {
            normalized_overflow = true;
          }
        }
      }
    }
    // One closure per tuple (two with pins) classifies feasibility and
    // yields per-column bounds; a failed closure (overflow) counts as potentially nonempty
    // and unbounded -- stats must stay conservative.
    TemporalHull hull = PinnedHull(t);
    if (hull.infeasible) continue;  // Denotes {}: invisible to every stat.
    any_feasible = true;
    for (int i = 0; i < m; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      const Lrp& lrp = t.lrp(i);
      temporal_keys[ui].emplace(lrp.offset(), lrp.period());
      if (lrp.period() > 0 && !lcm_overflow) {
        Result<std::int64_t> next = Lcm(lcm, lrp.period());
        if (next.ok()) {
          lcm = next.value();
        } else {
          lcm_overflow = true;
        }
      }
      // Tuple bound on column i: the DBM hull when available, tightened by
      // a singleton lrp (period 0 pins the coordinate at its offset).
      std::int64_t lo = hull.usable() ? hull.lo[ui] : -Dbm::kInf;
      std::int64_t hi = hull.usable() ? hull.hi[ui] : Dbm::kInf;
      if (lrp.period() == 0) {
        lo = std::max(lo, lrp.offset());
        hi = std::min(hi, lrp.offset());
      }
      out.hull_lo[ui] = std::min(out.hull_lo[ui], lo);
      out.hull_hi[ui] = std::max(out.hull_hi[ui], hi);
    }
    for (int i = 0; i < l; ++i) {
      data_keys[static_cast<std::size_t>(i)].insert(t.value(i));
    }
  }

  out.distinct_temporal.reserve(static_cast<std::size_t>(m));
  for (const auto& keys : temporal_keys) {
    out.distinct_temporal.push_back(static_cast<std::int64_t>(keys.size()));
  }
  out.distinct_data.reserve(static_cast<std::size_t>(l));
  for (const auto& keys : data_keys) {
    out.distinct_data.push_back(static_cast<std::int64_t>(keys.size()));
  }
  if (lcm_overflow) {
    out.period_lcm = std::nullopt;
  } else {
    out.period_lcm = lcm;
  }
  if (!lcm_rep_overflow) out.period_lcm_rep = lcm_rep;
  if (!normalized_overflow) out.normalized_rows = normalized;
  out.bit_empty = !any_feasible;
  if (out.bit_empty) {
    out.hull_lo.clear();
    out.hull_hi.clear();
  }
  return out;
}

namespace {

std::string FormatBound(std::int64_t b) {
  if (b >= Dbm::kInf) return "+inf";
  if (b <= -Dbm::kInf) return "-inf";
  return std::to_string(b);
}

std::string JoinInts(const std::vector<std::int64_t>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(v[i]);
  }
  return out;
}

}  // namespace

std::string FormatRelationStats(const std::string& name,
                                const RelationStats& stats) {
  std::ostringstream out;
  out << name << ".tuples " << stats.tuple_count << "\n";
  if (!stats.distinct_temporal.empty()) {
    out << name << ".distinct_temporal " << JoinInts(stats.distinct_temporal)
        << "\n";
  }
  if (!stats.distinct_data.empty()) {
    out << name << ".distinct_data " << JoinInts(stats.distinct_data) << "\n";
  }
  out << name << ".period_lcm "
      << (stats.period_lcm.has_value() ? std::to_string(*stats.period_lcm)
                                       : std::string("overflow"))
      << "\n";
  out << name << ".period_lcm_rep "
      << (stats.period_lcm_rep.has_value()
              ? std::to_string(*stats.period_lcm_rep)
              : std::string("overflow"))
      << "\n";
  out << name << ".normalized_rows "
      << (stats.normalized_rows.has_value()
              ? std::to_string(*stats.normalized_rows)
              : std::string("overflow"))
      << "\n";
  for (std::size_t i = 0; i < stats.hull_lo.size(); ++i) {
    out << name << ".hull[" << i << "] [" << FormatBound(stats.hull_lo[i])
        << ", " << FormatBound(stats.hull_hi[i]) << "]\n";
  }
  out << name << ".bit_empty " << (stats.bit_empty ? "true" : "false") << "\n";
  return out.str();
}

StatsCache::StatsCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

RelationStats StatsCache::Get(const std::string& name, std::uint64_t version,
                              const GeneralizedRelation& relation) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end() && it->second.version == version) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      obs::AddGlobalCounter("stats.cache.hits", 1);
      return it->second.stats;
    }
  }
  // Compute outside the lock: scans are the expensive part, and a duplicate
  // computation under contention is benign (same version, same result).
  RelationStats computed = ComputeRelationStats(relation);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  obs::AddGlobalCounter("stats.cache.misses", 1);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    it->second.version = version;
    it->second.stats = computed;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  } else {
    if (entries_.size() >= capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(name);
    entries_.emplace(name, Entry{version, computed, lru_.begin()});
  }
  stats_.entries = entries_.size();
  return computed;
}

StatsCache::Stats StatsCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

void StatsCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_.entries = 0;
}

}  // namespace itdb
