#include "core/normalize_cache.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace itdb {

namespace {

void AppendInt64(std::string& key, std::int64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  key.append(buf, sizeof(v));
}

/// The canonical shape key: target period, split budget, lrp vector, and the
/// CLOSED constraint matrix (so raw systems with equal closure share one
/// entry -- closure preserves both solutions and the split enumeration).
Result<std::string> MakeKey(const GeneralizedTuple& t, std::int64_t period,
                            const NormalizeOptions& options,
                            bool* infeasible) {
  Dbm closed = t.constraints();
  ITDB_RETURN_IF_ERROR(closed.Close());
  *infeasible = !closed.feasible();
  std::string key;
  key.reserve(static_cast<std::size_t>(
      (2 + 2 * t.temporal_arity() +
       (t.temporal_arity() + 1) * (t.temporal_arity() + 1)) *
      static_cast<int>(sizeof(std::int64_t))));
  AppendInt64(key, period);
  AppendInt64(key, options.max_split_product);
  for (const Lrp& l : t.temporal()) {
    AppendInt64(key, l.offset());
    AppendInt64(key, l.period());
  }
  const int n = closed.num_vars() + 1;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      AppendInt64(key, closed.bound_node(p, q));
    }
  }
  return key;
}

/// Rebuilds the output tuples exactly as NormalizeTupleToPeriod emits them:
/// each surviving combination carries the caller's raw constraints and data.
std::vector<GeneralizedTuple> Materialize(
    const std::vector<std::vector<Lrp>>& survivors,
    const GeneralizedTuple& t) {
  std::vector<GeneralizedTuple> out;
  out.reserve(survivors.size());
  for (const std::vector<Lrp>& lrps : survivors) {
    GeneralizedTuple nt(lrps, t.data());
    nt.set_constraints(t.constraints());
    out.push_back(std::move(nt));
  }
  return out;
}

}  // namespace

NormalizeCache::NormalizeCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Result<std::vector<GeneralizedTuple>> NormalizeCache::NormalizeToPeriod(
    const GeneralizedTuple& t, std::int64_t period,
    const NormalizeOptions& options) {
  if (period <= 0) {
    // Mirror the plain function's error exactly (and don't pollute the key
    // space with invalid periods).
    return NormalizeTupleToPeriod(t, period, options);
  }
  bool infeasible = false;
  Result<std::string> key = MakeKey(t, period, options, &infeasible);
  if (!key.ok()) {
    // Closure overflow: fall through to the plain path, which reports the
    // same failure from inside NSpaceTuple::Build.
    return NormalizeTupleToPeriod(t, period, options);
  }
  if (infeasible) {
    // Every candidate combination carries these constraints and is pruned;
    // skip the enumeration (and the cache) entirely.
    return std::vector<GeneralizedTuple>{};
  }
  if (std::optional<std::vector<std::vector<Lrp>>> survivors =
          Find(*key, std::numeric_limits<std::size_t>::max())) {
    return Materialize(*survivors, t);
  }
  ITDB_ASSIGN_OR_RETURN(std::vector<GeneralizedTuple> result,
                        NormalizeTupleToPeriod(t, period, options));
  std::vector<std::vector<Lrp>> survivors;
  survivors.reserve(result.size());
  for (const GeneralizedTuple& nt : result) survivors.push_back(nt.temporal());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(*key);
    if (it == entries_.end()) {
      lru_.push_front(*key);
      entries_.emplace(std::move(*key),
                       Entry{std::move(survivors), lru_.begin()});
      while (entries_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
        obs::AddGlobalCounter("normalize_cache.evictions", 1);
      }
    }
  }
  return result;
}

std::optional<std::vector<std::vector<Lrp>>> NormalizeCache::Find(
    const std::string& key, std::size_t limit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    obs::AddGlobalCounter("normalize_cache.misses", 1);
    return std::nullopt;
  }
  ++stats_.hits;
  obs::AddGlobalCounter("normalize_cache.hits", 1);
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  const std::vector<std::vector<Lrp>>& survivors = it->second.survivors;
  return std::vector<std::vector<Lrp>>(
      survivors.begin(),
      survivors.begin() + static_cast<std::ptrdiff_t>(
                              std::min(limit, survivors.size())));
}

Result<std::optional<GeneralizedTuple>> NormalizeCache::FirstPiece(
    const GeneralizedTuple& t, const NormalizeOptions& options) {
  using MaybePiece = std::optional<GeneralizedTuple>;
  ITDB_ASSIGN_OR_RETURN(std::int64_t k, CommonPeriod(t));
  bool infeasible = false;
  Result<std::string> key = MakeKey(t, k, options, &infeasible);
  // A closure overflow re-reports from the plain path, as in
  // NormalizeToPeriod.
  if (!key.ok()) return FirstNormalPiece(t, options);
  if (infeasible) return MaybePiece();
  if (std::optional<std::vector<std::vector<Lrp>>> first = Find(*key, 1)) {
    if (first->empty()) return MaybePiece();
    return MaybePiece(std::move(Materialize(*first, t).front()));
  }
  return FirstNormalPiece(t, options);
}

Result<std::vector<GeneralizedTuple>> NormalizeCache::Normalize(
    const GeneralizedTuple& t, const NormalizeOptions& options) {
  ITDB_ASSIGN_OR_RETURN(std::int64_t k, CommonPeriod(t));
  return NormalizeToPeriod(t, k, options);
}

NormalizeCache::Stats NormalizeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

void NormalizeCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_ = Stats{};
}

Result<std::vector<GeneralizedTuple>> CachedNormalizeTupleToPeriod(
    NormalizeCache* cache, const GeneralizedTuple& t, std::int64_t period,
    const NormalizeOptions& options) {
  if (cache != nullptr) return cache->NormalizeToPeriod(t, period, options);
  return NormalizeTupleToPeriod(t, period, options);
}

Result<std::vector<GeneralizedTuple>> CachedNormalizeTuple(
    NormalizeCache* cache, const GeneralizedTuple& t,
    const NormalizeOptions& options) {
  if (cache != nullptr) return cache->Normalize(t, options);
  return NormalizeTuple(t, options);
}

Result<std::optional<GeneralizedTuple>> CachedFirstNormalPiece(
    NormalizeCache* cache, const GeneralizedTuple& t,
    const NormalizeOptions& options) {
  if (cache != nullptr) return cache->FirstPiece(t, options);
  return FirstNormalPiece(t, options);
}

}  // namespace itdb
