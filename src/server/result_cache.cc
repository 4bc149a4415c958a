#include "server/result_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace itdb {
namespace server {

namespace {

/// Fixed per-entry overhead charged on top of the payload estimate: map
/// node, LRU node, and two copies of the key's bookkeeping.
constexpr std::size_t kEntryOverhead = 128;

}  // namespace

std::size_t EstimateRelationBytes(const GeneralizedRelation& rel) {
  std::size_t bytes = sizeof(GeneralizedRelation);
  for (const GeneralizedTuple& t : rel.tuples()) {
    bytes += sizeof(GeneralizedTuple);
    bytes += static_cast<std::size_t>(t.temporal_arity()) * sizeof(Lrp);
    for (const Value& v : t.data()) {
      bytes += sizeof(Value);
      if (v.IsString()) bytes += v.AsString().size();
    }
    const std::size_t nodes =
        static_cast<std::size_t>(t.constraints().num_vars()) + 1;
    bytes += nodes * nodes * sizeof(std::int64_t);
  }
  return bytes;
}

ResultCache::ResultCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

void ResultCache::ClearLocked(std::uint64_t version) {
  if (!lru_.empty()) {
    ++stats_.invalidations;
    obs::AddGlobalCounter("server.cache.invalidations", 1);
  }
  // In-flight entries go too: their leaders still publish to the waiters
  // holding them, but nothing computed against the old catalog is kept.
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  version_ = version;
}

ResultCache::Outcome ResultCache::Run(const std::string& key,
                                      std::uint64_t version,
                                      const std::function<Outcome()>& compute,
                                      Served* served) {
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (version > version_) ClearLocked(version);
    auto it = entries_.find(key);
    if (version == version_ && it != entries_.end()) {
      Entry& entry = it->second;
      if (entry.flight == nullptr) {
        lru_.splice(lru_.begin(), lru_, entry.lru_pos);
        ++stats_.hits;
        obs::AddGlobalCounter("server.cache.hits", 1);
        if (served != nullptr) *served = Served::kHit;
        return Outcome{Status::Ok(), entry.text, entry.relation, true};
      }
      flight = entry.flight;
      ++stats_.misses;
      ++stats_.coalesced;
      obs::AddGlobalCounter("server.cache.misses", 1);
      obs::AddGlobalCounter("server.batched", 1);
      if (served != nullptr) *served = Served::kShared;
      published_.wait(lock, [&flight] { return flight->done; });
      return flight->outcome;
    }
    ++stats_.misses;
    ++stats_.leads;
    obs::AddGlobalCounter("server.cache.misses", 1);
    // A stale version computes alone: it joins nothing and keeps nothing.
    if (version == version_) {
      flight = std::make_shared<Flight>();
      entries_[key].flight = flight;
    }
  }
  if (served != nullptr) *served = Served::kComputed;
  Outcome outcome = compute();
  if (flight == nullptr) return outcome;
  std::size_t bytes = 0;
  if (outcome.status.ok() && outcome.cacheable) {
    bytes = kEntryOverhead + key.size() + outcome.text.size();
    if (outcome.relation != nullptr) {
      bytes += EstimateRelationBytes(*outcome.relation);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    flight->outcome = outcome;
    flight->done = true;
    // A version bump while computing already dropped (or replaced) the
    // entry; otherwise it stays only as a kept outcome.
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.flight == flight) {
      if (bytes == 0 || bytes > byte_budget_) {
        entries_.erase(it);
      } else {
        Entry& entry = it->second;
        entry.flight.reset();
        entry.text = outcome.text;
        entry.relation = outcome.relation;
        entry.bytes = bytes;
        lru_.push_front(key);
        entry.lru_pos = lru_.begin();
        bytes_ += bytes;
        while (bytes_ > byte_budget_) {
          auto victim = entries_.find(lru_.back());
          bytes_ -= victim->second.bytes;
          entries_.erase(victim);
          lru_.pop_back();
          ++stats_.evictions;
          obs::AddGlobalCounter("server.cache.evictions", 1);
        }
      }
    }
  }
  published_.notify_all();
  return outcome;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace server
}  // namespace itdb
