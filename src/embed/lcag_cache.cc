#include "embed/lcag_cache.h"

#include <algorithm>
#include <functional>

namespace newslink {
namespace embed {

namespace {

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (i * 8)));
}

}  // namespace

std::string LcagCacheKey(const std::vector<std::vector<kg::NodeId>>& sources,
                         const std::vector<std::string>& resolved_labels,
                         const LcagOptions& options) {
  std::string key;
  // Options first: only the fields that change the *result*.
  //  - max_expansions IS keyed: a budget-truncated (budget_exhausted)
  //    result cached under a small budget must never be served to a later
  //    request with a larger budget that would have searched further.
  //  - timeout_seconds is excluded because timed-out results are never
  //    inserted (non-deterministic truncation; see LcagSearch::Find).
  //  - LcagSearchContext::sketch is excluded because it is a
  //    result-invariant accelerator; keying it would fragment the cache
  //    without changing any cached value.
  AppendU64(options.max_expansions, &key);
  key.push_back(options.all_shortest_paths ? '\1' : '\0');
  key.push_back(options.depth_only_root ? '\1' : '\0');
  AppendU64(sources.size(), &key);
  for (const std::vector<kg::NodeId>& set : sources) {
    AppendU64(set.size(), &key);
    for (kg::NodeId v : set) AppendU64(v, &key);
  }
  for (const std::string& label : resolved_labels) {
    AppendU64(label.size(), &key);
    key += label;
  }
  return key;
}

LcagCache::LcagCache(size_t capacity, size_t num_shards,
                     metrics::Registry* registry)
    : capacity_(capacity) {
  if (num_shards == 0) num_shards = 1;
  num_shards = std::min(num_shards, std::max<size_t>(capacity, 1));
  shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_ = std::vector<Shard>(num_shards);
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<metrics::Registry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  hits_ = registry_->GetCounter(kLcagCacheHits, "LCAG cache lookup hits");
  misses_ = registry_->GetCounter(kLcagCacheMisses, "LCAG cache lookup misses");
  evictions_ =
      registry_->GetCounter(kLcagCacheEvictions, "LCAG cache LRU evictions");
  entries_ = registry_->GetGauge(kLcagCacheEntries, "LCAG cache live entries");
}

LcagCache::Shard& LcagCache::ShardFor(const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool LcagCache::Lookup(const std::string& key, LcagResult* out) const {
  if (!enabled()) return false;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_->Inc();
    return false;
  }
  hits_->Inc();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->value;
  // Results restored from the cache report the saved Algorithms 1-3 work.
  out->cache_hit = true;
  return true;
}

void LcagCache::Insert(const std::string& key, const LcagResult& value) {
  if (!enabled()) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  while (shard.lru.size() >= shard_capacity_) {
    shard.index.erase(std::string_view(shard.lru.back().key));
    shard.lru.pop_back();
    evictions_->Inc();
    entries_->Add(-1.0);
  }
  shard.lru.push_front(Entry{key, value});
  // Cached entries never claim to be hits; the flag is set on Lookup.
  shard.lru.front().value.cache_hit = false;
  shard.index.emplace(std::string_view(shard.lru.front().key),
                      shard.lru.begin());
  entries_->Add(1.0);
}

void LcagCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    entries_->Add(-static_cast<double>(shard.lru.size()));
    shard.index.clear();
    shard.lru.clear();
  }
}

}  // namespace embed
}  // namespace newslink
