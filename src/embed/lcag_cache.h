// Bounded, sharded LRU cache for G* search results. News corpora repeat
// entity co-occurrence sets constantly (the same politicians, places, and
// organisations are co-mentioned across many documents and queries), and
// LCAG extraction (Algs. 1-3) is the dominant cost of both index building
// and query processing — so memoizing Find() on the resolved source sets
// pays for itself quickly. Sharded locking keeps the parallel index-time
// workers from serializing on one mutex.
//
// Observability: hit/miss/eviction counters and the entry gauge live in a
// metrics::Registry (DESIGN.md Sec. 8). Pass the owner's registry so the
// cache's series appear in one consolidated view (NewsLinkEngine does
// this); standalone caches fall back to a private registry reachable via
// Metrics().

#ifndef NEWSLINK_EMBED_LCAG_CACHE_H_
#define NEWSLINK_EMBED_LCAG_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "embed/lcag_search.h"
#include "kg/types.h"

namespace newslink {
namespace embed {

/// Registry series names used by LcagCache.
inline constexpr std::string_view kLcagCacheHits = "lcag_cache_hits_total";
inline constexpr std::string_view kLcagCacheMisses = "lcag_cache_misses_total";
inline constexpr std::string_view kLcagCacheEvictions =
    "lcag_cache_evictions_total";
inline constexpr std::string_view kLcagCacheEntries = "lcag_cache_entries";

/// Serialized cache key: the canonicalized (sorted within each set, sets
/// ordered by label) resolved source node sets, the resolved labels, and
/// every LcagOptions field that changes the search result — including the
/// `max_expansions` budget, so truncated results never leak across budget
/// configurations (see LcagCacheKey in the .cc for the full rationale).
/// No accelerator input takes part. Two label sets aliasing to the same
/// nodes still get distinct entries because the result carries the label
/// strings.
std::string LcagCacheKey(const std::vector<std::vector<kg::NodeId>>& sources,
                         const std::vector<std::string>& resolved_labels,
                         const LcagOptions& options);

/// \brief A sharded LRU map from canonical source-set keys to LcagResults.
///
/// All methods are thread-safe; each shard has its own mutex and LRU list.
/// Capacity 0 disables the cache (Lookup always misses, Insert drops).
class LcagCache {
 public:
  /// Lock shards when the caller does not choose (the engine's embedder).
  static constexpr size_t kDefaultShards = 16;

  /// `registry`, when given, receives the cache's counters/gauge and must
  /// outlive the cache; nullptr gives the cache a private registry.
  explicit LcagCache(size_t capacity = 4096,
                     size_t num_shards = kDefaultShards,
                     metrics::Registry* registry = nullptr);

  LcagCache(const LcagCache&) = delete;
  LcagCache& operator=(const LcagCache&) = delete;

  /// Copies the cached result into `*out` and promotes the entry to
  /// most-recently-used. Returns false (and counts a miss) when absent.
  bool Lookup(const std::string& key, LcagResult* out) const;

  /// Inserts (or refreshes) the entry, evicting the shard's LRU tail when
  /// the shard is at capacity.
  void Insert(const std::string& key, const LcagResult& value);

  /// The registry holding this cache's lcag_cache_* series (the owner's
  /// registry when one was passed at construction).
  const metrics::Registry& Metrics() const { return *registry_; }

  /// Convenience reads over the registry counters.
  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }
  uint64_t evictions() const { return evictions_->Value(); }
  size_t entries() const { return static_cast<size_t>(entries_->Value()); }
  double HitRate() const {
    const uint64_t total = hits() + misses();
    return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
  }

  void Clear();

  size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }

 private:
  struct Entry {
    std::string key;
    LcagResult value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    // Views point into Entry::key; std::list nodes are address-stable.
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(const std::string& key) const;

  size_t capacity_;
  size_t shard_capacity_;
  mutable std::vector<Shard> shards_;

  std::unique_ptr<metrics::Registry> owned_registry_;  // when none was passed
  metrics::Registry* registry_;
  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* evictions_;
  metrics::Gauge* entries_;
};

}  // namespace embed
}  // namespace newslink

#endif  // NEWSLINK_EMBED_LCAG_CACHE_H_
