// Tests for the LCAG result cache: LRU mechanics, sharding, canonical
// (label-order independent) keys, cached-vs-uncached agreement, the
// budget_exhausted truncation signal, and thread-safety under concurrent
// lookups/inserts.

#include <algorithm>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "embed/lcag_cache.h"
#include "embed/lcag_search.h"
#include "embed/lcag_sketch.h"
#include "kg/knowledge_graph.h"
#include "kg/label_index.h"

namespace newslink {
namespace embed {
namespace {

/// The Fig. 1 topology of the paper (same layout as embed_test.cc): two
/// parallel 2-hop paths Taliban -> Khyber plus one-hop neighbours.
class LcagCacheSearchTest : public ::testing::Test {
 protected:
  LcagCacheSearchTest() {
    kg::KgBuilder b;
    khyber_ = b.AddNode("Khyber", kg::EntityType::kGpe);
    waziristan_ = b.AddNode("Waziristan", kg::EntityType::kGpe);
    taliban_ = b.AddNode("Taliban", kg::EntityType::kNorp);
    kunar_ = b.AddNode("Kunar", kg::EntityType::kGpe);
    pakistan_ = b.AddNode("Pakistan", kg::EntityType::kGpe);
    upper_dir_ = b.AddNode("Upper Dir", kg::EntityType::kGpe);
    swat_ = b.AddNode("Swat Valley", kg::EntityType::kGpe);
    auto edge = [&b](kg::NodeId s, kg::NodeId d, const char* p) {
      ASSERT_TRUE(b.AddEdge(s, d, p).ok());
    };
    edge(taliban_, waziristan_, "operates_in");
    edge(waziristan_, khyber_, "located_in");
    edge(taliban_, kunar_, "operates_in");
    edge(kunar_, khyber_, "located_in");
    edge(upper_dir_, khyber_, "located_in");
    edge(swat_, khyber_, "located_in");
    edge(khyber_, pakistan_, "part_of");
    graph_ = b.Build();
    index_ = kg::LabelIndex(graph_);
  }

  kg::NodeId khyber_, waziristan_, taliban_, kunar_, pakistan_, upper_dir_,
      swat_;
  kg::KnowledgeGraph graph_;
  kg::LabelIndex index_;
};

LcagResult MakeResult(kg::NodeId root) {
  LcagResult r;
  r.found = true;
  r.graph.root = root;
  r.graph.nodes = {root};
  return r;
}

TEST(LcagCacheTest, InsertLookupRoundTrip) {
  LcagCache cache(8, 2);
  EXPECT_TRUE(cache.enabled());
  LcagResult out;
  EXPECT_FALSE(cache.Lookup("a", &out));
  cache.Insert("a", MakeResult(7));
  ASSERT_TRUE(cache.Lookup("a", &out));
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.graph.root, 7u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
  // The same numbers are visible through the consolidated registry view.
  EXPECT_EQ(cache.Metrics().CounterValue(kLcagCacheHits), 1u);
  EXPECT_EQ(cache.Metrics().CounterValue(kLcagCacheMisses), 1u);
  EXPECT_EQ(cache.Metrics().GaugeValue(kLcagCacheEntries), 1.0);
}

TEST(LcagCacheTest, EvictsLeastRecentlyUsed) {
  // One shard of capacity 2 makes the eviction order fully observable.
  LcagCache cache(2, 1);
  cache.Insert("a", MakeResult(1));
  cache.Insert("b", MakeResult(2));
  LcagResult out;
  ASSERT_TRUE(cache.Lookup("a", &out));  // promotes "a"
  cache.Insert("c", MakeResult(3));      // evicts "b"
  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_FALSE(cache.Lookup("b", &out));
  EXPECT_TRUE(cache.Lookup("c", &out));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(LcagCacheTest, ZeroCapacityDisables) {
  LcagCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert("a", MakeResult(1));
  LcagResult out;
  EXPECT_FALSE(cache.Lookup("a", &out));
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(LcagCacheTest, ClearEmptiesAllShards) {
  LcagCache cache(64, 4);
  for (int i = 0; i < 32; ++i) {
    cache.Insert(std::string("key") + std::to_string(i), MakeResult(i));
  }
  EXPECT_EQ(cache.entries(), 32u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  LcagResult out;
  EXPECT_FALSE(cache.Lookup("key5", &out));
}

TEST(LcagCacheTest, KeyDependsOnOptionsAndSources) {
  const std::vector<std::vector<kg::NodeId>> sources = {{1, 2}, {5}};
  const std::vector<std::string> labels = {"a", "b"};
  LcagOptions base;
  const std::string k1 = LcagCacheKey(sources, labels, base);
  EXPECT_EQ(k1, LcagCacheKey(sources, labels, base));

  LcagOptions depth_only = base;
  depth_only.depth_only_root = true;
  EXPECT_NE(k1, LcagCacheKey(sources, labels, depth_only));

  LcagOptions single_path = base;
  single_path.all_shortest_paths = false;
  EXPECT_NE(k1, LcagCacheKey(sources, labels, single_path));

  LcagOptions small_budget = base;
  small_budget.max_expansions = 10;
  EXPECT_NE(k1, LcagCacheKey(sources, labels, small_budget));

  // The wall-clock timeout must NOT change the key (timed-out results are
  // never cached, so entries are timeout-independent).
  LcagOptions slow = base;
  slow.timeout_seconds = 123.0;
  EXPECT_EQ(k1, LcagCacheKey(sources, labels, slow));

  EXPECT_NE(k1, LcagCacheKey({{1, 2}, {6}}, labels, base));
  EXPECT_NE(k1, LcagCacheKey(sources, {"a", "c"}, base));
}

TEST_F(LcagCacheSearchTest, CachedFindMatchesUncached) {
  LcagSearch search(&graph_, &index_);
  LcagCache cache(128);
  const std::vector<std::string> labels = {"upper dir", "swat valley",
                                           "pakistan", "taliban"};
  const LcagResult plain = search.Find(labels);
  const LcagResult cached_miss = search.Find(labels, {}, {.cache = &cache});
  const LcagResult cached_hit = search.Find(labels, {}, {.cache = &cache});

  ASSERT_TRUE(plain.found);
  ASSERT_TRUE(cached_miss.found);
  ASSERT_TRUE(cached_hit.found);
  // The cached variant canonicalizes label order, so compare the
  // order-insensitive artifacts: root, node set, sorted distance vector.
  EXPECT_EQ(cached_miss.graph.root, plain.graph.root);
  EXPECT_EQ(cached_miss.graph.nodes, plain.graph.nodes);
  EXPECT_EQ(SortedDescending(cached_miss.graph.label_distances),
            SortedDescending(plain.graph.label_distances));
  EXPECT_EQ(cached_hit.graph.root, cached_miss.graph.root);
  EXPECT_EQ(cached_hit.graph.nodes, cached_miss.graph.nodes);
  EXPECT_EQ(cached_hit.graph.edges.size(), cached_miss.graph.edges.size());

  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(LcagCacheSearchTest, PermutedLabelsShareOneEntry) {
  LcagSearch search(&graph_, &index_);
  LcagCache cache(128);
  const LcagResult a =
      search.Find({"taliban", "upper dir", "pakistan"}, {}, {.cache = &cache});
  const LcagResult b =
      search.Find({"pakistan", "taliban", "upper dir"}, {}, {.cache = &cache});
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.graph.root, b.graph.root);
  EXPECT_EQ(a.graph.nodes, b.graph.nodes);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST_F(LcagCacheSearchTest, SingleLabelGroupsBypassTheCache) {
  LcagSearch search(&graph_, &index_);
  LcagCache cache(128);
  const LcagResult r = search.Find({"taliban"}, {}, {.cache = &cache});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST_F(LcagCacheSearchTest, BudgetExhaustedIsFlagged) {
  LcagSearch search(&graph_, &index_);
  LcagOptions tight;
  tight.max_expansions = 1;  // cannot settle a common ancestor of 2 labels
  const LcagResult truncated = search.Find({"taliban", "upper dir"}, tight);
  EXPECT_TRUE(truncated.budget_exhausted);
  EXPECT_FALSE(truncated.timed_out);
  EXPECT_FALSE(truncated.found);

  const LcagResult full = search.Find({"taliban", "upper dir"});
  EXPECT_FALSE(full.budget_exhausted);
  EXPECT_TRUE(full.found);
}

TEST_F(LcagCacheSearchTest, BudgetExhaustedResultsAreCacheable) {
  // Unlike wall-clock timeouts, budget truncation is deterministic; the
  // cached copy must carry the flag so engine stats stay truthful.
  LcagSearch search(&graph_, &index_);
  LcagCache cache(128);
  LcagOptions tight;
  tight.max_expansions = 1;
  const LcagResult first =
      search.Find({"taliban", "upper dir"}, tight, {.cache = &cache});
  const LcagResult second =
      search.Find({"taliban", "upper dir"}, tight, {.cache = &cache});
  EXPECT_TRUE(first.budget_exhausted);
  EXPECT_TRUE(second.budget_exhausted);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(LcagCacheSearchTest, TruncatedSmallBudgetEntryNeverServesLargerBudget) {
  // Regression for the budget-in-key property: max_expansions is part of
  // the cache key, so a result truncated under a tiny budget must not be
  // handed to a later search that could afford the full answer.
  LcagSearch search(&graph_, &index_);
  LcagCache cache(128);
  LcagOptions tight;
  tight.max_expansions = 1;
  const LcagResult truncated =
      search.Find({"taliban", "upper dir"}, tight, {.cache = &cache});
  ASSERT_TRUE(truncated.budget_exhausted);
  ASSERT_FALSE(truncated.found);
  ASSERT_EQ(cache.entries(), 1u);

  // Same labels, default budget: a fresh search (cache miss), full answer.
  const LcagResult full =
      search.Find({"taliban", "upper dir"}, {}, {.cache = &cache});
  EXPECT_TRUE(full.found);
  EXPECT_FALSE(full.budget_exhausted);
  EXPECT_FALSE(full.cache_hit);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.entries(), 2u);  // one entry per budget
}

TEST_F(LcagCacheSearchTest, AcceleratorKnobsShareCacheEntries) {
  // The sketch is result-invariant, so it is deliberately NOT in the key:
  // the key is built from the resolved sources, labels and options alone,
  // and a sketch-free miss must serve a sketch-enabled lookup.
  using KeyFn = std::string (*)(const std::vector<std::vector<kg::NodeId>>&,
                                const std::vector<std::string>&,
                                const LcagOptions&);
  static_assert(std::is_same_v<decltype(&LcagCacheKey), KeyFn>);
  LcagSketchOptions sketch_options;
  sketch_options.radius = 1e6;
  const LcagSketchIndex sketch = LcagSketchIndex::Build(graph_, sketch_options);

  LcagSearch search(&graph_, &index_);
  LcagCache cache(128);
  const LcagResult miss =
      search.Find({"taliban", "upper dir"}, {}, {.cache = &cache});
  const LcagResult hit = search.Find({"taliban", "upper dir"}, {},
                                     {.cache = &cache, .sketch = &sketch});
  ASSERT_TRUE(miss.found);
  ASSERT_TRUE(hit.found);
  // Without the cache the sketch answers this group, so `hit` came from the
  // sketch-free entry, not from the sketch.
  ASSERT_TRUE(search.Find({"taliban", "upper dir"}, {}, {.sketch = &sketch})
                  .sketch_hit);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.sketch_hit);
  EXPECT_EQ(hit.graph.root, miss.graph.root);
  EXPECT_EQ(hit.graph.nodes, miss.graph.nodes);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST_F(LcagCacheSearchTest, ConcurrentFindsAreSafeAndConsistent) {
  LcagSearch search(&graph_, &index_);
  LcagCache cache(64, 4);
  const std::vector<std::vector<std::string>> groups = {
      {"taliban", "upper dir"},
      {"upper dir", "swat valley", "pakistan", "taliban"},
      {"swat valley", "pakistan"},
      {"waziristan", "kunar"},
  };
  std::vector<LcagResult> expected;
  for (const auto& g : groups) expected.push_back(search.Find(g));

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t g = (t + round) % groups.size();
        const LcagResult r = search.Find(groups[g], {}, {.cache = &cache});
        if (r.found != expected[g].found ||
            r.graph.root != expected[g].graph.root ||
            r.graph.nodes != expected[g].graph.nodes) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(cache.entries(), groups.size());
}

}  // namespace
}  // namespace embed
}  // namespace newslink
