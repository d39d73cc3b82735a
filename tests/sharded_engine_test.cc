// ShardedEngine: scatter-gather over N document-partition shards must be
// bit-identical — hits, scores, and tie order — to one NewsLinkEngine over
// the union of the shards (DESIGN.md Sec. 12). The property holds for the
// round-robin ShardedEngine at any shard count, for batches, and for the
// query pipeline over any partition of the rows into ascending shards.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "corpus/synthetic_news.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "newslink/newslink_engine.h"
#include "newslink/query_pipeline.h"
#include "newslink/shard_merge.h"
#include "newslink/sharded_engine.h"

namespace newslink {
namespace {

/// A shard holding any ascending subset of the corpus rows — what a shard
/// server that also takes POSTed documents ends up with: a local backend
/// whose rows map to global ones through a table instead of ShardRows.
class MappedShardBackend final : public ShardBackend {
 public:
  MappedShardBackend(const NewsLinkEngine* engine,
                     std::vector<uint32_t> global_rows)
      : local_(engine), global_rows_(std::move(global_rows)) {}

  ShardEpochPin Pin() const override { return local_.Pin(); }
  Result<ShardPlan> Plan(const ShardQuery& query, const ShardEpochPin& pin,
                         double budget_seconds) const override {
    return local_.Plan(query, pin, budget_seconds);
  }
  Result<ShardSearchResult> Search(const ShardQuery& query,
                                   const ShardStats& global,
                                   const ShardEpochPin& pin,
                                   uint64_t plan_epoch,
                                   double budget_seconds) const override {
    return local_.Search(query, global, pin, plan_epoch, budget_seconds);
  }
  const embed::DocumentEmbedding* DocEmbedding(
      uint32_t local_row) const override {
    return local_.DocEmbedding(local_row);
  }
  uint32_t GlobalRow(uint32_t local_row) const override {
    return global_rows_[local_row];
  }

 private:
  LocalShardBackend local_;
  std::vector<uint32_t> global_rows_;
};

class ShardedEngineTest : public ::testing::Test {
 protected:
  ShardedEngineTest() : kg_(MakeKg()), index_(kg_.graph) {
    corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
    config.num_stories = 12;
    corpus_ = corpus::SyntheticNewsGenerator(&kg_, config).Generate();
  }

  static kg::SyntheticKg MakeKg() {
    kg::SyntheticKgConfig config;
    config.seed = 77;
    config.num_countries = 2;
    config.provinces_per_country = 2;
    config.districts_per_province = 2;
    config.cities_per_district = 2;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  NewsLinkConfig EngineConfig() const {
    NewsLinkConfig config;
    config.num_threads = 2;
    return config;
  }

  std::string FirstSentenceOf(size_t doc) const {
    const std::string& text = corpus_.corpus.doc(doc).text;
    return text.substr(0, text.find('.') + 1);
  }

  /// A spread of per-request knobs the bit-exactness property must hold
  /// under: pure text, fused pruned at two weights, fused exhaustive, and
  /// pure BON.
  std::vector<baselines::SearchRequest> PropertyRequests(size_t doc) const {
    const std::string q = FirstSentenceOf(doc);
    baselines::SearchRequest text_only{q, 5};
    text_only.beta = 0.0;
    baselines::SearchRequest fused{q, 5};
    fused.beta = 0.3;
    baselines::SearchRequest exhaustive{q, 5};
    exhaustive.beta = 0.3;
    exhaustive.exhaustive_fusion = true;
    baselines::SearchRequest bon_only{q, 5};
    bon_only.beta = 1.0;
    baselines::SearchRequest text_heavy{q, 5};
    text_heavy.beta = 0.3;
    return {text_only, fused, exhaustive, bon_only, text_heavy};
  }

  static void ExpectSameResponse(const baselines::SearchResponse& sharded,
                                 const baselines::SearchResponse& single,
                                 const std::string& what) {
    ASSERT_EQ(sharded.hits.size(), single.hits.size()) << what;
    for (size_t i = 0; i < single.hits.size(); ++i) {
      EXPECT_EQ(sharded.hits[i].doc_index, single.hits[i].doc_index)
          << what << " rank " << i << " (tie order must match)";
      EXPECT_EQ(sharded.hits[i].score, single.hits[i].score)
          << what << " rank " << i << " (scores must be bit-identical)";
    }
  }

  /// ExpectSameResponse plus the scatter-gather fields of a full answer.
  static void ExpectSameAnswer(const baselines::SearchResponse& sharded,
                               const baselines::SearchResponse& single,
                               size_t n_shards, const std::string& what) {
    ExpectSameResponse(sharded, single, what);
    EXPECT_EQ(sharded.shards_total, n_shards) << what;
    EXPECT_EQ(sharded.shards_answered, n_shards) << what;
    EXPECT_FALSE(sharded.degraded) << what;
    EXPECT_EQ(sharded.snapshot_docs, single.snapshot_docs) << what;
  }

  static std::string Describe(size_t n_shards, size_t doc,
                              const baselines::SearchRequest& request) {
    return StrCat(n_shards, " shards, doc ", doc, ", beta ",
                  request.beta.value_or(-1),
                  request.exhaustive_fusion ? " exhaustive" : "");
  }

  kg::SyntheticKg kg_;
  kg::LabelIndex index_;
  corpus::SyntheticCorpus corpus_;
};

TEST_F(ShardedEngineTest, RoundRobinMatchesSingleEngineAtAnyShardCount) {
  NewsLinkEngine single(&kg_.graph, &index_, EngineConfig());
  ASSERT_TRUE(single.Index(corpus_.corpus).ok());

  for (const size_t n_shards : {1u, 2u, 3u, 7u}) {
    ShardedEngine sharded(&kg_.graph, &index_, EngineConfig(), n_shards);
    ASSERT_TRUE(sharded.Index(corpus_.corpus).ok());
    EXPECT_TRUE(sharded.Index(corpus_.corpus).IsFailedPrecondition());
    for (size_t doc = 0; doc < 6; ++doc) {
      for (const baselines::SearchRequest& request : PropertyRequests(doc)) {
        ExpectSameAnswer(sharded.Search(request), single.Search(request),
                         n_shards, Describe(n_shards, doc, request));
      }
    }
  }
}

TEST_F(ShardedEngineTest, MatchesSingleEngineForAnyShardCountAndPartition) {
  // Random uneven partitions, run through the query pipeline directly:
  // each shard indexes its rows in ascending order, and a table maps its
  // local rows back.
  NewsLinkEngine single(&kg_.graph, &index_, EngineConfig());
  ASSERT_TRUE(single.Index(corpus_.corpus).ok());
  metrics::Registry registry;
  const QueryPipeline pipeline(&registry, EngineConfig());

  Rng rng(4242);
  for (const size_t n_shards : {1u, 2u, 3u, 7u}) {
    std::vector<corpus::Corpus> parts(n_shards);
    std::vector<std::vector<uint32_t>> rows(n_shards);
    for (size_t row = 0; row < corpus_.corpus.size(); ++row) {
      const size_t s = rng.Uniform(n_shards);
      parts[s].Add(corpus_.corpus.doc(row));
      rows[s].push_back(static_cast<uint32_t>(row));
    }
    std::vector<std::unique_ptr<NewsLinkEngine>> shards;
    std::vector<MappedShardBackend> backends;
    backends.reserve(n_shards);
    std::vector<const ShardBackend*> backend_ptrs;
    for (size_t s = 0; s < n_shards; ++s) {
      shards.push_back(std::make_unique<NewsLinkEngine>(&kg_.graph, &index_,
                                                        EngineConfig()));
      ASSERT_TRUE(shards[s]->Index(parts[s]).ok());
      backends.emplace_back(shards[s].get(), std::move(rows[s]));
      backend_ptrs.push_back(&backends[s]);
    }
    PipelineView view;
    view.prep = shards[0].get();
    view.backends = backend_ptrs;

    for (size_t doc = 0; doc < 6; ++doc) {
      for (const baselines::SearchRequest& request : PropertyRequests(doc)) {
        ExpectSameAnswer(pipeline.Search(request, view),
                         single.Search(request), n_shards,
                         Describe(n_shards, doc, request));
      }
    }
  }
}

TEST_F(ShardedEngineTest, SearchBatchMatchesSequentialSearchBitForBit) {
  ShardedEngine sharded(&kg_.graph, &index_, EngineConfig(), 3);
  ASSERT_TRUE(sharded.Index(corpus_.corpus).ok());

  std::vector<baselines::SearchRequest> requests;
  for (size_t doc = 0; doc < 5; ++doc) {
    for (const baselines::SearchRequest& r : PropertyRequests(doc)) {
      requests.push_back(r);
    }
  }
  const std::vector<baselines::SearchResponse> batch =
      sharded.SearchBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(batch[i], sharded.Search(requests[i]),
                       StrCat("batch request ", i));
  }
}

TEST_F(ShardedEngineTest, ExplainAndTraceSpeakGlobalRows) {
  ShardedEngine sharded(&kg_.graph, &index_, EngineConfig(), 2);
  ASSERT_TRUE(sharded.Index(corpus_.corpus).ok());
  NewsLinkEngine single(&kg_.graph, &index_, EngineConfig());
  ASSERT_TRUE(single.Index(corpus_.corpus).ok());

  baselines::SearchRequest request{FirstSentenceOf(1), 5};
  request.beta = 0.3;
  request.explain = true;
  request.trace = true;
  const auto a = sharded.Search(request);
  const auto b = single.Search(request);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].doc_index, b.hits[i].doc_index);
    // Same doc + same query embedding => same explanation paths.
    ASSERT_EQ(a.hits[i].paths.size(), b.hits[i].paths.size());
  }
  // One spliced span child per shard under "ns".
  const TraceSpan* ns = a.trace.Find("ns");
  ASSERT_NE(ns, nullptr);
  size_t shard_spans = 0;
  for (const TraceSpan& child : ns->children) {
    if (child.name.rfind("shard", 0) == 0) ++shard_spans;
  }
  EXPECT_EQ(shard_spans, 2u);
}

TEST_F(ShardedEngineTest, DegradedMergeCoversAnsweringShardsOnly) {
  // Unit-level check of the coordinator's partial-result path: a null
  // shard entry drops out of the merge; the rest still rank correctly.
  ShardSearchResult a;
  a.side[kBow].max = 2.0;
  a.candidates = {{0, 2.0, 0.0}, {1, 1.0, 0.0}};
  ShardSearchResult b;
  b.side[kBow].max = 4.0;
  b.candidates = {{0, 4.0, 0.0}};

  ShardFuseParams params;
  params.beta = 0.0;
  params.k = 10;
  const auto to_global = [](size_t shard, uint32_t local) {
    return static_cast<uint32_t>(2 * local + shard);
  };

  const auto full = MergeShardCandidates(params, {&a, &b}, to_global);
  ASSERT_EQ(full.size(), 3u);
  EXPECT_EQ(full[0].doc, 1u);  // shard b doc 0: 4/4
  EXPECT_EQ(full[1].doc, 0u);  // shard a doc 0: 2/4
  EXPECT_EQ(full[2].doc, 2u);  // shard a doc 1: 1/4

  const auto degraded = MergeShardCandidates(params, {&a, nullptr}, to_global);
  ASSERT_EQ(degraded.size(), 2u);
  EXPECT_EQ(degraded[0].doc, 0u);  // renormalized against a's max only
  EXPECT_EQ(degraded[0].score, 1.0);
  EXPECT_EQ(degraded[1].doc, 2u);
}

TEST(ShardsToDeepenTest, BoundReachingTheKthScoreDeepensTheShard) {
  // Shard a's lists are full (positive floors); shard b's are exhausted.
  ShardSearchResult a;
  a.side[kBow].max = 3.0;
  a.side[kBon].max = 1.0;
  a.candidates = {{0, 3.0, 1.0}, {1, 0.7, 0.3}};
  a.side[kBow].floor = 0.7;
  a.side[kBon].floor = 0.3;
  ShardSearchResult b;
  b.side[kBow].max = 1.0;
  b.side[kBon].max = 1.0;
  b.candidates = {{0, 0.1, 0.2}};

  ShardFuseParams params;
  params.beta = 0.3;
  params.k = 2;
  const auto to_global = [](size_t shard, uint32_t local) {
    return static_cast<uint32_t>(2 * local + shard);
  };
  const std::vector<const ShardSearchResult*> shards = {&a, &b};

  // a's second candidate sits exactly on a's floors, so the k-th merged
  // score equals a's bound bit for bit: an unseen document of a could tie
  // it and win on a smaller global row, so a goes deeper. b holds every
  // matching document already.
  std::vector<ir::ScoredDoc> merged =
      MergeShardCandidates(params, shards, to_global);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[1].doc, 2u);
  EXPECT_EQ(ShardsToDeepen(params, shards, merged),
            std::vector<size_t>{0});

  // Lower floors put the bound under the k-th score: nothing unseen can
  // enter, the merge is final.
  a.side[kBow].floor = 0.6;
  EXPECT_TRUE(ShardsToDeepen(params, shards, merged).empty());

  // Fewer than k merged documents: every shard with an open side goes
  // deeper, whatever its bound.
  params.k = 5;
  merged = MergeShardCandidates(params, shards, to_global);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(ShardsToDeepen(params, shards, merged), std::vector<size_t>{0});

  // A shard that did not answer is never searched again.
  EXPECT_TRUE(ShardsToDeepen(params, {nullptr, &b}, merged).empty());
}

}  // namespace
}  // namespace newslink
