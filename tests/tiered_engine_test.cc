// TieredEngine: the base + today tier pair must answer bit-identically —
// hits, scores, tie order — to one NewsLinkEngine over the same documents
// (DESIGN.md Sec. 15), whatever the tier split, with recency decay and
// time_range filters riding along. Compaction merges today into base
// without changing any result or any global doc id, is observable through
// tier_compactions_total / today-tier gauges, and runs from a background
// thread when configured.

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "corpus/synthetic_news.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "newslink/newslink_engine.h"
#include "newslink/tiered_engine.h"

namespace newslink {
namespace {

class TieredEngineTest : public ::testing::Test {
 protected:
  TieredEngineTest() : kg_(MakeKg()), index_(kg_.graph) {
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

  /// Splits the corpus: the first `bulk` documents bulk-index into the
  /// base tier, the rest stream through AddDocument into the today tier.
  /// The single reference engine ingests in the identical order.
  corpus::Corpus BulkPart(size_t bulk) const {
    corpus::Corpus part;
    for (size_t i = 0; i < bulk; ++i) part.Add(corpus_.corpus.doc(i));
    return part;
  }

  std::string FirstSentenceOf(size_t doc) const {
    const std::string& text = corpus_.corpus.doc(doc).text;
    return text.substr(0, text.find('.') + 1);
  }

  /// Decay reference after every generated timestamp, shared by both
  /// engines so recency requests are deterministic and comparable.
  int64_t NowAfterCorpus() const {
    int64_t now = 0;
    for (size_t i = 0; i < corpus_.corpus.size(); ++i) {
      now = std::max(now, corpus_.corpus.doc(i).timestamp_ms);
    }
    return now + 1;
  }

  /// Per-request knobs the tiered == single property must hold under:
  /// pure text, fused pruned, fused exhaustive, pure BON, recency-decayed,
  /// and time-windowed.
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
    baselines::SearchRequest recency{q, 5};
    recency.beta = 0.3;
    recency.recency_half_life_seconds = 3600.0;
    recency.now_ms = NowAfterCorpus();
    baselines::SearchRequest windowed{q, 5};
    windowed.beta = 0.3;
    // A window cutting across the tier split: documents are stamped in
    // generation order, so this admits late-base plus early-today rows.
    windowed.time_range = baselines::TimeRange{
        corpus_.corpus.doc(corpus_.corpus.size() / 4).timestamp_ms,
        corpus_.corpus.doc((3 * corpus_.corpus.size()) / 4).timestamp_ms};
    return {text_only, fused, exhaustive, bon_only, recency, windowed};
  }

  static void ExpectSameResponse(const baselines::SearchResponse& tiered,
                                 const baselines::SearchResponse& single,
                                 const std::string& what) {
    ASSERT_EQ(tiered.hits.size(), single.hits.size()) << what;
    for (size_t i = 0; i < single.hits.size(); ++i) {
      EXPECT_EQ(tiered.hits[i].doc_index, single.hits[i].doc_index)
          << what << " rank " << i << " (tie order must match)";
      EXPECT_EQ(tiered.hits[i].score, single.hits[i].score)
          << what << " rank " << i << " (scores must be bit-identical)";
    }
  }

  kg::SyntheticKg kg_;
  kg::LabelIndex index_;
  corpus::SyntheticCorpus corpus_;
};

TEST_F(TieredEngineTest, MatchesSingleEngineAcrossTierSplit) {
  const size_t n = corpus_.corpus.size();
  const size_t bulk = (2 * n) / 3;

  TieredEngine tiered(&kg_.graph, &index_, EngineConfig());
  NewsLinkEngine single(&kg_.graph, &index_, EngineConfig());
  ASSERT_TRUE(tiered.Index(BulkPart(bulk)).ok());
  ASSERT_TRUE(single.Index(BulkPart(bulk)).ok());
  for (size_t i = bulk; i < n; ++i) {
    EXPECT_EQ(tiered.AddDocument(corpus_.corpus.doc(i)), i);
    single.AddDocument(corpus_.corpus.doc(i));
  }
  ASSERT_EQ(tiered.num_indexed_docs(), n);
  EXPECT_EQ(tiered.today_tier_docs(), n - bulk);
  EXPECT_EQ(tiered.corpus_fingerprint(), single.corpus_fingerprint());

  for (const size_t probe : {size_t{0}, bulk - 1, bulk, n - 1}) {
    for (const baselines::SearchRequest& request : PropertyRequests(probe)) {
      ExpectSameResponse(tiered.Search(request), single.Search(request),
                         StrCat("probe ", probe));
    }
  }
}

TEST_F(TieredEngineTest, PureStreamingMatchesSingleEngine) {
  // Never bulk-indexed: everything lives in the today tier.
  const size_t n = corpus_.corpus.size();
  TieredEngine tiered(&kg_.graph, &index_, EngineConfig());
  NewsLinkEngine single(&kg_.graph, &index_, EngineConfig());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(tiered.AddDocument(corpus_.corpus.doc(i)), i);
    single.AddDocument(corpus_.corpus.doc(i));
  }
  for (const baselines::SearchRequest& request : PropertyRequests(3)) {
    ExpectSameResponse(tiered.Search(request), single.Search(request),
                       "pure streaming");
  }
}

TEST_F(TieredEngineTest, CompactPreservesResultsIdsAndEpochMonotonicity) {
  const size_t n = corpus_.corpus.size();
  const size_t bulk = n / 2;
  TieredEngine tiered(&kg_.graph, &index_, EngineConfig());
  ASSERT_TRUE(tiered.Index(BulkPart(bulk)).ok());
  for (size_t i = bulk; i < n; ++i) {
    tiered.AddDocument(corpus_.corpus.doc(i));
  }

  std::vector<baselines::SearchResponse> before;
  for (const baselines::SearchRequest& request : PropertyRequests(n - 1)) {
    before.push_back(tiered.Search(request));
  }
  const uint64_t epoch_before = before.front().epoch;

  ASSERT_TRUE(tiered.Compact().ok());
  EXPECT_EQ(tiered.compactions(), 1u);
  EXPECT_EQ(tiered.today_tier_docs(), 0u);
  EXPECT_EQ(tiered.num_indexed_docs(), n);

  size_t idx = 0;
  for (const baselines::SearchRequest& request : PropertyRequests(n - 1)) {
    const baselines::SearchResponse after = tiered.Search(request);
    ExpectSameResponse(after, before[idx++], "across compaction");
    EXPECT_GT(after.epoch, epoch_before)
        << "response epoch must keep growing across a compaction swap";
    EXPECT_EQ(after.snapshot_docs, n);
  }

  // Post-compaction ingestion lands in the fresh today tier and keeps
  // global rows contiguous.
  corpus::Document extra = corpus_.corpus.doc(0);
  extra.id = "extra-0";
  extra.text = "Quorple zanthic felbright announcement. " + extra.text;
  EXPECT_EQ(tiered.AddDocument(extra), n);
  EXPECT_EQ(tiered.today_tier_docs(), 1u);
  baselines::SearchRequest find{"Quorple zanthic felbright", 3};
  find.beta = 0.0;
  const baselines::SearchResponse hit = tiered.Search(find);
  ASSERT_FALSE(hit.hits.empty());
  EXPECT_EQ(hit.hits.front().doc_index, n);
}

TEST_F(TieredEngineTest, CompactOnEmptyTodayTierIsANoop) {
  TieredEngine tiered(&kg_.graph, &index_, EngineConfig());
  ASSERT_TRUE(tiered.Index(BulkPart(corpus_.corpus.size())).ok());
  ASSERT_TRUE(tiered.Compact().ok());
  EXPECT_EQ(tiered.compactions(), 0u);
}

TEST_F(TieredEngineTest, TierLifecycleIsObservableInMetrics) {
  TieredEngine tiered(&kg_.graph, &index_, EngineConfig());
  ASSERT_TRUE(tiered.Index(BulkPart(corpus_.corpus.size() / 2)).ok());
  tiered.AddDocument(corpus_.corpus.doc(corpus_.corpus.size() / 2));

  const std::string scrape = tiered.Metrics().RenderPrometheus();
  EXPECT_NE(scrape.find("tier_compactions_total 0"), std::string::npos);
  EXPECT_NE(scrape.find("today_tier_docs 1"), std::string::npos);
  EXPECT_EQ(scrape.find("today_tier_bytes 0\n"), std::string::npos)
      << "a populated today tier must report non-zero bytes";

  ASSERT_TRUE(tiered.Compact().ok());
  const std::string after = tiered.Metrics().RenderPrometheus();
  EXPECT_NE(after.find("tier_compactions_total 1"), std::string::npos);
  EXPECT_NE(after.find("today_tier_docs 0"), std::string::npos);
  EXPECT_NE(after.find("today_tier_bytes 0"), std::string::npos);
}

TEST_F(TieredEngineTest, BackgroundCompactorMergesAndKeepsServing) {
  TieredOptions options;
  options.compact_interval_seconds = 0.05;
  options.compact_min_today_docs = 2;
  TieredEngine tiered(&kg_.graph, &index_, EngineConfig(), options);
  const size_t n = corpus_.corpus.size();
  ASSERT_TRUE(tiered.Index(BulkPart(n - 4)).ok());
  for (size_t i = n - 4; i < n; ++i) {
    tiered.AddDocument(corpus_.corpus.doc(i));
  }

  // The compactor fires on its own; queries keep answering throughout.
  baselines::SearchRequest request{FirstSentenceOf(n - 1), 5};
  request.beta = 0.3;
  const baselines::SearchResponse before = tiered.Search(request);
  for (int spin = 0; spin < 200 && tiered.compactions() == 0; ++spin) {
    (void)tiered.Search(request);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(tiered.compactions(), 1u) << "background compactor never fired";
  EXPECT_EQ(tiered.today_tier_docs(), 0u);
  ExpectSameResponse(tiered.Search(request), before, "after background merge");
}

TEST_F(TieredEngineTest, BatchSearchPinsOneViewAndMatchesSingleCalls) {
  const size_t n = corpus_.corpus.size();
  TieredEngine tiered(&kg_.graph, &index_, EngineConfig());
  ASSERT_TRUE(tiered.Index(BulkPart(n / 2)).ok());
  for (size_t i = n / 2; i < n; ++i) tiered.AddDocument(corpus_.corpus.doc(i));

  const std::vector<baselines::SearchRequest> requests = PropertyRequests(1);
  const std::vector<baselines::SearchResponse> batch =
      tiered.SearchBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(batch[i], tiered.Search(requests[i]),
                       StrCat("batch element ", i));
  }
}

TEST_F(TieredEngineTest, RejectsSecondBulkIndexAndSnapshotting) {
  TieredEngine tiered(&kg_.graph, &index_, EngineConfig());
  ASSERT_TRUE(tiered.Index(BulkPart(4)).ok());
  EXPECT_TRUE(tiered.Index(BulkPart(4)).IsFailedPrecondition());
}

}  // namespace
}  // namespace newslink
