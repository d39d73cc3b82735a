// Concurrency tests for the query path: many threads hammering Search must
// produce exactly the single-threaded results and exactly-counted timing
// buckets, the pruned MaxScore fusion must agree with the exhaustive oracle
// on every published epoch, and queries racing AddDocument must only ever
// observe complete epoch snapshots (no torn reads, no partial documents).
// Run under -fsanitize=thread in CI (see .github/workflows/ci.yml).

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/synthetic_news.h"
#include "embed/document_embedding.h"
#include "embed/lcag_cache.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "newslink/newslink_engine.h"

namespace newslink {
namespace {

class ConcurrentSearchTest : public ::testing::Test {
 protected:
  ConcurrentSearchTest() : kg_(MakeKg()), index_(kg_.graph) {
    corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
    config.num_stories = 25;
    corpus_ = corpus::SyntheticNewsGenerator(&kg_, config).Generate();
  }

  static kg::SyntheticKg MakeKg() {
    kg::SyntheticKgConfig config;
    config.seed = 77;
    config.num_countries = 2;
    config.provinces_per_country = 3;
    config.districts_per_province = 2;
    config.cities_per_district = 2;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  NewsLinkEngine MakeEngine(double beta) {
    NewsLinkConfig config;
    config.beta = beta;
    config.num_threads = 2;
    return NewsLinkEngine(&kg_.graph, &index_, config);
  }

  std::string FirstSentenceOf(size_t doc) const {
    const std::string& text = corpus_.corpus.doc(doc).text;
    return text.substr(0, text.find('.') + 1);
  }

  kg::SyntheticKg kg_;
  kg::LabelIndex index_;
  corpus::SyntheticCorpus corpus_;
};

TEST_F(ConcurrentSearchTest, ParallelSearchesMatchSingleThreaded) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());

  constexpr size_t kQueries = 8;
  constexpr size_t kK = 10;
  std::vector<std::string> queries;
  std::vector<std::vector<baselines::SearchHit>> reference;
  for (size_t d = 0; d < kQueries; ++d) {
    queries.push_back(FirstSentenceOf(d));
    reference.push_back(engine.Search({queries.back(), kK}).hits);
  }

  const uint64_t nlp_before =
      engine.Metrics().FindHistogram(kQueryNlpSeconds)->Count();
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          // Stagger the query order per thread so different queries overlap.
          const size_t idx = (q + t) % queries.size();
          const auto results = engine.Search({queries[idx], kK}).hits;
          bool ok = results.size() == reference[idx].size();
          for (size_t i = 0; ok && i < results.size(); ++i) {
            ok = results[i].doc_index == reference[idx][i].doc_index &&
                 results[i].score == reference[idx][i].score;
          }
          if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent Search must return the single-threaded results";

  // The sharded registry instruments lose no events under contention:
  // exactly one observation per stage per query across all threads.
  const uint64_t total = kThreads * kRounds * kQueries;
  const metrics::Registry& metrics = engine.Metrics();
  EXPECT_EQ(metrics.FindHistogram(kQueryNlpSeconds)->Count(),
            nlp_before + total);
  EXPECT_EQ(metrics.FindHistogram(kQueryNeSeconds)->Count(),
            nlp_before + total);
  EXPECT_EQ(metrics.FindHistogram(kQueryNsSeconds)->Count(),
            nlp_before + total);
}

TEST_F(ConcurrentSearchTest, MetricsCountQueriesAndCacheHits) {
  NewsLinkEngine engine = MakeEngine(0.5);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  const metrics::Registry& metrics = engine.Metrics();
  EXPECT_EQ(metrics.CounterValue(baselines::kEngineQueries), 0u);
  EXPECT_GT(metrics.CounterValue(embed::kEmbedderSegments), 0u);
  const uint64_t hits_after_index =
      metrics.CounterValue(embed::kLcagCacheHits);

  const std::string q = FirstSentenceOf(0);
  engine.Search({q, 5}).hits;
  engine.Search({q, 5}).hits;  // repeated query: its entity groups hit the cache
  EXPECT_EQ(metrics.CounterValue(baselines::kEngineQueries), 2u);
  EXPECT_GT(metrics.CounterValue(kBowDocsScored), 0u);
  EXPECT_GE(metrics.CounterValue(embed::kLcagCacheHits), hits_after_index);
}

TEST_F(ConcurrentSearchTest, PrunedFusionMatchesExhaustiveOracle) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());

  for (double beta : {0.0, 0.2, 0.5, 1.0}) {
    for (size_t d = 0; d < 10; ++d) {
      baselines::SearchRequest request;
      request.query = FirstSentenceOf(d);
      request.k = 5;
      request.beta = beta;
      request.exhaustive_fusion = false;
      const auto pruned = engine.Search(request).hits;
      request.exhaustive_fusion = true;
      const auto exact = engine.Search(request).hits;
      ASSERT_EQ(pruned.size(), exact.size()) << "beta=" << beta;
      for (size_t i = 0; i < pruned.size(); ++i) {
        EXPECT_EQ(pruned[i].doc_index, exact[i].doc_index)
            << "beta=" << beta << " query " << d << " rank " << i;
        EXPECT_EQ(pruned[i].score, exact[i].score)
            << "beta=" << beta << " query " << d << " rank " << i;
      }
    }
  }
}

TEST_F(ConcurrentSearchTest, ConcurrentBatchesShareOneLazilyBuiltPool) {
  // An engine builds its query pipeline's pool on its first SearchBatch
  // and reuses it for every later one. Batches from several threads at
  // once — the first of them racing to build the pool, each waiting only
  // for its own tasks — must each answer exactly what sequential Search
  // calls answer.
  NewsLinkEngine engine = MakeEngine(0.3);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  std::vector<baselines::SearchRequest> requests;
  for (size_t d = 0; d < 6; ++d) requests.push_back({FirstSentenceOf(d), 5});

  std::vector<std::vector<baselines::SearchHit>> expected;
  for (const baselines::SearchRequest& r : requests) {
    expected.push_back(engine.Search(r).hits);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        const auto batch = engine.SearchBatch(requests);
        for (size_t i = 0; i < requests.size(); ++i) {
          const auto& hits = batch[i].hits;
          bool same = hits.size() == expected[i].size();
          for (size_t h = 0; same && h < hits.size(); ++h) {
            same = hits[h].doc_index == expected[i][h].doc_index &&
                   hits[h].score == expected[i][h].score;
          }
          if (!same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrentSearchTest, RequestDefaultsMatchLegacySearch) {
  NewsLinkEngine engine = MakeEngine(0.5);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());

  for (size_t d = 0; d < 8; ++d) {
    const std::string q = FirstSentenceOf(d);
    const auto legacy = engine.Search({q, 7}).hits;

    baselines::SearchRequest request;
    request.query = q;
    request.k = 7;  // every optional knob unset: inherits the config
    const baselines::SearchResponse response = engine.Search(request);

    ASSERT_EQ(legacy.size(), response.hits.size()) << "query " << d;
    for (size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(legacy[i].doc_index, response.hits[i].doc_index);
      EXPECT_EQ(legacy[i].score, response.hits[i].score);
    }
    EXPECT_EQ(response.snapshot_docs, corpus_.corpus.size());
    EXPECT_GT(response.timings.Count("ns"), 0);
  }
}

TEST_F(ConcurrentSearchTest, WriterVsReadersSeeOnlyCompleteEpochs) {
  // The tentpole TSan scenario: one writer ingesting documents while
  // reader threads query. Every response must be internally consistent —
  // all hits below its snapshot_docs, snapshot at least the pre-ingest
  // corpus, epochs non-decreasing per thread.
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  const size_t base_docs = corpus_.corpus.size();

  corpus::SyntheticNewsConfig fresh_config = corpus::CnnLikeConfig();
  fresh_config.num_stories = 8;
  fresh_config.seed = 4242;
  const corpus::SyntheticCorpus fresh =
      corpus::SyntheticNewsGenerator(&kg_, fresh_config).Generate();

  std::atomic<int> violations{0};
  std::atomic<bool> done{false};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_epoch = 0;
      size_t last_docs = 0;
      int round = 0;
      // Keep querying until the writer finishes (and at least once).
      do {
        baselines::SearchRequest request;
        request.query = FirstSentenceOf((t + round++) % 8);
        request.k = 10;
        const baselines::SearchResponse r = engine.Search(request);
        if (r.snapshot_docs < base_docs) violations.fetch_add(1);
        if (r.epoch < last_epoch || r.snapshot_docs < last_docs) {
          violations.fetch_add(1);
        }
        for (const baselines::SearchHit& hit : r.hits) {
          if (hit.doc_index >= r.snapshot_docs) violations.fetch_add(1);
        }
        last_epoch = r.epoch;
        last_docs = r.snapshot_docs;
      } while (!done.load(std::memory_order_acquire));
    });
  }

  size_t added = 0;
  for (size_t d = 0; d < fresh.corpus.size(); ++d) {
    const size_t index = engine.AddDocument(fresh.corpus.doc(d));
    EXPECT_EQ(index, base_docs + added);
    ++added;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0)
      << "readers must never observe a half-published epoch";
  EXPECT_EQ(engine.num_indexed_docs(), base_docs + added);

  const metrics::Registry& metrics = engine.Metrics();
  const uint64_t epochs_published = metrics.CounterValue(kEpochsPublished);
  // Epoch 0 (empty) + Index + one per AddDocument.
  EXPECT_EQ(epochs_published, 2 + added);
  EXPECT_EQ(metrics.GaugeValue(kCurrentEpoch), 1.0 + added);
  EXPECT_GT(metrics.CounterValue(kSnapshotAcquisitions), 0u);
  // Every superseded epoch has been reclaimed (no readers left).
  EXPECT_EQ(metrics.CounterValue(kSnapshotsReclaimed), epochs_published - 1);

  // The appended documents are searchable at the final epoch.
  baselines::SearchRequest request;
  const std::string& text = fresh.corpus.doc(0).text;
  request.query = text.substr(0, text.find('.') + 1);
  request.k = 5;
  const baselines::SearchResponse final_response = engine.Search(request);
  EXPECT_EQ(final_response.snapshot_docs, base_docs + added);
}

TEST_F(ConcurrentSearchTest, PrunedMatchesExhaustiveOnEveryPublishedEpoch) {
  // Snapshot-keyed bounds property: after every single published epoch —
  // including mid-ingestion ones — pruned fusion must still equal the
  // exhaustive oracle evaluated at that same epoch.
  NewsLinkEngine engine = MakeEngine(0.2);

  corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
  config.num_stories = 6;
  config.seed = 1234;
  const corpus::SyntheticCorpus stream =
      corpus::SyntheticNewsGenerator(&kg_, config).Generate();

  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  size_t expected_docs = corpus_.corpus.size();
  for (size_t d = 0; d < stream.corpus.size(); ++d) {
    engine.AddDocument(stream.corpus.doc(d));
    ++expected_docs;
    for (double beta : {0.2, 0.7}) {
      baselines::SearchRequest request;
      request.query = FirstSentenceOf(d % 8);
      request.k = 5;
      request.beta = beta;
      request.exhaustive_fusion = false;
      const baselines::SearchResponse pruned = engine.Search(request);
      request.exhaustive_fusion = true;
      const baselines::SearchResponse exact = engine.Search(request);

      EXPECT_EQ(pruned.snapshot_docs, expected_docs);
      EXPECT_EQ(exact.snapshot_docs, expected_docs);
      ASSERT_EQ(pruned.hits.size(), exact.hits.size())
          << "epoch with " << expected_docs << " docs, beta=" << beta;
      for (size_t i = 0; i < pruned.hits.size(); ++i) {
        EXPECT_EQ(pruned.hits[i].doc_index, exact.hits[i].doc_index)
            << "epoch with " << expected_docs << " docs, beta=" << beta
            << " rank " << i;
        EXPECT_EQ(pruned.hits[i].score, exact.hits[i].score)
            << "epoch with " << expected_docs << " docs, beta=" << beta
            << " rank " << i;
      }
    }
  }
}

TEST_F(ConcurrentSearchTest, PrunedFusionScoresFewerDocuments) {
  // Pruning only has headroom when the corpus is much larger than the
  // first round's candidate depth, so this test uses its own bigger corpus.
  corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
  config.num_stories = 120;
  const corpus::SyntheticCorpus big =
      corpus::SyntheticNewsGenerator(&kg_, config).Generate();

  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(big.corpus).ok());

  auto query = [&](size_t doc) {
    const std::string& text = big.corpus.doc(doc).text;
    return text.substr(0, text.find('.') + 1);
  };

  auto run = [&](size_t doc, bool exhaustive) {
    baselines::SearchRequest request;
    request.query = query(doc);
    request.k = 5;
    request.exhaustive_fusion = exhaustive;
    engine.Search(request);
  };

  auto bow_scored = [&] { return engine.Metrics().CounterValue(kBowDocsScored); };
  const uint64_t base_bow = bow_scored();
  for (size_t d = 0; d < 10; ++d) run(d, /*exhaustive=*/true);
  const uint64_t exhaustive_bow = bow_scored() - base_bow;

  for (size_t d = 0; d < 10; ++d) run(d, /*exhaustive=*/false);
  const uint64_t pruned_bow = bow_scored() - base_bow - exhaustive_bow;

  EXPECT_LT(pruned_bow, exhaustive_bow)
      << "MaxScore retrieval must score strictly fewer text-side documents";
}

}  // namespace
}  // namespace newslink
