// Tests for the full NewsLinkEngine: indexing, β-fused search (Eq. 3),
// explained search, timing instrumentation, TreeEmb mode.

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "baselines/lucene_like_engine.h"
#include "corpus/synthetic_news.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "newslink/newslink_engine.h"
#include "newslink/shard_api.h"

namespace newslink {
namespace {

class NewsLinkEngineTest : public ::testing::Test {
 protected:
  NewsLinkEngineTest() : kg_(MakeKg()), index_(kg_.graph) {
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

  NewsLinkEngine MakeEngine(double beta,
                            EmbedderKind kind = EmbedderKind::kLcag) {
    NewsLinkConfig config;
    config.beta = beta;
    config.embedder = kind;
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

TEST_F(NewsLinkEngineTest, NameReflectsConfig) {
  EXPECT_EQ(MakeEngine(0.2).name(), "NewsLink(0.2)");
  EXPECT_EQ(MakeEngine(1.0, EmbedderKind::kTree).name(), "TreeEmb(1)");
}

TEST_F(NewsLinkEngineTest, IndexEmbedsMostDocuments) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  EXPECT_EQ(engine.num_indexed_docs(), corpus_.corpus.size());
  // The paper reports 91-96% corpus coverage; our generator should match.
  EXPECT_GT(engine.EmbeddedDocumentFraction(), 0.9);
}

TEST_F(NewsLinkEngineTest, PartialQueryRecoversSourceDocument) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  size_t hits = 0;
  const size_t trials = 20;
  for (size_t d = 0; d < trials; ++d) {
    const auto results = engine.Search({FirstSentenceOf(d), 5}).hits;
    for (const auto& r : results) {
      if (r.doc_index == d) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits, trials - 3);  // robust recovery
}

TEST_F(NewsLinkEngineTest, BetaZeroMatchesLuceneRanking) {
  NewsLinkEngine engine = MakeEngine(0.0);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  baselines::LuceneLikeEngine lucene;
  ASSERT_TRUE(lucene.Index(corpus_.corpus).ok());

  for (size_t d = 0; d < 10; ++d) {
    const std::string q = FirstSentenceOf(d);
    const auto a = engine.Search({q, 5}).hits;
    const auto b = lucene.Search({q, 5}).hits;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc_index, b[i].doc_index)
          << "beta=0 must reduce to the Lucene approach (paper Table VII)";
    }
  }
}

TEST_F(NewsLinkEngineTest, PureBonSearchWorks) {
  NewsLinkEngine engine = MakeEngine(1.0);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  const auto results = engine.Search({FirstSentenceOf(3), 5}).hits;
  EXPECT_FALSE(results.empty());
}

TEST_F(NewsLinkEngineTest, ScoresAreDescending) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  const auto results = engine.Search({FirstSentenceOf(0), 10}).hits;
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i].score, results[i - 1].score);
  }
}

TEST_F(NewsLinkEngineTest, FusedScoresBoundedByOne) {
  // Both sides are max-normalized, so a fused score is at most 1.
  NewsLinkEngine engine = MakeEngine(0.5);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  for (const auto& r : engine.Search({FirstSentenceOf(0), 10}).hits) {
    EXPECT_LE(r.score, 1.0 + 1e-9);
    EXPECT_GE(r.score, 0.0);
  }
}

TEST_F(NewsLinkEngineTest, SearchExplainedAttachesPaths) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  const auto results = engine.Search({.query = FirstSentenceOf(5), .k = 3, .explain = true, .max_paths_per_result = 4}).hits;
  ASSERT_FALSE(results.empty());
  bool any_paths = false;
  for (const auto& r : results) {
    EXPECT_LE(r.paths.size(), 4u);
    if (!r.paths.empty()) {
      any_paths = true;
      const std::string rendered = r.paths[0].Render(kg_.graph);
      EXPECT_FALSE(rendered.empty());
    }
  }
  EXPECT_TRUE(any_paths);
}

TEST_F(NewsLinkEngineTest, EmbedTextProducesEmbeddingForEntitySentence) {
  NewsLinkEngine engine = MakeEngine(0.2);
  const embed::DocumentEmbedding emb =
      engine.EmbedText(FirstSentenceOf(0) + " " + FirstSentenceOf(1));
  // Synthetic sentences nearly always carry entities; embedding non-empty.
  EXPECT_FALSE(emb.empty());
}

TEST_F(NewsLinkEngineTest, IndexStageHistogramsCoverAllComponents) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  const metrics::Registry& metrics = engine.Metrics();
  const uint64_t docs = corpus_.corpus.size();
  EXPECT_EQ(metrics.FindHistogram(kIndexNlpSeconds)->Count(), docs);
  EXPECT_EQ(metrics.FindHistogram(kIndexNeSeconds)->Count(), docs);
  EXPECT_EQ(metrics.FindHistogram(kIndexNsSeconds)->Count(), docs);
  EXPECT_GT(metrics.FindHistogram(kIndexNeSeconds)->Sum(), 0.0);
}

TEST_F(NewsLinkEngineTest, QueryStageHistogramsAccumulatePerQuery) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  engine.Search({FirstSentenceOf(0), 5}).hits;
  engine.Search({FirstSentenceOf(1), 5}).hits;
  const metrics::Registry& metrics = engine.Metrics();
  EXPECT_EQ(metrics.FindHistogram(kQueryNlpSeconds)->Count(), 2u);
  EXPECT_EQ(metrics.FindHistogram(kQueryNeSeconds)->Count(), 2u);
  EXPECT_EQ(metrics.FindHistogram(kQueryNsSeconds)->Count(), 2u);
  // The shared engine-level series move in lockstep.
  EXPECT_EQ(metrics.CounterValue(baselines::kEngineQueries), 2u);
  EXPECT_EQ(metrics.FindHistogram(baselines::kEngineQuerySeconds)->Count(),
            2u);
}

TEST_F(NewsLinkEngineTest, TraceSpansCoverEveryFusedQueryStage) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());

  baselines::SearchRequest request;
  request.query = FirstSentenceOf(0);
  request.k = 5;
  request.explain = true;
  request.max_paths_per_result = 3;
  request.trace = true;
  const baselines::SearchResponse response = engine.Search(request);

  const TraceSpan& root = response.trace;
  EXPECT_EQ(root.name, "search");
  EXPECT_GT(root.duration_seconds, 0.0);
  ASSERT_EQ(root.children.size(), 4u);
  EXPECT_EQ(root.children[0].name, "nlp");
  EXPECT_EQ(root.children[1].name, "ne");
  EXPECT_EQ(root.children[2].name, "ns");
  EXPECT_EQ(root.children[3].name, "explain");

  // The NLP span notes the segment count; the NS span notes how many
  // documents each side scored and how many shards were searched deeper.
  ASSERT_FALSE(root.children[0].notes.empty());
  EXPECT_EQ(root.children[0].notes[0].first, "segments");
  const TraceSpan* ns = root.Find("ns");
  ASSERT_NE(ns, nullptr);
  ASSERT_EQ(ns->notes.size(), 3u);
  EXPECT_EQ(ns->notes[0].first, "bow_scored");
  EXPECT_EQ(ns->notes[1].first, "bon_scored");
  EXPECT_EQ(ns->notes[2].first, "deepened");

  // The NE stage nests one "segment" span per embedded entity group.
  const TraceSpan* ne = root.Find("ne");
  ASSERT_NE(ne, nullptr);
  EXPECT_FALSE(ne->children.empty());
  EXPECT_EQ(ne->children[0].name, "segment");

  // The stage spans account for (nearly) all of the query's wall-clock;
  // the bench gates the concurrent mean at 95%, unit tests use a laxer
  // bound to stay robust on loaded CI machines.
  EXPECT_GE(root.ChildrenSeconds(), 0.80 * root.duration_seconds);
  EXPECT_LE(root.ChildrenSeconds(), root.duration_seconds + 1e-9);

  // The response timings are the same tree, bucketed.
  EXPECT_EQ(response.timings.Count("nlp"), 1);
  EXPECT_NEAR(response.timings.TotalSeconds("ns"), ns->duration_seconds,
              1e-12);
}

TEST_F(NewsLinkEngineTest, TraceIsOptInAndNeSkipNoted) {
  NewsLinkEngine engine = MakeEngine(0.0);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());

  baselines::SearchRequest request;
  request.query = FirstSentenceOf(1);
  request.k = 5;
  const baselines::SearchResponse untraced = engine.Search(request);
  EXPECT_TRUE(untraced.trace.empty());

  request.trace = true;
  const baselines::SearchResponse traced = engine.Search(request);
  // beta == 0 without explanations: the NE stage is skipped and says so.
  const TraceSpan* ne = traced.trace.Find("ne");
  ASSERT_NE(ne, nullptr);
  ASSERT_EQ(ne->notes.size(), 1u);
  EXPECT_EQ(ne->notes[0].first, "skipped");
  EXPECT_EQ(ne->notes[0].second, "beta=0");
  EXPECT_TRUE(ne->children.empty());
}

TEST_F(NewsLinkEngineTest, SlowQueryLogRecordsTraceAboveThreshold) {
  NewsLinkConfig config;
  config.beta = 0.2;
  config.num_threads = 2;
  config.slow_query_threshold_seconds = 1e-9;  // everything is "slow"
  config.slow_query_log_capacity = 4;
  NewsLinkEngine engine(&kg_.graph, &index_, config);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());

  for (size_t d = 0; d < 6; ++d) engine.Search({FirstSentenceOf(d), 3}).hits;
  EXPECT_EQ(engine.slow_query_log().size(), 4u);  // bounded at capacity
  const std::vector<SlowQueryRecord> entries = engine.slow_query_log().Entries();
  EXPECT_EQ(entries.back().query, FirstSentenceOf(5));
  EXPECT_EQ(entries.back().trace.name, "search");
  EXPECT_FALSE(entries.back().trace.children.empty());
  EXPECT_EQ(engine.Metrics().CounterValue(kSlowQueries), 6u);

  // Disabled by default: no records, no overhead.
  NewsLinkEngine quiet = MakeEngine(0.2);
  ASSERT_TRUE(quiet.Index(corpus_.corpus).ok());
  quiet.Search({FirstSentenceOf(0), 3}).hits;
  EXPECT_EQ(quiet.slow_query_log().size(), 0u);
}

TEST_F(NewsLinkEngineTest, TreeEmbedderModeIndexesAndSearches) {
  NewsLinkEngine engine = MakeEngine(0.2, EmbedderKind::kTree);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  EXPECT_GT(engine.EmbeddedDocumentFraction(), 0.9);
  const auto results = engine.Search({FirstSentenceOf(2), 5}).hits;
  EXPECT_FALSE(results.empty());
}

TEST_F(NewsLinkEngineTest, TreeEmbeddingsAreSmallerThanLcag) {
  // Coverage property: G* retains parallel shortest paths, trees do not,
  // so LCAG embeddings must have at least as many nodes on average.
  NewsLinkEngine lcag = MakeEngine(1.0);
  NewsLinkEngine tree = MakeEngine(1.0, EmbedderKind::kTree);
  ASSERT_TRUE(lcag.Index(corpus_.corpus).ok());
  ASSERT_TRUE(tree.Index(corpus_.corpus).ok());
  size_t lcag_nodes = 0, tree_nodes = 0;
  for (size_t i = 0; i < corpus_.corpus.size(); ++i) {
    lcag_nodes += lcag.doc_embedding(i).num_distinct_nodes();
    tree_nodes += tree.doc_embedding(i).num_distinct_nodes();
  }
  EXPECT_GE(lcag_nodes, tree_nodes);
}

TEST_F(NewsLinkEngineTest, ReorderedIndexReturnsSameHitsAsNaturalOrder) {
  // reorder_docs renumbers internal doc ids by SimHash signature but the
  // API speaks corpus row numbers throughout, and a document's BM25 score
  // does not depend on its id: searches must surface the same documents
  // in the same order with bit-identical scores (exact ties break on
  // corpus rows in both engines).
  NewsLinkEngine natural = MakeEngine(0.2);
  NewsLinkConfig config;
  config.beta = 0.2;
  config.num_threads = 2;
  config.reorder_docs = true;
  NewsLinkEngine reordered(&kg_.graph, &index_, config);
  ASSERT_TRUE(natural.Index(corpus_.corpus).ok());
  ASSERT_TRUE(reordered.Index(corpus_.corpus).ok());
  EXPECT_EQ(reordered.num_indexed_docs(), corpus_.corpus.size());

  for (size_t d = 0; d < 10; ++d) {
    const std::string q = FirstSentenceOf(d);
    const auto a = natural.Search({q, 8}).hits;
    const auto b = reordered.Search({q, 8}).hits;
    ASSERT_EQ(a.size(), b.size()) << "query doc " << d;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i].doc_index, a[i].doc_index)
          << "query doc " << d << " rank " << i;
      EXPECT_EQ(b[i].score, a[i].score) << "query doc " << d << " rank " << i;
    }
  }
}

TEST_F(NewsLinkEngineTest, ReorderKeepsEmbeddingsInCorpusRowOrder) {
  NewsLinkEngine natural = MakeEngine(0.2);
  NewsLinkConfig config;
  config.beta = 0.2;
  config.num_threads = 2;
  config.reorder_docs = true;
  NewsLinkEngine reordered(&kg_.graph, &index_, config);
  ASSERT_TRUE(natural.Index(corpus_.corpus).ok());
  ASSERT_TRUE(reordered.Index(corpus_.corpus).ok());

  // doc_embedding(i) and SnapshotEmbeddings() both address corpus rows, so
  // the reordered engine must agree with the natural one row by row.
  const auto natural_embs = natural.SnapshotEmbeddings();
  const auto reordered_embs = reordered.SnapshotEmbeddings();
  ASSERT_EQ(natural_embs.size(), reordered_embs.size());
  for (size_t i = 0; i < natural_embs.size(); ++i) {
    EXPECT_EQ(reordered_embs[i].node_counts, natural_embs[i].node_counts)
        << "row " << i;
    EXPECT_EQ(reordered.doc_embedding(i).node_counts,
              natural.doc_embedding(i).node_counts)
        << "row " << i;
  }
}

TEST_F(NewsLinkEngineTest, AddDocumentOnReorderedIndexUsesNextCorpusRow) {
  NewsLinkConfig config;
  config.beta = 0.2;
  config.num_threads = 2;
  config.reorder_docs = true;
  NewsLinkEngine engine(&kg_.graph, &index_, config);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());

  corpus::Document doc = corpus_.corpus.doc(7);
  doc.id = "live-append";
  const size_t row = engine.AddDocument(doc);
  EXPECT_EQ(row, corpus_.corpus.size());
  EXPECT_EQ(engine.num_indexed_docs(), corpus_.corpus.size() + 1);
  // The appended copy is a duplicate of row 7, so a query drawn from doc 7
  // must surface the new row among its hits.
  const auto hits = engine.Search({FirstSentenceOf(7), 10}).hits;
  const bool found = std::any_of(
      hits.begin(), hits.end(),
      [row](const baselines::SearchHit& h) { return h.doc_index == row; });
  EXPECT_TRUE(found) << "live-appended duplicate not retrievable";
}

TEST_F(NewsLinkEngineTest, BulkIndexingRequiresEmptyEngine) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  EXPECT_TRUE(engine.Index(corpus_.corpus).IsFailedPrecondition());
  EXPECT_TRUE(engine
                  .IndexWithEmbeddings(corpus_.corpus,
                                       engine.SnapshotEmbeddings())
                  .IsFailedPrecondition());
}

TEST_F(NewsLinkEngineTest, DeterministicAcrossRuns) {
  NewsLinkEngine a = MakeEngine(0.2);
  NewsLinkEngine b = MakeEngine(0.2);
  ASSERT_TRUE(a.Index(corpus_.corpus).ok());
  ASSERT_TRUE(b.Index(corpus_.corpus).ok());
  const auto ra = a.Search({FirstSentenceOf(4), 10}).hits;
  const auto rb = b.Search({FirstSentenceOf(4), 10}).hits;
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].doc_index, rb[i].doc_index);
    EXPECT_DOUBLE_EQ(ra[i].score, rb[i].score);
  }
}

// ---------------------------------------------------------------------------
// Time-aware search (DESIGN.md Sec. 15): time_range pushdown + recency decay
// ---------------------------------------------------------------------------

TEST_F(NewsLinkEngineTest, TimeRangeBoundariesAreHalfOpen) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  const size_t target = 4;
  const int64_t t = corpus_.corpus.doc(target).timestamp_ms;
  ASSERT_GT(t, 0);

  auto search_in = [&](baselines::TimeRange range) {
    baselines::SearchRequest req;
    req.query = FirstSentenceOf(target);
    req.k = corpus_.corpus.size();
    req.time_range = range;
    return engine.Search(req).hits;
  };
  auto contains_target = [&](const std::vector<baselines::SearchHit>& hits) {
    return std::any_of(hits.begin(), hits.end(),
                       [&](const baselines::SearchHit& h) {
                         return h.doc_index == target;
                       });
  };

  // The window is [after_ms, before_ms): a timestamp equal to after_ms is
  // inside, one equal to before_ms is outside.
  EXPECT_TRUE(contains_target(search_in({t, t + 1})));
  EXPECT_FALSE(contains_target(search_in({t + 1,
                                          std::numeric_limits<int64_t>::max()})));
  EXPECT_FALSE(contains_target(search_in({0, t})));
  EXPECT_TRUE(contains_target(
      search_in({t, std::numeric_limits<int64_t>::max()})));

  // Every hit of a windowed search carries an in-window timestamp.
  for (const baselines::SearchHit& h : search_in({t, t + 1})) {
    EXPECT_EQ(corpus_.corpus.doc(h.doc_index).timestamp_ms, t);
  }
}

TEST_F(NewsLinkEngineTest, TimeRangePushdownMatchesPostHocExhaustiveFilter) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  const size_t n = corpus_.corpus.size();

  int64_t t_min = std::numeric_limits<int64_t>::max(), t_max = 0;
  for (const corpus::Document& d : corpus_.corpus.docs()) {
    t_min = std::min(t_min, d.timestamp_ms);
    t_max = std::max(t_max, d.timestamp_ms);
  }
  const int64_t quarter = (t_max - t_min) / 4;
  const std::vector<baselines::TimeRange> windows = {
      {t_min + quarter, t_min + 3 * quarter},
      {t_min, t_min + quarter},
      {t_min + 3 * quarter, std::numeric_limits<int64_t>::max()},
  };

  for (size_t d = 0; d < 6; ++d) {
    const std::string q = FirstSentenceOf(d * 3);
    baselines::SearchRequest unfiltered;
    unfiltered.query = q;
    unfiltered.k = n;
    unfiltered.exhaustive_fusion = true;
    const auto all_hits = engine.Search(unfiltered).hits;

    for (const baselines::TimeRange& window : windows) {
      // Reference: the exhaustive unfiltered ranking, filtered post hoc.
      // Normalization bases can differ, so the property is doc-SET
      // equality (which documents survive), not score equality.
      std::set<size_t> expected;
      for (const baselines::SearchHit& h : all_hits) {
        if (window.Contains(corpus_.corpus.doc(h.doc_index).timestamp_ms)) {
          expected.insert(h.doc_index);
        }
      }

      baselines::SearchRequest exact;
      exact.query = q;
      exact.k = n;
      exact.exhaustive_fusion = true;
      exact.time_range = window;
      const auto exact_hits = engine.Search(exact).hits;
      std::set<size_t> got;
      for (const baselines::SearchHit& h : exact_hits) {
        got.insert(h.doc_index);
      }
      EXPECT_EQ(got, expected) << q;

      // And the pruned path agrees with the exhaustive oracle under the
      // same window: same document set, scores within the usual DAAT/TAAT
      // summation-order tolerance.
      baselines::SearchRequest pruned = exact;
      pruned.exhaustive_fusion = false;
      const auto pruned_hits = engine.Search(pruned).hits;
      ASSERT_EQ(pruned_hits.size(), exact_hits.size()) << q;
      std::map<size_t, double> exact_scores;
      for (const baselines::SearchHit& h : exact_hits) {
        exact_scores[h.doc_index] = h.score;
      }
      for (const baselines::SearchHit& h : pruned_hits) {
        const auto it = exact_scores.find(h.doc_index);
        ASSERT_NE(it, exact_scores.end()) << "doc " << h.doc_index;
        EXPECT_NEAR(h.score, it->second, 1e-9) << "doc " << h.doc_index;
      }
    }
  }
}

TEST_F(NewsLinkEngineTest, InfiniteHalfLifeIsBitExactWithRecencyDisabled) {
  // +infinity decays every score by exactly 1.0, an IEEE identity — so the
  // recency code path must reproduce the no-recency ranking bit for bit,
  // with and without doc-id reordering, before and after an epoch change.
  for (const bool reorder : {false, true}) {
    NewsLinkConfig config;
    config.beta = 0.2;
    config.num_threads = 2;
    config.reorder_docs = reorder;
    NewsLinkEngine engine(&kg_.graph, &index_, config);
    ASSERT_TRUE(engine.Index(corpus_.corpus).ok());

    auto expect_bit_exact = [&]() {
      for (size_t d = 0; d < 5; ++d) {
        baselines::SearchRequest plain;
        plain.query = FirstSentenceOf(d);
        plain.k = 10;
        baselines::SearchRequest inf = plain;
        inf.recency_half_life_seconds =
            std::numeric_limits<double>::infinity();
        const auto a = engine.Search(plain).hits;
        const auto b = engine.Search(inf).hits;
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(b[i].doc_index, a[i].doc_index) << "reorder " << reorder;
          EXPECT_EQ(b[i].score, a[i].score) << "reorder " << reorder;
        }
      }
    };
    expect_bit_exact();

    // A live append publishes a new epoch; the identity must survive it.
    corpus::Document doc = corpus_.corpus.doc(2);
    doc.id = "live-epoch-bump";
    engine.AddDocument(doc);
    expect_bit_exact();
  }
}

TEST_F(NewsLinkEngineTest, RecencyDecayMultipliesFusedScoresExactly) {
  NewsLinkEngine engine = MakeEngine(0.2);
  ASSERT_TRUE(engine.Index(corpus_.corpus).ok());
  const size_t n = corpus_.corpus.size();

  int64_t t_max = 0;
  for (const corpus::Document& d : corpus_.corpus.docs()) {
    t_max = std::max(t_max, d.timestamp_ms);
  }
  const int64_t now = t_max + 1000;
  const double half_life_s = 6 * 3600.0;

  for (size_t d = 0; d < 5; ++d) {
    baselines::SearchRequest base;
    base.query = FirstSentenceOf(d * 2);
    base.k = n;
    base.exhaustive_fusion = true;
    const auto undecayed = engine.Search(base).hits;
    std::map<size_t, double> base_score;
    for (const baselines::SearchHit& h : undecayed) {
      base_score[h.doc_index] = h.score;
    }

    baselines::SearchRequest decayed = base;
    decayed.recency_half_life_seconds = half_life_s;
    decayed.now_ms = now;
    const auto hits = engine.Search(decayed).hits;
    ASSERT_EQ(hits.size(), undecayed.size());
    for (const baselines::SearchHit& h : hits) {
      const auto it = base_score.find(h.doc_index);
      ASSERT_NE(it, base_score.end());
      const double expected =
          it->second * RecencyDecay(corpus_.corpus.doc(h.doc_index).timestamp_ms,
                                    now, half_life_s);
      EXPECT_EQ(h.score, expected) << "doc " << h.doc_index;
      EXPECT_LE(h.score, it->second);  // decay only ever shrinks scores
    }
  }
}

}  // namespace
}  // namespace newslink
