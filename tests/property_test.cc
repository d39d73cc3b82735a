// Cross-module property tests: randomized sweeps asserting invariants that
// must hold for every input, not just curated examples.

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embed/lcag_search.h"
#include "ir/inverted_index.h"
#include "ir/max_score.h"
#include "ir/reorder.h"
#include "ir/scorer.h"
#include "ir/top_k.h"
#include "kg/graph_stats.h"
#include "kg/label_index.h"
#include "text/news_segmenter.h"
#include "text/porter_stemmer.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace newslink {
namespace {

// ---------------------------------------------------------------------------
// BM25 TAAT scoring vs brute force
// ---------------------------------------------------------------------------

class Bm25BruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Bm25BruteForceTest, ScoreAllMatchesDirectFormula) {
  Rng rng(GetParam());
  const size_t num_docs = 40;
  const size_t vocab = 30;

  std::vector<ir::TermCounts> docs(num_docs);
  ir::InvertedIndex index;
  for (auto& doc : docs) {
    std::map<ir::TermId, uint32_t> counts;
    const size_t n = 3 + rng.Uniform(20);
    for (size_t i = 0; i < n; ++i) {
      ++counts[static_cast<ir::TermId>(rng.Uniform(vocab))];
    }
    doc.assign(counts.begin(), counts.end());
    index.AddDocument(doc);
  }
  ir::Bm25Scorer scorer(&index);

  ir::TermCounts query = {{static_cast<ir::TermId>(rng.Uniform(vocab)), 1},
                          {static_cast<ir::TermId>(rng.Uniform(vocab)), 2}};

  // Brute force: walk every document's raw counts.
  std::map<ir::DocId, double> expected;
  const double avgdl = index.avg_doc_length();
  for (size_t d = 0; d < num_docs; ++d) {
    double score = 0.0;
    for (const auto& [qterm, qtf] : query) {
      for (const auto& [term, tf] : docs[d]) {
        if (term != qterm) continue;
        const double idf = scorer.Idf(term);
        const double dl = index.DocLength(static_cast<ir::DocId>(d));
        const double norm = 1.2 * (1.0 - 0.75 + 0.75 * dl / avgdl);
        score += qtf * idf * tf * 2.2 / (tf + norm);
      }
    }
    if (score > 0) expected[static_cast<ir::DocId>(d)] = score;
  }

  std::map<ir::DocId, double> actual;
  for (const ir::ScoredDoc& s : scorer.ScoreAll(query)) {
    actual[s.doc] = s.score;
  }
  // Duplicate query term ids would double-count in the brute force; the
  // generator can emit them, making both sides double-count equally.
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [doc, score] : expected) {
    EXPECT_NEAR(actual[doc], score, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Bm25BruteForceTest,
                         ::testing::Range<uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// Maximal co-occurrence set properties
// ---------------------------------------------------------------------------

class MaximalSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaximalSetPropertyTest, KeptSetsAreMaximalAndCoverDropped) {
  Rng rng(GetParam());
  std::vector<std::vector<std::string>> sets;
  const size_t n = 2 + rng.Uniform(12);
  for (size_t i = 0; i < n; ++i) {
    std::set<std::string> s;
    const size_t len = rng.Uniform(5);  // may be empty
    for (size_t j = 0; j < len; ++j) {
      s.insert("e" + std::to_string(rng.Uniform(6)));
    }
    sets.emplace_back(s.begin(), s.end());
  }

  const std::vector<size_t> kept = text::MaximalCooccurrenceSets(sets);
  auto as_set = [&sets](size_t i) {
    return std::set<std::string>(sets[i].begin(), sets[i].end());
  };

  // 1. No kept set is a subset of another kept set.
  for (size_t a : kept) {
    for (size_t b : kept) {
      if (a == b) continue;
      const auto sa = as_set(a);
      const auto sb = as_set(b);
      EXPECT_FALSE(std::includes(sb.begin(), sb.end(), sa.begin(), sa.end()))
          << "kept set " << a << " subsumed by kept set " << b;
    }
  }
  // 2. Every non-empty dropped set is a subset of some kept set.
  const std::set<size_t> kept_set(kept.begin(), kept.end());
  for (size_t i = 0; i < n; ++i) {
    if (kept_set.contains(i) || sets[i].empty()) continue;
    const auto si = as_set(i);
    bool covered = false;
    for (size_t kidx : kept) {
      const auto sk = as_set(kidx);
      if (std::includes(sk.begin(), sk.end(), si.begin(), si.end())) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "dropped set " << i << " not covered";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaximalSetPropertyTest,
                         ::testing::Range<uint64_t>(0, 16));

// ---------------------------------------------------------------------------
// Tokenizer / sentence splitter robustness on random bytes
// ---------------------------------------------------------------------------

class TextRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextRobustnessTest, TokenizerOffsetsPartitionNonSpaceText) {
  Rng rng(GetParam());
  std::string text;
  const char* alphabet = "abc XY.,'!?7\t\n";
  for (int i = 0; i < 200; ++i) {
    text.push_back(alphabet[rng.Uniform(14)]);
  }
  const auto tokens = text::Tokenize(text);
  size_t last_end = 0;
  for (const text::Token& t : tokens) {
    EXPECT_GE(t.begin, last_end);
    EXPECT_LT(t.begin, t.end);
    EXPECT_LE(t.end, text.size());
    EXPECT_EQ(text.substr(t.begin, t.end - t.begin), t.text);
    last_end = t.end;
  }
}

TEST_P(TextRobustnessTest, SentenceSpansAreOrderedAndDisjoint) {
  Rng rng(GetParam() + 100);
  std::string text;
  const char* alphabet = "abcd efg. Hi! Wh? .. ";
  for (int i = 0; i < 300; ++i) {
    text.push_back(alphabet[rng.Uniform(21)]);
  }
  const auto spans = text::SplitSentences(text);
  size_t last_end = 0;
  for (const auto& span : spans) {
    EXPECT_GE(span.begin, last_end);
    EXPECT_LT(span.begin, span.end);
    EXPECT_LE(span.end, text.size());
    last_end = span.end;
  }
}

TEST_P(TextRobustnessTest, PorterStemNeverGrowsOrCrashes) {
  Rng rng(GetParam() + 200);
  const char* letters = "abcdefghijklmnopqrstuvwxyz";
  for (int trial = 0; trial < 200; ++trial) {
    std::string word;
    const size_t len = 1 + rng.Uniform(14);
    for (size_t i = 0; i < len; ++i) {
      word.push_back(letters[rng.Uniform(26)]);
    }
    const std::string stem = text::PorterStem(word);
    EXPECT_LE(stem.size(), word.size() + 1)
        << word << " -> " << stem;  // +1: -bl/-iz/-at add back an 'e'
    EXPECT_FALSE(stem.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextRobustnessTest,
                         ::testing::Range<uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// G* invariants on random weighted graphs
// ---------------------------------------------------------------------------

class GStarInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GStarInvariantTest, MaterializedGraphHasSoundStructure) {
  Rng rng(GetParam());
  kg::KgBuilder b;
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    b.AddNode("node" + std::to_string(i), kg::EntityType::kGpe);
  }
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(
        b.AddEdge(i, static_cast<kg::NodeId>(rng.Uniform(i)), "p").ok());
  }
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<kg::NodeId>(rng.Uniform(n));
    const auto v = static_cast<kg::NodeId>(rng.Uniform(n));
    if (u != v) {
      ASSERT_TRUE(b.AddEdge(u, v, "q").ok());
    }
  }
  kg::KnowledgeGraph g = b.Build();
  kg::LabelIndex index(g);
  embed::LcagSearch search(&g, &index);

  std::vector<std::string> labels;
  for (size_t idx : rng.SampleWithoutReplacement(n, 3)) {
    labels.push_back("node" + std::to_string(idx));
  }
  const embed::LcagResult result = search.Find(labels);
  ASSERT_TRUE(result.found);
  const embed::AncestorGraph& gs = result.graph;

  // Root is a node of the subgraph; sources subset of nodes; every edge's
  // endpoints are nodes of the subgraph.
  const std::set<kg::NodeId> nodes(gs.nodes.begin(), gs.nodes.end());
  EXPECT_TRUE(nodes.contains(gs.root));
  for (kg::NodeId s : gs.source_nodes) EXPECT_TRUE(nodes.contains(s));
  for (const embed::PathEdge& e : gs.edges) {
    EXPECT_TRUE(nodes.contains(e.from));
    EXPECT_TRUE(nodes.contains(e.to));
    EXPECT_NE(e.from, e.to);
  }
  // Depth equals the max label distance; all distances finite.
  double max_dist = 0;
  for (double d : gs.label_distances) {
    EXPECT_LT(d, embed::kInfDistance);
    max_dist = std::max(max_dist, d);
  }
  EXPECT_DOUBLE_EQ(gs.depth(), max_dist);

  // Lemma 2 (unit-ish weights): subgraph diameter <= 2 * depth, checked in
  // hop-count terms via the original graph's BFS as an upper-bound proxy:
  // every node of G* reaches the root within depth (by construction the
  // paths retained end at the root).
  std::map<kg::NodeId, std::vector<kg::NodeId>> adj;
  for (const embed::PathEdge& e : gs.edges) {
    adj[e.from].push_back(e.to);
    adj[e.to].push_back(e.from);
  }
  for (kg::NodeId start : gs.nodes) {
    // Connectivity of the materialized subgraph.
    std::set<kg::NodeId> visited = {start};
    std::vector<kg::NodeId> stack = {start};
    while (!stack.empty()) {
      const kg::NodeId v = stack.back();
      stack.pop_back();
      for (kg::NodeId nb : adj[v]) {
        if (visited.insert(nb).second) stack.push_back(nb);
      }
    }
    EXPECT_EQ(visited.size(), gs.nodes.size())
        << "G* must be connected (node " << start << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GStarInvariantTest,
                         ::testing::Range<uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// TopK vs full sort under heavy ties
// ---------------------------------------------------------------------------

class TopKTieTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKTieTest, MatchesFullSortWithFewDistinctScores) {
  Rng rng(GetParam());
  std::vector<ir::ScoredDoc> scores;
  for (int i = 0; i < 200; ++i) {
    scores.push_back({static_cast<ir::DocId>(i),
                      static_cast<double>(rng.Uniform(4))});  // many ties
  }
  for (size_t k : {1u, 7u, 50u, 200u, 500u}) {
    auto sorted = scores;
    std::sort(sorted.begin(), sorted.end(),
              [](const ir::ScoredDoc& a, const ir::ScoredDoc& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    sorted.resize(std::min<size_t>(k, sorted.size()));
    EXPECT_EQ(ir::SelectTopK(scores, k), sorted) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKTieTest,
                         ::testing::Range<uint64_t>(0, 6));

// ---------------------------------------------------------------------------
// Block-Max MaxScore vs exhaustive scoring, across epochs and doc orders
// ---------------------------------------------------------------------------

class BlockMaxOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockMaxOracleTest, MatchesExhaustiveAcrossEpochsAndReorder) {
  // Property: for every snapshot epoch of a growing index — whether the
  // documents were ingested in natural or signature-sorted order — Block-Max
  // MaxScore returns exactly the top-k of exhaustive TAAT + SelectTopK:
  // the same documents in the same order with bit-identical scores, ties
  // ordered by doc id. The reordered index is checked against its own
  // oracle (its doc ids name different documents by design).
  Rng rng(GetParam() * 7919 + 3);
  const size_t num_docs = 300;
  const size_t vocab = 120;

  std::vector<ir::TermCounts> docs(num_docs);
  for (auto& doc : docs) {
    std::map<ir::TermId, uint32_t> counts;
    const size_t n = 5 + rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      ++counts[static_cast<ir::TermId>(rng.Uniform(vocab))];
    }
    doc.assign(counts.begin(), counts.end());
  }
  // A synthetic signature-sort permutation, standing in for the engine's
  // SimHash-based doc-id reordering.
  std::vector<uint64_t> signatures(num_docs);
  for (auto& s : signatures) s = rng.Next();
  const std::vector<uint32_t> order = ir::SignatureSortOrder(signatures);
  ASSERT_TRUE(ir::IsPermutation(order));

  for (const bool reorder : {false, true}) {
    ir::InvertedIndex index;
    std::vector<ir::IndexSnapshot> epochs;
    for (size_t d = 0; d < num_docs; ++d) {
      index.AddDocument(docs[reorder ? order[d] : d]);
      if (d == num_docs / 3 || d == 2 * num_docs / 3 ||
          d == num_docs - 1) {
        epochs.push_back(index.Capture());
      }
    }
    ir::Bm25Scorer scorer(&index);
    ir::MaxScoreRetriever retriever(&index);

    Rng qrng(GetParam() * 271 + (reorder ? 1 : 0));
    for (const ir::IndexSnapshot& snapshot : epochs) {
      for (int trial = 0; trial < 8; ++trial) {
        ir::TermCounts query;
        std::set<ir::TermId> used;
        const size_t num_terms = 1 + qrng.Uniform(8);
        while (query.size() < num_terms) {
          const ir::TermId t = static_cast<ir::TermId>(qrng.Uniform(vocab));
          if (used.insert(t).second) {
            query.push_back({t, 1 + static_cast<uint32_t>(qrng.Uniform(3))});
          }
        }
        std::sort(query.begin(), query.end());
        const size_t k = 1 + qrng.Uniform(25);

        const auto exact =
            ir::SelectTopK(scorer.ScoreAll(query, snapshot), k);
        EXPECT_EQ(retriever.TopK(query, k, snapshot), exact)
            << "reorder=" << reorder << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockMaxOracleTest,
                         ::testing::Range<uint64_t>(0, 5));

}  // namespace
}  // namespace newslink
