// Tests for the Block-Max MaxScore document-at-a-time retriever: agreement
// with exhaustive TAAT scoring bit for bit (same documents, same order,
// same scores), plus evidence that pruning actually skips work; and the
// batched Bm25Scorer::ScoreDocs fill-in, bit for bit against ScoreAll.

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ir/max_score.h"
#include "ir/scorer.h"
#include "ir/top_k.h"

namespace newslink {
namespace ir {
namespace {

/// The pruned top-k is the oracle's: the same documents in the same order
/// with bit-identical scores (both sum a document's contributions in query
/// order, and both break exact ties towards smaller doc ids).
void ExpectSameTopK(const std::vector<ScoredDoc>& pruned,
                    const std::vector<ScoredDoc>& exact,
                    const std::string& context = "") {
  ASSERT_EQ(pruned.size(), exact.size()) << context;
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(pruned[i].doc, exact[i].doc) << context << ": rank " << i;
    EXPECT_EQ(pruned[i].score, exact[i].score) << context << ": rank " << i;
  }
}

/// ScoreAll as a doc -> score map (documents matching no term are absent).
std::map<DocId, double> ScoreMap(const std::vector<ScoredDoc>& scores) {
  std::map<DocId, double> out;
  for (const ScoredDoc& s : scores) out[s.doc] = s.score;
  return out;
}

InvertedIndex MakeRandomIndex(uint64_t seed, size_t num_docs, size_t vocab,
                              size_t terms_per_doc) {
  Rng rng(seed);
  ZipfTable zipf(vocab, 1.0);
  InvertedIndex index;
  for (size_t d = 0; d < num_docs; ++d) {
    std::map<TermId, uint32_t> counts;
    for (size_t t = 0; t < terms_per_doc; ++t) {
      ++counts[static_cast<TermId>(zipf.Sample(&rng))];
    }
    index.AddDocument(TermCounts(counts.begin(), counts.end()));
  }
  return index;
}

TEST(MaxScoreTest, EmptyQueryAndUnknownTerms) {
  InvertedIndex index = MakeRandomIndex(1, 50, 100, 20);
  MaxScoreRetriever retriever(&index);
  EXPECT_TRUE(retriever.TopK({}, 10).empty());
  EXPECT_TRUE(retriever.TopK({{9999, 1}}, 10).empty());
  EXPECT_TRUE(retriever.TopK({{0, 1}}, 0).empty());
}

TEST(MaxScoreTest, SingleTermMatchesTaat) {
  InvertedIndex index = MakeRandomIndex(2, 100, 50, 15);
  Bm25Scorer scorer(&index);
  MaxScoreRetriever retriever(&index);
  const TermCounts query = {{3, 1}};
  ExpectSameTopK(retriever.TopK(query, 5),
                 SelectTopK(scorer.ScoreAll(query), 5));
}

TEST(MaxScoreTest, KLargerThanMatches) {
  InvertedIndex index = MakeRandomIndex(3, 20, 200, 10);
  Bm25Scorer scorer(&index);
  MaxScoreRetriever retriever(&index);
  const TermCounts query = {{0, 1}, {1, 2}};
  ExpectSameTopK(retriever.TopK(query, 1000),
                 SelectTopK(scorer.ScoreAll(query), 1000));
}

struct RandomQueryCase {
  uint64_t seed;
  size_t query_terms;
  size_t k;
};

// Readable, deterministic parameter (and ctest) names.
void PrintTo(const RandomQueryCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_terms" << c.query_terms << "_k" << c.k;
}

class MaxScoreAgreementTest
    : public ::testing::TestWithParam<RandomQueryCase> {};

TEST_P(MaxScoreAgreementTest, IdenticalToExhaustiveTaat) {
  const RandomQueryCase param = GetParam();
  InvertedIndex index = MakeRandomIndex(param.seed, 400, 300, 40);
  Bm25Scorer scorer(&index);
  MaxScoreRetriever retriever(&index);
  Rng rng(param.seed * 31 + 7);

  for (int trial = 0; trial < 10; ++trial) {
    TermCounts query;
    std::set<TermId> used;
    while (query.size() < param.query_terms) {
      const TermId t = static_cast<TermId>(rng.Uniform(300));
      if (used.insert(t).second) {
        query.push_back({t, 1 + static_cast<uint32_t>(rng.Uniform(3))});
      }
    }
    std::sort(query.begin(), query.end());
    ExpectSameTopK(retriever.TopK(query, param.k),
                   SelectTopK(scorer.ScoreAll(query), param.k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, MaxScoreAgreementTest,
    ::testing::Values(RandomQueryCase{11, 2, 10}, RandomQueryCase{12, 4, 10},
                      RandomQueryCase{13, 8, 5}, RandomQueryCase{14, 8, 50},
                      RandomQueryCase{15, 16, 10},
                      RandomQueryCase{16, 3, 1}));

TEST(MaxScoreTest, PruningSkipsDocuments) {
  // A highly selective rare term + broad common terms: once the heap is
  // full of rare-term docs, common-only docs should be skipped.
  InvertedIndex index;
  // 500 docs with common term 0; every 50th also has rare term 1.
  for (int d = 0; d < 500; ++d) {
    TermCounts counts = {{0, 1}};
    if (d % 50 == 0) counts.push_back({1, 5});
    index.AddDocument(counts);
  }
  MaxScoreRetriever retriever(&index);
  const auto top = retriever.TopK({{0, 1}, {1, 1}}, 5);
  ASSERT_EQ(top.size(), 5u);
  for (const ScoredDoc& s : top) {
    EXPECT_EQ(s.doc % 50, 0u);  // all winners carry the rare term
  }
  EXPECT_LT(retriever.last_docs_scored(), 500u)
      << "MaxScore must not fully score every document";
}

TEST(MaxScoreTest, EquivalencePropertyRandomCorporaAndQueries) {
  // Property sweep: on random corpora and random queries the pruned
  // retriever returns exactly the exhaustive TAAT top-k — documents, order
  // and score bits, ties broken towards smaller doc ids on both sides.
  for (const uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    const size_t num_docs = 100 + (seed % 7) * 50;
    InvertedIndex index = MakeRandomIndex(seed, num_docs, 250, 30);
    Bm25Scorer scorer(&index);
    MaxScoreRetriever retriever(&index);
    Rng rng(seed * 977 + 13);

    for (int trial = 0; trial < 20; ++trial) {
      TermCounts query;
      std::set<TermId> used;
      const size_t num_terms = 1 + rng.Uniform(10);
      while (query.size() < num_terms) {
        const TermId t = static_cast<TermId>(rng.Uniform(250));
        if (used.insert(t).second) {
          query.push_back({t, 1 + static_cast<uint32_t>(rng.Uniform(4))});
        }
      }
      std::sort(query.begin(), query.end());
      const size_t k = 1 + rng.Uniform(30);

      ExpectSameTopK(retriever.TopK(query, k),
                     SelectTopK(scorer.ScoreAll(query), k),
                     "seed " + std::to_string(seed) + " trial " +
                         std::to_string(trial));
    }
  }
}

TEST(MaxScoreTest, BlockMaxAgreesWithExhaustiveAndSkipsBlocks) {
  // Agreement with exhaustive TAAT plus evidence of the work saved: no
  // document is scored twice or without matching a term, and over the
  // sweep whole posting blocks are skipped without decoding.
  size_t total_skipped = 0;
  for (const uint64_t seed : {61u, 62u, 63u}) {
    // Doc-id locality, the block shape reordering manufactures: short
    // documents (tf mostly 1) where each stripe of 256 documents inflates
    // its own slice of the vocabulary, so block maxima differ by block.
    Rng doc_rng(seed);
    ZipfTable zipf(200, 1.0);
    InvertedIndex index;
    for (size_t d = 0; d < 2048; ++d) {
      std::map<TermId, uint32_t> counts;
      for (int t = 0; t < 12; ++t) {
        const TermId term = static_cast<TermId>(zipf.Sample(&doc_rng));
        counts[term] += term % 8 == (d / 256) % 8 ? 6 : 1;
      }
      index.AddDocument(TermCounts(counts.begin(), counts.end()));
    }
    Bm25Scorer scorer(&index);
    MaxScoreRetriever retriever(&index);
    Rng rng(seed * 131 + 5);

    for (int trial = 0; trial < 10; ++trial) {
      // Head terms: long, many-block lists.
      TermCounts query;
      std::set<TermId> used;
      const size_t num_terms = 2 + rng.Uniform(4);
      while (query.size() < num_terms) {
        const TermId t = static_cast<TermId>(rng.Uniform(48));
        if (used.insert(t).second) {
          query.push_back({t, 1 + static_cast<uint32_t>(rng.Uniform(3))});
        }
      }
      std::sort(query.begin(), query.end());
      const size_t k = 1 + rng.Uniform(20);

      size_t docs_scored = 0, blocks_skipped = 0;
      const auto pruned =
          retriever.TopK(query, k, &docs_scored, &blocks_skipped);
      const std::vector<ScoredDoc> all = scorer.ScoreAll(query);
      const std::string context =
          "seed " + std::to_string(seed) + " trial " + std::to_string(trial);
      ExpectSameTopK(pruned, SelectTopK(all, k), context);
      EXPECT_LE(docs_scored, all.size()) << context;
      total_skipped += blocks_skipped;
    }
  }
  EXPECT_GT(total_skipped, 0u);
}

TEST(MaxScoreTest, BlockMaxSkipsWholeBlocks) {
  // term 1's first posting block is all tf == 10 and every later block is
  // tf == 1. Once the heap fills from the first block, every tf == 1
  // block's upper bound falls below the threshold and the doc-at-a-time
  // walk turns into whole-block skips. (b must stay well inside (0, 1): at
  // b == 0 the bound is exact and the threshold ties the total bound,
  // ending the walk via the essential split instead.)
  InvertedIndex index;
  const int n = 64 * static_cast<int>(kPostingBlockSize);
  for (int d = 0; d < n; ++d) {
    TermCounts counts = {{0, 1}};
    if (d % 4 == 0) {
      counts.push_back(
          {1, d < 4 * static_cast<int>(kPostingBlockSize) ? 10u : 1u});
    }
    index.AddDocument(counts);
  }
  const Bm25Params params{1.2, 0.5};
  Bm25Scorer scorer(&index, params);
  MaxScoreRetriever retriever(&index, params);
  size_t docs_scored = 0, blocks_skipped = 0;
  const TermCounts query = {{0, 1}, {1, 1}};
  const auto top = retriever.TopK(query, 5, &docs_scored, &blocks_skipped);
  ExpectSameTopK(top, SelectTopK(scorer.ScoreAll(query), 5));
  ASSERT_EQ(top.size(), 5u);
  for (const ScoredDoc& s : top) {
    EXPECT_LT(s.doc, static_cast<DocId>(4 * kPostingBlockSize));
  }
  EXPECT_GT(blocks_skipped, 0u) << "range skips must cross block boundaries";
  EXPECT_EQ(blocks_skipped, retriever.last_blocks_skipped());
  EXPECT_LT(docs_scored, static_cast<size_t>(n) / 8)
      << "block-max should prune nearly all tf == 1 blocks";
}

TEST(MaxScoreTest, TiesAtTheCutOnBoundReachingDocumentsStayExact) {
  // "Full" documents hold every query term at that term's maximum tf and
  // have the collection's minimum length, so each of their contributions
  // equals its term's bound, and their scores tie exactly with the k-th
  // score: k cuts through them. Their bound-order estimates differ from
  // their query-order scores only by rounding — the case the pruning
  // margin exists for. No full document may be dropped, and no rounding
  // difference may reorder the tie: the result is the oracle's, bit for
  // bit, the smallest-id full documents first.
  for (const Bm25Params params : {Bm25Params{}, Bm25Params{0.8, 0.0}}) {
    for (uint64_t seed = 0; seed < 16; ++seed) {
      Rng rng(seed + 1000);
      const size_t num_terms = 3 + rng.Uniform(6);
      std::vector<uint32_t> max_tf(num_terms);
      uint32_t full_length = 0;
      for (uint32_t& tf : max_tf) {
        tf = 2 + static_cast<uint32_t>(rng.Uniform(6));
        full_length += tf;
      }
      InvertedIndex index;
      std::vector<DocId> full;
      for (DocId d = 0; d < 240; ++d) {
        TermCounts counts;
        if (d % 40 == 17) {
          for (size_t t = 0; t < num_terms; ++t) {
            counts.push_back({static_cast<TermId>(t), max_tf[t]});
          }
          full.push_back(d);
        } else {
          // A random subset of the query terms at tf 1 (so dfs differ),
          // padded by a non-query term to at least the full length.
          for (size_t t = 0; t < num_terms; ++t) {
            if (rng.Uniform(num_terms + 1) <= t) {
              counts.push_back({static_cast<TermId>(t), 1});
            }
          }
          counts.push_back(
              {static_cast<TermId>(100 + rng.Uniform(50)),
               full_length + static_cast<uint32_t>(rng.Uniform(5))});
        }
        index.AddDocument(counts);
      }
      TermCounts query;
      for (size_t t = num_terms; t-- > 0;) {
        query.push_back(
            {static_cast<TermId>(t), 1 + static_cast<uint32_t>(rng.Uniform(3))});
      }
      Bm25Scorer scorer(&index, params);
      MaxScoreRetriever retriever(&index, params);
      for (const size_t k : {size_t{2}, size_t{3}, size_t{5}}) {
        const std::string context = "b " + std::to_string(params.b) +
                                    " seed " + std::to_string(seed) + " k " +
                                    std::to_string(k);
        const auto top = retriever.TopK(query, k);
        ExpectSameTopK(top, SelectTopK(scorer.ScoreAll(query), k), context);
        ASSERT_EQ(top.size(), k) << context;
        for (size_t i = 0; i < k; ++i) {
          EXPECT_EQ(top[i].doc, full[i]) << context;
          EXPECT_EQ(top[i].score, top[0].score) << context;
        }
      }
    }
  }
}

TEST(MaxScoreTest, BlockMaxHandlesPartialTailBlock) {
  // List lengths deliberately not multiples of kPostingBlockSize: the tail
  // postings past the last recorded block max fall back to the term bound.
  InvertedIndex index =
      MakeRandomIndex(71, 3 * kPostingBlockSize + 17, 40, 12);
  Bm25Scorer scorer(&index);
  MaxScoreRetriever retriever(&index);
  const TermCounts query = {{0, 1}, {3, 2}, {8, 1}};
  ExpectSameTopK(retriever.TopK(query, 7),
                 SelectTopK(scorer.ScoreAll(query), 7));
}

namespace {

/// Parity filter used by the DocFilter tests: ctx points at a DocId
/// modulus; only documents with doc % modulus == 0 are accepted.
bool AcceptMultiplesOf(const void* ctx, DocId doc) {
  return doc % *static_cast<const DocId*>(ctx) == 0;
}

}  // namespace

TEST(MaxScoreTest, DocFilterMatchesPostHocFilteredExhaustive) {
  // The pushed-down filter must select exactly the documents a post-hoc
  // filter of the exhaustive ranking would keep — pruning, not truncating
  // an unfiltered top-k.
  for (const uint64_t seed : {81u, 82u, 83u}) {
    InvertedIndex index = MakeRandomIndex(seed, 300, 150, 25);
    Bm25Scorer scorer(&index);
    MaxScoreRetriever retriever(&index);
    Rng rng(seed * 53 + 3);
    const DocId modulus = 3;
    const DocFilter filter{&AcceptMultiplesOf, &modulus};

    for (int trial = 0; trial < 10; ++trial) {
      TermCounts query;
      std::set<TermId> used;
      const size_t num_terms = 1 + rng.Uniform(6);
      while (query.size() < num_terms) {
        const TermId t = static_cast<TermId>(rng.Uniform(150));
        if (used.insert(t).second) {
          query.push_back({t, 1 + static_cast<uint32_t>(rng.Uniform(3))});
        }
      }
      std::sort(query.begin(), query.end());
      const size_t k = 1 + rng.Uniform(20);
      const IndexSnapshot snapshot = index.Capture();

      std::vector<ScoredDoc> reference = scorer.ScoreAll(query, snapshot);
      reference.erase(std::remove_if(reference.begin(), reference.end(),
                                     [&](const ScoredDoc& s) {
                                       return s.doc % modulus != 0;
                                     }),
                      reference.end());
      const auto expected = SelectTopK(reference, k);

      const auto pruned =
          retriever.TopK(query, k, snapshot, nullptr, nullptr, nullptr,
                         &filter);
      ExpectSameTopK(pruned, expected);
      for (const ScoredDoc& s : pruned) {
        EXPECT_EQ(s.doc % modulus, 0u);
      }

      // TAAT with the same pushed-down filter agrees too.
      const auto taat =
          SelectTopK(scorer.ScoreAll(query, snapshot, nullptr, &filter), k);
      ExpectSameTopK(taat, expected);
    }
  }
}

TEST(MaxScoreTest, DocFilterPrunesScoringWork) {
  InvertedIndex index = MakeRandomIndex(91, 400, 60, 20);
  MaxScoreRetriever retriever(&index);
  const TermCounts query = {{0, 1}, {1, 1}, {2, 1}};
  const IndexSnapshot snapshot = index.Capture();

  size_t unfiltered_scored = 0;
  (void)retriever.TopK(query, 10, snapshot, &unfiltered_scored);

  const DocId modulus = 4;
  const DocFilter filter{&AcceptMultiplesOf, &modulus};
  size_t filtered_scored = 0;
  (void)retriever.TopK(query, 10, snapshot, &filtered_scored, nullptr,
                       nullptr, &filter);
  ASSERT_GT(unfiltered_scored, 0u);
  EXPECT_LT(filtered_scored, unfiltered_scored)
      << "rejected documents must never be scored";
}

TEST(MaxScoreTest, DocFilterRejectingEverythingYieldsEmpty) {
  InvertedIndex index = MakeRandomIndex(92, 50, 40, 15);
  MaxScoreRetriever retriever(&index);
  const DocFilter reject_all{
      [](const void*, DocId) { return false; }, nullptr};
  const auto top = retriever.TopK({{0, 1}, {1, 1}}, 10, index.Capture(),
                                  nullptr, nullptr, nullptr, &reject_all);
  EXPECT_TRUE(top.empty());
}

TEST(MaxScoreTest, WithBonStyleParams) {
  // The BON index uses k1 = 0.8, b = 0; agreement must hold there too.
  InvertedIndex index = MakeRandomIndex(17, 200, 100, 25);
  const Bm25Params params{0.8, 0.0};
  Bm25Scorer scorer(&index, params);
  MaxScoreRetriever retriever(&index, params);
  const TermCounts query = {{1, 3}, {5, 1}, {17, 1}};
  ExpectSameTopK(retriever.TopK(query, 10),
                 SelectTopK(scorer.ScoreAll(query), 10));
}

// --- Storage-edge boundaries ---------------------------------------------
//
// PostingChunks runs end after 16, 48, 112, 240, ... postings and block-max
// blocks after every 64; the cursor loop walks runs by pointer and caches
// per-block bounds, so these cases put list ends, snapshot prefix ends and
// skips on and around both kinds of edge.

/// Posting-list lengths on, just below and just past the chunk edges
/// (16/48/112/240/496) and block edges (64/128/256), plus two long lists
/// whose terms end up non-essential and are probed by galloping.
constexpr size_t kEdgeLengths[] = {15,  16,  17,  47,  48,  49,  63,  64,
                                   65,  111, 112, 113, 127, 128, 129, 239,
                                   240, 241, 255, 256, 257, 495, 496, 497,
                                   900, 1300};
constexpr size_t kEdgeTerms = std::size(kEdgeLengths);
constexpr size_t kEdgeDocs = 1400;
constexpr TermId kFillerBase = 100;  // filler term ids vary doc lengths

struct EdgeIndex {
  InvertedIndex index;
  /// Snapshots captured while the index grew, every one queried only after
  /// the writer appended past it (list prefixes end mid-chunk), plus the
  /// final extent.
  std::vector<IndexSnapshot> snapshots;
};

/// Term t of the edge vocabulary appears in exactly kEdgeLengths[t]
/// random documents, mostly with tf 1-2 and sometimes up to 13, so block
/// maxima differ from block to block. Snapshots are captured at fixed doc
/// counts and whenever the longest list reaches a chunk or block edge.
EdgeIndex MakeEdgeIndex(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::set<DocId>> members(kEdgeTerms);
  for (size_t t = 0; t < kEdgeTerms; ++t) {
    while (members[t].size() < kEdgeLengths[t]) {
      members[t].insert(static_cast<DocId>(rng.Uniform(kEdgeDocs)));
    }
  }
  const std::set<size_t> edges = {16, 48, 64, 112, 128, 240};
  const std::set<size_t> capture_at = {97, 333, 700, 1001};
  EdgeIndex out;
  size_t longest = 0;
  for (DocId d = 0; d < kEdgeDocs; ++d) {
    TermCounts counts;
    bool longest_grew = false;
    for (size_t t = 0; t < kEdgeTerms; ++t) {
      if (!members[t].contains(d)) continue;
      const uint32_t tf = rng.Uniform(8) == 0
                              ? 1 + static_cast<uint32_t>(rng.Uniform(13))
                              : 1 + static_cast<uint32_t>(rng.Uniform(2));
      counts.push_back({static_cast<TermId>(t), tf});
      if (t == kEdgeTerms - 1) longest_grew = true;
    }
    const size_t fillers = rng.Uniform(12);
    for (size_t f = 0; f < fillers; ++f) {
      counts.push_back(
          {kFillerBase + f, 1 + static_cast<uint32_t>(rng.Uniform(3))});
    }
    out.index.AddDocument(counts);
    if (longest_grew) ++longest;
    if ((longest_grew && edges.contains(longest)) ||
        capture_at.contains(d + 1)) {
      out.snapshots.push_back(out.index.Capture());
    }
  }
  out.snapshots.push_back(out.index.Capture());
  return out;
}

/// A query over the edge vocabulary: 1-7 random edge terms, often joined
/// by the two long lists.
TermCounts EdgeQuery(Rng* rng) {
  std::set<TermId> used;
  const size_t n = 1 + rng->Uniform(7);
  while (used.size() < n) {
    used.insert(static_cast<TermId>(rng->Uniform(kEdgeTerms - 2)));
  }
  if (rng->Uniform(3) != 0) used.insert(kEdgeTerms - 2);
  if (rng->Uniform(3) != 0) used.insert(kEdgeTerms - 1);
  TermCounts query;
  for (const TermId t : used) {
    query.push_back({t, 1 + static_cast<uint32_t>(rng->Uniform(3))});
  }
  return query;
}

/// Collection statistics of a larger collection that contains this
/// snapshot (the shard-serving case): more documents, higher df and
/// max tf, a smaller minimum length — all of which only loosen bounds.
CollectionStats WiderCollection(const InvertedIndex& index,
                                const IndexSnapshot& snapshot,
                                const TermCounts& query, Rng* rng) {
  CollectionStats stats;
  const uint64_t extra_docs = 1 + rng->Uniform(500);
  stats.num_docs = snapshot.num_docs + extra_docs;
  stats.total_length =
      snapshot.total_length + extra_docs * (1 + rng->Uniform(20));
  stats.min_doc_length = static_cast<uint32_t>(rng->Uniform(2));
  for (const auto& [term, qtf] : query) {
    stats.df.push_back(index.DocFreq(term, snapshot) +
                       rng->Uniform(extra_docs));
    stats.max_tf.push_back(index.BlockMax(term).max_tf +
                           static_cast<uint32_t>(rng->Uniform(3)));
  }
  return stats;
}

TEST(MaxScoreBoundaryTest, ChunkAndBlockEdgesAgreeWithExhaustive) {
  const DocId modulus = 3;
  const DocFilter filter{&AcceptMultiplesOf, &modulus};
  size_t mid_chunk_views = 0;
  for (const uint64_t seed : {101u, 102u}) {
    const EdgeIndex edge = MakeEdgeIndex(seed);
    ASSERT_GE(edge.snapshots.size(), 8u);
    for (const Bm25Params params : {Bm25Params{}, Bm25Params{0.8, 0.0}}) {
      Bm25Scorer scorer(&edge.index, params);
      MaxScoreRetriever retriever(&edge.index, params);
      Rng rng(seed * 7 + static_cast<uint64_t>(params.b * 100));
      for (size_t s = 0; s < edge.snapshots.size(); ++s) {
        const IndexSnapshot& snapshot = edge.snapshots[s];
        for (int trial = 0; trial < 12; ++trial) {
          const TermCounts query = EdgeQuery(&rng);
          for (const auto& [term, qtf] : query) {
            const size_t n = edge.index.Postings(term, snapshot).size();
            if (n > 0 && n < edge.index.Postings(term).size()) {
              ++mid_chunk_views;
            }
          }
          const size_t k = 1 + rng.Uniform(20);
          const CollectionStats stats =
              WiderCollection(edge.index, snapshot, query, &rng);
          for (const bool use_stats : {false, true}) {
            for (const bool use_filter : {false, true}) {
              const CollectionStats* c = use_stats ? &stats : nullptr;
              const DocFilter* f = use_filter ? &filter : nullptr;
              const std::string context =
                  "seed " + std::to_string(seed) + " snapshot " +
                  std::to_string(s) + " trial " + std::to_string(trial) +
                  " stats " + std::to_string(use_stats) + " filter " +
                  std::to_string(use_filter);
              ExpectSameTopK(
                  retriever.TopK(query, k, snapshot, nullptr, nullptr, c, f),
                  SelectTopK(scorer.ScoreAll(query, snapshot, c, f), k),
                  context);
            }
          }
        }
      }
    }
  }
  // The property is only interesting if prefixes really end inside lists
  // that kept growing afterwards.
  EXPECT_GT(mid_chunk_views, 100u);
}

TEST(MaxScoreBoundaryTest, BlockSkipsAcrossChunkEdgesAgreeWithExhaustive) {
  // BlockMaxSkipsWholeBlocks' shape at several snapshot extents: term 1's
  // first four blocks carry tf 10 and fill the heap, its later tf 1 blocks
  // are then skipped, and the skip targets cross the chunk edges of both
  // lists. Prefixes end just past a chunk edge of term 1 (113 and 241
  // postings), mid-list, and at the full extent.
  InvertedIndex index;
  const int n = 64 * static_cast<int>(kPostingBlockSize);
  for (int d = 0; d < n; ++d) {
    TermCounts counts = {{0, 1}};
    if (d % 4 == 0) {
      counts.push_back(
          {1, d < 4 * static_cast<int>(kPostingBlockSize) ? 10u : 1u});
    }
    if (d % 7 == 0) counts.push_back({2, 1 + static_cast<uint32_t>(d % 3)});
    index.AddDocument(counts);
  }
  const Bm25Params params{1.2, 0.5};
  Bm25Scorer scorer(&index, params);
  MaxScoreRetriever retriever(&index, params);
  size_t total_skipped = 0;
  for (const size_t prefix : {size_t{4 * 113}, size_t{4 * 241}, size_t{2001},
                              static_cast<size_t>(n)}) {
    IndexSnapshot snapshot = index.Capture();
    snapshot.num_docs = prefix;  // an earlier extent of the same index
    snapshot.total_length = 0;
    for (DocId d = 0; d < prefix; ++d) {
      snapshot.total_length += index.DocLength(d);
    }
    for (const TermCounts& query :
         {TermCounts{{0, 1}, {1, 1}}, TermCounts{{0, 1}, {1, 1}, {2, 1}}}) {
      for (const size_t k : {size_t{1}, size_t{5}, size_t{17}}) {
        size_t skipped = 0;
        ExpectSameTopK(
            retriever.TopK(query, k, snapshot, nullptr, &skipped),
            SelectTopK(scorer.ScoreAll(query, snapshot), k),
            "prefix " + std::to_string(prefix) + " k " + std::to_string(k));
        total_skipped += skipped;
      }
    }
  }
  EXPECT_GT(total_skipped, 0u) << "the tf 1 blocks must be skipped";
}

// --- Batched fill-in ----------------------------------------------------

TEST(ScoreDocsTest, BatchedFillInEqualsScoreAllBitForBit) {
  const EdgeIndex edge = MakeEdgeIndex(103);
  for (const Bm25Params params : {Bm25Params{}, Bm25Params{0.8, 0.0}}) {
    Bm25Scorer scorer(&edge.index, params);
    Rng rng(977 + static_cast<uint64_t>(params.b * 100));
    for (const IndexSnapshot& snapshot : edge.snapshots) {
      for (int trial = 0; trial < 20; ++trial) {
        TermCounts query = EdgeQuery(&rng);
        if (rng.Uniform(2) == 0) {
          // A filler term, so some docs match a term no edge list has.
          query.push_back(
              {kFillerBase + static_cast<TermId>(rng.Uniform(12)), 1});
        }
        // Random ascending subset: docs matching no query term included,
        // and always the snapshot's last doc.
        std::vector<DocId> docs;
        const uint64_t keep = 1 + rng.Uniform(8);
        for (DocId d = 0; d + 1 < snapshot.num_docs; ++d) {
          if (rng.Uniform(keep) == 0) docs.push_back(d);
        }
        docs.push_back(static_cast<DocId>(snapshot.num_docs - 1));

        // Shard-local dictionary: collection statistics stay aligned with
        // the query by position, and some query terms are unknown here.
        TermCounts local = query;
        local.push_back({static_cast<TermId>(50 + rng.Uniform(40)), 2});
        std::rotate(local.begin() + static_cast<std::ptrdiff_t>(
                                        rng.Uniform(local.size())),
                    local.end() - 1, local.end());
        const CollectionStats stats =
            WiderCollection(edge.index, snapshot, local, &rng);

        for (const bool use_stats : {false, true}) {
          const TermCounts& q = use_stats ? local : query;
          const CollectionStats* c = use_stats ? &stats : nullptr;
          const std::vector<double> batched =
              scorer.ScoreDocs(q, docs, snapshot, c);
          const std::map<DocId, double> exact =
              ScoreMap(scorer.ScoreAll(q, snapshot, c));
          ASSERT_EQ(batched.size(), docs.size());
          for (size_t j = 0; j < docs.size(); ++j) {
            const auto it = exact.find(docs[j]);
            EXPECT_EQ(batched[j], it == exact.end() ? 0.0 : it->second)
                << "doc " << docs[j] << " stats " << use_stats;
          }
        }
      }
    }
  }
  EXPECT_TRUE(Bm25Scorer(&edge.index)
                  .ScoreDocs({{0, 1}}, {}, edge.index.Capture())
                  .empty());
}

// --- Concurrent append --------------------------------------------------

TEST(MaxScoreWriterVsReadersTest, TopKAndFillInMatchPinnedOracle) {
  // One writer appends through chunk and block edges and publishes a
  // snapshot after every document; readers pin the latest one and run
  // TopK and the batched fill-in against oracles at that same snapshot.
  InvertedIndex index;
  Bm25Scorer scorer(&index);
  MaxScoreRetriever retriever(&index);
  std::mutex mu;
  IndexSnapshot published;  // guarded by mu
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> started{0};
  std::atomic<int> queries{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(500 + r);
      started.fetch_add(1);
      do {
        IndexSnapshot snapshot;
        {
          std::lock_guard<std::mutex> lock(mu);
          snapshot = published;
        }
        if (snapshot.num_docs == 0) continue;  // nothing published yet
        TermCounts query;
        std::set<TermId> used;
        const size_t n = 1 + rng.Uniform(5);
        while (used.size() < n) {
          used.insert(static_cast<TermId>(rng.Uniform(40)));
        }
        for (const TermId t : used) query.push_back({t, 1});
        const size_t k = 1 + rng.Uniform(10);
        ExpectSameTopK(retriever.TopK(query, k, snapshot),
                       SelectTopK(scorer.ScoreAll(query, snapshot), k),
                       "snapshot of " + std::to_string(snapshot.num_docs) +
                           " docs");
        std::vector<DocId> docs;
        for (DocId d = static_cast<DocId>(rng.Uniform(7));
             d < snapshot.num_docs;
             d += 1 + static_cast<DocId>(rng.Uniform(9))) {
          docs.push_back(d);
        }
        const std::vector<double> batched =
            scorer.ScoreDocs(query, docs, snapshot);
        const std::map<DocId, double> exact =
            ScoreMap(scorer.ScoreAll(query, snapshot));
        for (size_t j = 0; j < docs.size(); ++j) {
          const auto it = exact.find(docs[j]);
          if (batched[j] != (it == exact.end() ? 0.0 : it->second)) {
            violations.fetch_add(1);
          }
        }
        queries.fetch_add(1);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  // Every 16 documents, let the readers finish a few queries first so
  // reads keep overlapping the appends however the threads get scheduled.
  while (started.load() < 3) std::this_thread::yield();
  Rng rng(499);
  ZipfTable zipf(40, 0.8);
  int seen = 0;
  for (int d = 0; d < 1500; ++d) {
    if (d > 0 && d % 16 == 0) {
      while (queries.load() < seen + 3) std::this_thread::yield();
      seen = queries.load();
    }
    std::map<TermId, uint32_t> counts;
    const size_t len = 1 + rng.Uniform(12);
    for (size_t t = 0; t < len; ++t) {
      ++counts[static_cast<TermId>(zipf.Sample(&rng))];
    }
    index.AddDocument(TermCounts(counts.begin(), counts.end()));
    std::lock_guard<std::mutex> lock(mu);
    published = index.Capture();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(queries.load(), 0);
}

}  // namespace
}  // namespace ir
}  // namespace newslink
