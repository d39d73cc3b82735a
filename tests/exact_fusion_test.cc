// Pruned fusion equals the exhaustive oracle in every engine composition.
//
// The corpus hides the oracle's best document below both sides' first
// round: many documents beat it on text alone (BOW), many on entities alone
// (BON), and it is the only one good on both, so Eq. 3 ranks it first
// while neither side's top k' holds it. The query pipeline must search the
// shards deeper (ShardsToDeepen) until the fused top k is the oracle's,
// documents, order and score bits, and say so in its trace.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "corpus/corpus.h"
#include "kg/knowledge_graph.h"
#include "kg/label_index.h"
#include "newslink/newslink_engine.h"
#include "newslink/shard_api.h"
#include "newslink/sharded_engine.h"
#include "newslink/tiered_engine.h"

namespace newslink {
namespace {

// Enough one-sided documents that every shard of a 7-way split still holds
// more than a first round's worth (kFirstRoundDepth) on each side.
constexpr size_t kPerSide = 8 * kFirstRoundDepth + 8;

class ExactFusionTest : public ::testing::Test {
 protected:
  ExactFusionTest() : graph_(MakeGraph()), labels_(graph_) {
    // Text-only: both query words twice in a short document, no entity.
    // Entity-only: Pakistan and Khyber — the query's induced context —
    // in two segments each (BON tf 2), no query word. The winner: both
    // query words once and both entities once, so it trails every
    // one-sided document on that document's side.
    for (size_t i = 0; i < kPerSide; ++i) {
      Add(&corpus_, StrCat("text-", i), "Storms flood storms flood.");
      Add(&corpus_, StrCat("node-", i),
          "Pakistan, Khyber and Swat. Pakistan, Khyber and Kunar.");
      if (i == kPerSide / 2) {
        winner_row_ = corpus_.size();
        Add(&corpus_, "winner", "Storms flood the harbor. Pakistan and Khyber.");
      }
    }
    config_.num_threads = 2;
  }

  /// Lahore and Peshawar meet at Pakistan through Khyber, so a query
  /// naming both induces Pakistan and Khyber into its embedding.
  static kg::KnowledgeGraph MakeGraph() {
    kg::KgBuilder b;
    const kg::NodeId lahore = b.AddNode("Lahore", kg::EntityType::kGpe);
    const kg::NodeId peshawar = b.AddNode("Peshawar", kg::EntityType::kGpe);
    const kg::NodeId khyber = b.AddNode("Khyber", kg::EntityType::kGpe);
    const kg::NodeId pakistan = b.AddNode("Pakistan", kg::EntityType::kGpe);
    const kg::NodeId swat = b.AddNode("Swat", kg::EntityType::kGpe);
    const kg::NodeId kunar = b.AddNode("Kunar", kg::EntityType::kGpe);
    NL_CHECK(b.AddEdge(lahore, pakistan, "located_in").ok());
    NL_CHECK(b.AddEdge(peshawar, khyber, "located_in").ok());
    NL_CHECK(b.AddEdge(khyber, pakistan, "part_of").ok());
    NL_CHECK(b.AddEdge(swat, khyber, "located_in").ok());
    NL_CHECK(b.AddEdge(kunar, khyber, "located_in").ok());
    return b.Build();
  }

  static void Add(corpus::Corpus* corpus, const std::string& id,
                  const std::string& text) {
    corpus::Document doc;
    doc.id = id;
    doc.title = id;
    doc.text = text;
    corpus->Add(doc);
  }

  static baselines::SearchRequest Query(bool exhaustive) {
    baselines::SearchRequest request;
    request.query = "Storms flood Lahore and Peshawar.";
    request.k = 10;
    request.beta = 0.5;
    request.exhaustive_fusion = exhaustive;
    request.trace = true;
    return request;
  }

  /// Expects the pruned answer to be the oracle's bit for bit, and returns
  /// how many shards its trace says were searched past the first round.
  static std::string ExpectOracle(const baselines::SearchEngine& engine,
                                  const baselines::SearchResponse& oracle,
                                  const std::string& what) {
    const baselines::SearchResponse pruned = engine.Search(Query(false));
    EXPECT_EQ(pruned.hits.size(), oracle.hits.size()) << what;
    for (size_t i = 0; i < oracle.hits.size() && i < pruned.hits.size();
         ++i) {
      EXPECT_EQ(pruned.hits[i].doc_index, oracle.hits[i].doc_index)
          << what << " rank " << i;
      EXPECT_EQ(pruned.hits[i].score, oracle.hits[i].score)
          << what << " rank " << i;
    }
    const TraceSpan* ns = pruned.trace.Find("ns");
    EXPECT_NE(ns, nullptr) << what;
    if (ns == nullptr) return "";
    for (const auto& [key, value] : ns->notes) {
      if (key == "deepened") return value;
    }
    return "";
  }

  static void ExpectOracleAfterDeepening(const baselines::SearchEngine& engine,
                                         const baselines::SearchResponse& oracle,
                                         const std::string& what) {
    const std::string deepened = ExpectOracle(engine, oracle, what);
    EXPECT_NE(deepened, "") << what;
    EXPECT_NE(deepened, "0") << what << ": no shard was searched deeper";
  }

  kg::KnowledgeGraph graph_;
  kg::LabelIndex labels_;
  corpus::Corpus corpus_;
  size_t winner_row_ = 0;
  NewsLinkConfig config_;
};

TEST_F(ExactFusionTest, OracleWinnerIsOutsideBothSidesFirstRound) {
  NewsLinkEngine engine(&graph_, &labels_, config_);
  ASSERT_TRUE(engine.Index(corpus_).ok());

  const baselines::SearchResponse oracle = engine.Search(Query(true));
  ASSERT_FALSE(oracle.hits.empty());
  EXPECT_EQ(oracle.hits[0].doc_index, winner_row_);

  // Rank of the winner on one side alone (β = 0: text, β = 1: entities).
  const auto side_rank = [&](double beta) {
    baselines::SearchRequest side = Query(true);
    side.beta = beta;
    side.k = corpus_.size();
    const baselines::SearchResponse all = engine.Search(side);
    for (size_t r = 0; r < all.hits.size(); ++r) {
      if (all.hits[r].doc_index == winner_row_) return r;
    }
    return all.hits.size();
  };
  EXPECT_GE(side_rank(0.0), kPerSide);
  EXPECT_GE(side_rank(1.0), kPerSide);
}

TEST_F(ExactFusionTest, SingleEngineDeepensToTheOracle) {
  NewsLinkEngine engine(&graph_, &labels_, config_);
  ASSERT_TRUE(engine.Index(corpus_).ok());
  const baselines::SearchResponse oracle = engine.Search(Query(true));
  ASSERT_EQ(oracle.hits.size(), 10u);
  ASSERT_EQ(oracle.hits[0].doc_index, winner_row_);
  ExpectOracleAfterDeepening(engine, oracle, "single");
}

TEST_F(ExactFusionTest, ShardedEnginesDeepenToTheOracle) {
  NewsLinkEngine single(&graph_, &labels_, config_);
  ASSERT_TRUE(single.Index(corpus_).ok());
  const baselines::SearchResponse oracle = single.Search(Query(true));
  for (const size_t n_shards : {2u, 3u, 7u}) {
    ShardedEngine sharded(&graph_, &labels_, config_, n_shards);
    ASSERT_TRUE(sharded.Index(corpus_).ok());
    ExpectOracleAfterDeepening(sharded, oracle, StrCat(n_shards, " shards"));
  }
}

TEST_F(ExactFusionTest, SplitTieredEngineDeepensToTheOracle) {
  NewsLinkEngine single(&graph_, &labels_, config_);
  ASSERT_TRUE(single.Index(corpus_).ok());
  const baselines::SearchResponse oracle = single.Search(Query(true));

  // Half the corpus in the base tier, the rest ingested into today's.
  TieredEngine tiered(&graph_, &labels_, config_);
  const size_t bulk = corpus_.size() / 2;
  corpus::Corpus base;
  for (size_t i = 0; i < bulk; ++i) base.Add(corpus_.doc(i));
  ASSERT_TRUE(tiered.Index(base).ok());
  for (size_t i = bulk; i < corpus_.size(); ++i) {
    tiered.AddDocument(corpus_.doc(i));
  }
  ASSERT_GT(tiered.today_tier_docs(), 0u);
  ExpectOracleAfterDeepening(tiered, oracle, "tiered");
}

// Documents one composition retrieves on a side and another only fills
// in. Each "mixed" document is one of the few with entities, so it makes
// the fused top 10, but more than kFirstRoundDepth documents beat it on
// text, which is most of its fused score. The single engine's first round
// settles the query, so its text scores for them come from random access
// (FillSide); a shard of a 2- or 7-way split holds at most
// kFirstRoundDepth documents, so there they come from the shard's text
// top k'; the oracle scores every posting. All three must give the same
// bits.
TEST_F(ExactFusionTest, FilledInAndRetrievedSidesAgreeBitForBit) {
  corpus::Corpus corpus;
  for (size_t i = 0; i < kFirstRoundDepth + 8; ++i) {
    Add(&corpus, StrCat("text-", i), "Storms flood storms flood.");
  }
  std::vector<size_t> mixed_rows;
  std::string words = "Storms flood storms flood";
  for (size_t i = 0; i < 10; ++i) {
    words += " near the harbor";
    mixed_rows.push_back(corpus.size());
    Add(&corpus, StrCat("mixed-", i), words + ". Pakistan, Khyber and Swat.");
  }
  ASSERT_LE(corpus.size(), 2 * kFirstRoundDepth);

  NewsLinkEngine single(&graph_, &labels_, config_);
  ASSERT_TRUE(single.Index(corpus).ok());
  const baselines::SearchResponse oracle = single.Search(Query(true));
  ASSERT_EQ(oracle.hits.size(), 10u);
  std::vector<size_t> top;
  for (const baselines::SearchHit& hit : oracle.hits) {
    top.push_back(hit.doc_index);
  }
  std::sort(top.begin(), top.end());
  EXPECT_EQ(top, mixed_rows);

  // Every mixed document ranks below the first round's text list.
  baselines::SearchRequest text = Query(true);
  text.beta = 0.0;
  text.k = corpus.size();
  const baselines::SearchResponse by_text = single.Search(text);
  ASSERT_EQ(by_text.hits.size(), corpus.size());
  for (size_t r = 0; r < kFirstRoundDepth; ++r) {
    EXPECT_LT(by_text.hits[r].doc_index, mixed_rows.front()) << r;
  }

  EXPECT_EQ(ExpectOracle(single, oracle, "single"), "0");
  for (const size_t n_shards : {2u, 7u}) {
    ShardedEngine sharded(&graph_, &labels_, config_, n_shards);
    ASSERT_TRUE(sharded.Index(corpus).ok());
    ExpectOracle(sharded, oracle, StrCat(n_shards, " shards"));
  }
}

}  // namespace
}  // namespace newslink
