// End-to-end integration tests: the full KG -> corpus -> NLP -> NE -> NS
// pipeline, cross-engine behaviour, persistence round trips through the
// whole stack, and determinism of everything at once.

#include <set>

#include <gtest/gtest.h>


#include "baselines/lucene_like_engine.h"
#include "baselines/qeprf_engine.h"
#include "corpus/corpus_io.h"
#include "corpus/synthetic_news.h"
#include "eval/evaluation_runner.h"
#include "kg/graph_stats.h"
#include "kg/kg_io.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "newslink/newslink_engine.h"
#include "vec/fasttext_model.h"
#include "test_temp.h"

namespace newslink {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : world_(MakeWorld()), labels_(world_.graph) {
    corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
    config.num_stories = 40;
    news_ = corpus::SyntheticNewsGenerator(&world_, config).Generate("it");
  }

  static kg::SyntheticKg MakeWorld() {
    kg::SyntheticKgConfig config;
    config.seed = 1234;
    config.num_countries = 2;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  std::string Sentence(size_t doc) const {
    const std::string& text = news_.corpus.doc(doc).text;
    return text.substr(0, text.find('.') + 1);
  }

  kg::SyntheticKg world_;
  kg::LabelIndex labels_;
  corpus::SyntheticCorpus news_;
};

TEST_F(IntegrationTest, WorldInvariants) {
  // The KG must satisfy the NE component's assumptions.
  const kg::GraphStats stats = kg::ComputeGraphStats(world_.graph, 0);
  EXPECT_EQ(stats.num_components, 1u);
  EXPECT_GT(news_.corpus.size(), 100u);
}

TEST_F(IntegrationTest, FullPersistenceRoundTripPreservesSearch) {
  // Save KG + corpus, reload both, and verify the reloaded engine returns
  // identical results — the workflow of a production deployment.
  const ScopedTempDir temp;
  const std::string kg_prefix = temp.File("it_kg");
  const std::string corpus_path = temp.File("it_corpus.tsv");
  ASSERT_TRUE(kg::SaveTsv(world_.graph, kg_prefix).ok());
  ASSERT_TRUE(corpus::SaveTsv(news_.corpus, corpus_path).ok());

  Result<kg::KnowledgeGraph> kg2 = kg::LoadTsv(kg_prefix);
  ASSERT_TRUE(kg2.ok());
  Result<corpus::Corpus> corpus2 = corpus::LoadTsv(corpus_path);
  ASSERT_TRUE(corpus2.ok());
  kg::LabelIndex labels2(*kg2);

  NewsLinkEngine original(&world_.graph, &labels_, {});
  ASSERT_TRUE(original.Index(news_.corpus).ok());
  NewsLinkEngine reloaded(&*kg2, &labels2, {});
  ASSERT_TRUE(reloaded.Index(*corpus2).ok());

  for (size_t d : {0u, 5u, 11u}) {
    const auto a = original.Search({Sentence(d), 10}).hits;
    const auto b = reloaded.Search({Sentence(d), 10}).hits;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc_index, b[i].doc_index);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
}

TEST_F(IntegrationTest, AllEnginesReturnValidResults) {
  baselines::LuceneLikeEngine lucene;
  ASSERT_TRUE(lucene.Index(news_.corpus).ok());
  text::GazetteerNer ner(&labels_);
  baselines::QeprfEngine qeprf(&world_.graph, &labels_, &ner);
  ASSERT_TRUE(qeprf.Index(news_.corpus).ok());
  NewsLinkEngine newslink(&world_.graph, &labels_, {});
  ASSERT_TRUE(newslink.Index(news_.corpus).ok());

  const std::string query = Sentence(20);
  for (baselines::SearchEngine* engine :
       std::initializer_list<baselines::SearchEngine*>{&lucene, &qeprf,
                                                       &newslink}) {
    const auto results = engine->Search({query, 7}).hits;
    EXPECT_LE(results.size(), 7u) << engine->name();
    std::set<size_t> seen;
    for (const auto& r : results) {
      EXPECT_LT(r.doc_index, news_.corpus.size()) << engine->name();
      EXPECT_TRUE(seen.insert(r.doc_index).second)
          << engine->name() << " returned a duplicate document";
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_LE(results[i].score, results[i - 1].score) << engine->name();
    }
  }
}

TEST_F(IntegrationTest, ExplainedPathsUseRealGraphElements) {
  NewsLinkEngine engine(&world_.graph, &labels_, {});
  ASSERT_TRUE(engine.Index(news_.corpus).ok());
  const auto results = engine.Search({.query = Sentence(8), .k = 5, .explain = true, .max_paths_per_result = 4}).hits;
  ASSERT_FALSE(results.empty());
  for (const ExplainedResult& r : results) {
    for (const embed::RelationshipPath& p : r.paths) {
      ASSERT_GE(p.nodes.size(), 2u);
      ASSERT_EQ(p.edges.size(), p.nodes.size() - 1);
      for (kg::NodeId v : p.nodes) {
        EXPECT_LT(v, world_.graph.num_nodes());
      }
      for (size_t i = 0; i < p.edges.size(); ++i) {
        const embed::PathEdge& e = p.edges[i];
        // Each path edge must connect consecutive path nodes.
        const kg::NodeId a = p.nodes[i];
        const kg::NodeId b = p.nodes[i + 1];
        EXPECT_TRUE((e.from == a && e.to == b) || (e.from == b && e.to == a));
        EXPECT_LT(e.predicate, world_.graph.num_predicates());
      }
    }
  }
}

TEST_F(IntegrationTest, EndToEndEvaluationRuns) {
  std::vector<std::vector<std::string>> docs;
  for (const auto& d : news_.corpus.docs()) {
    docs.push_back(vec::TokenizeForVectors(d.text));
  }
  vec::FastTextConfig ft;
  ft.sgns.dim = 16;
  ft.sgns.epochs = 1;
  ft.buckets = 2000;
  vec::FastTextModel judge;
  judge.Train(docs, ft);

  Rng rng(5);
  corpus::CorpusSplit split =
      corpus::SplitCorpus(news_.corpus.size(), 0.8, 0.1, &rng);
  text::GazetteerNer ner(&labels_);
  eval::EvaluationRunner runner(&news_.corpus, &split, &ner, &judge);
  runner.Prepare();

  NewsLinkEngine engine(&world_.graph, &labels_, {});
  ASSERT_TRUE(engine.Index(news_.corpus).ok());
  const eval::EngineScores scores = runner.Evaluate(engine);
  // Smoke-level sanity on a small corpus: most queries recover Q in top-5.
  EXPECT_GT(scores.density.hit_at.at(5), 0.6);
  EXPECT_GE(scores.density.sim_at.at(5), 0.0);
  EXPECT_LE(scores.density.sim_at.at(5), 1.0);
}

TEST_F(IntegrationTest, WholePipelineIsDeterministic) {
  auto run_once = [this]() {
    kg::SyntheticKg world = MakeWorld();
    kg::LabelIndex labels(world.graph);
    corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
    config.num_stories = 40;
    corpus::SyntheticCorpus news =
        corpus::SyntheticNewsGenerator(&world, config).Generate("it");
    NewsLinkEngine engine(&world.graph, &labels, {});
    EXPECT_TRUE(engine.Index(news.corpus).ok());
    std::string signature;
    const std::string& text = news.corpus.doc(13).text;
    for (const auto& r :
         engine.Search({text.substr(0, text.find('.') + 1), 10}).hits) {
      signature += std::to_string(r.doc_index) + ":" +
                   std::to_string(r.score) + ";";
    }
    return signature;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace newslink
