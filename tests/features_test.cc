// Tests for the extension features: embedding persistence and incremental
// engine indexing.

#include <gtest/gtest.h>

#include "corpus/synthetic_news.h"
#include "embed/embedding_io.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "newslink/newslink_engine.h"

namespace newslink {
namespace {

// ---------------------------------------------------------------------------
// Shared world
// ---------------------------------------------------------------------------

class FeaturesTest : public ::testing::Test {
 protected:
  FeaturesTest() : world_(MakeWorld()), labels_(world_.graph) {
    corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
    config.num_stories = 25;
    news_ = corpus::SyntheticNewsGenerator(&world_, config).Generate("ft");
  }

  static kg::SyntheticKg MakeWorld() {
    kg::SyntheticKgConfig config;
    config.seed = 808;
    config.num_countries = 2;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  std::string Sentence(size_t doc) const {
    const std::string& text = news_.corpus.doc(doc).text;
    return text.substr(0, text.find('.') + 1);
  }

  /// Embeddings through the snapshot codec and back; the whole payload
  /// must be consumed.
  static Status RoundTrip(const std::vector<embed::DocumentEmbedding>& in,
                          std::vector<embed::DocumentEmbedding>* out) {
    ByteWriter writer;
    embed::SerializeEmbeddings(in, &writer);
    ByteReader reader(writer.bytes());
    NL_RETURN_IF_ERROR(embed::DeserializeEmbeddings(&reader, out));
    return reader.ExpectEnd();
  }

  kg::SyntheticKg world_;
  kg::LabelIndex labels_;
  corpus::SyntheticCorpus news_;
};

// ---------------------------------------------------------------------------
// Embedding persistence + engine integration
// ---------------------------------------------------------------------------

TEST_F(FeaturesTest, EmbeddingStoreRoundTripsExactly) {
  NewsLinkEngine engine(&world_.graph, &labels_, {});
  ASSERT_TRUE(engine.Index(news_.corpus).ok());

  const std::vector<embed::DocumentEmbedding> embeddings =
      engine.SnapshotEmbeddings();
  std::vector<embed::DocumentEmbedding> loaded;
  const Status status = RoundTrip(embeddings, &loaded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(loaded.size(), embeddings.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    const embed::DocumentEmbedding& a = embeddings[i];
    const embed::DocumentEmbedding& b = loaded[i];
    ASSERT_EQ(a.segment_graphs.size(), b.segment_graphs.size()) << i;
    EXPECT_EQ(a.node_counts, b.node_counts) << i;
    for (size_t s = 0; s < a.segment_graphs.size(); ++s) {
      EXPECT_EQ(a.segment_graphs[s].root, b.segment_graphs[s].root);
      EXPECT_EQ(a.segment_graphs[s].labels, b.segment_graphs[s].labels);
      EXPECT_EQ(a.segment_graphs[s].label_distances,
                b.segment_graphs[s].label_distances);
      EXPECT_EQ(a.segment_graphs[s].nodes, b.segment_graphs[s].nodes);
      EXPECT_EQ(a.segment_graphs[s].source_nodes,
                b.segment_graphs[s].source_nodes);
      EXPECT_EQ(a.segment_graphs[s].edges, b.segment_graphs[s].edges);
    }
  }
}

TEST_F(FeaturesTest, IndexWithEmbeddingsMatchesFreshIndex) {
  NewsLinkEngine fresh(&world_.graph, &labels_, {});
  ASSERT_TRUE(fresh.Index(news_.corpus).ok());

  std::vector<embed::DocumentEmbedding> loaded;
  ASSERT_TRUE(RoundTrip(fresh.SnapshotEmbeddings(), &loaded).ok());

  NewsLinkEngine restored(&world_.graph, &labels_, {});
  ASSERT_TRUE(
      restored.IndexWithEmbeddings(news_.corpus, std::move(loaded)).ok());

  for (size_t d : {1u, 9u, 17u}) {
    const auto a = fresh.Search({Sentence(d), 10}).hits;
    const auto b = restored.Search({Sentence(d), 10}).hits;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc_index, b[i].doc_index);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
}

TEST_F(FeaturesTest, IndexWithEmbeddingsRejectsMisalignedStore) {
  NewsLinkEngine engine(&world_.graph, &labels_, {});
  std::vector<embed::DocumentEmbedding> wrong_size(3);
  EXPECT_TRUE(engine.IndexWithEmbeddings(news_.corpus, std::move(wrong_size))
                  .IsInvalidArgument());
}

TEST_F(FeaturesTest, IncrementalAddDocumentIsSearchable) {
  NewsLinkEngine engine(&world_.graph, &labels_, {});
  ASSERT_TRUE(engine.Index(news_.corpus).ok());
  const size_t before = engine.num_indexed_docs();

  corpus::Document extra;
  extra.id = "late-arrival";
  extra.text = Sentence(3) + " " + Sentence(7);
  const size_t index = engine.AddDocument(extra);
  EXPECT_EQ(index, before);
  EXPECT_EQ(engine.num_indexed_docs(), before + 1);

  // The new document competes in search (it literally contains the query).
  const auto results = engine.Search({Sentence(3), 10}).hits;
  bool found = false;
  for (const auto& r : results) {
    if (r.doc_index == index) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(FeaturesTest, AddDocumentOnEmptyEngineWorks) {
  NewsLinkEngine engine(&world_.graph, &labels_, {});
  corpus::Document doc;
  doc.id = "only";
  doc.text = Sentence(0);
  EXPECT_EQ(engine.AddDocument(doc), 0u);
  const auto results = engine.Search({Sentence(0), 3}).hits;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc_index, 0u);
}

}  // namespace
}  // namespace newslink
