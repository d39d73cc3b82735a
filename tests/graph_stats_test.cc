// Tests for kg::GraphStats / ConnectedComponents / BfsDistance, plus
// corpus TSV persistence.

#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "corpus/corpus_io.h"
#include "kg/graph_stats.h"
#include "kg/knowledge_graph.h"
#include "kg/synthetic_kg.h"
#include "test_temp.h"

namespace newslink {
namespace {

kg::KnowledgeGraph TwoComponentGraph() {
  kg::KgBuilder b;
  // Component A: a path of 3 nodes; component B: a pair.
  for (int i = 0; i < 5; ++i) {
    b.AddNode("n" + std::to_string(i), kg::EntityType::kGpe);
  }
  EXPECT_TRUE(b.AddEdge(0, 1, "p").ok());
  EXPECT_TRUE(b.AddEdge(1, 2, "p").ok());
  EXPECT_TRUE(b.AddEdge(3, 4, "p").ok());
  return b.Build();
}

TEST(ConnectedComponentsTest, FindsBothComponents) {
  const kg::KnowledgeGraph g = TwoComponentGraph();
  const std::vector<uint32_t> comp = kg::ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(BfsDistanceTest, PathAndDisconnected) {
  const kg::KnowledgeGraph g = TwoComponentGraph();
  EXPECT_EQ(kg::BfsDistance(g, 0, 0), 0u);
  EXPECT_EQ(kg::BfsDistance(g, 0, 2), 2u);
  EXPECT_EQ(kg::BfsDistance(g, 2, 0), 2u);  // bi-directed symmetry
  EXPECT_EQ(kg::BfsDistance(g, 0, 4), std::numeric_limits<size_t>::max());
}

TEST(GraphStatsTest, CountsComponentsAndDegrees) {
  const kg::KnowledgeGraph g = TwoComponentGraph();
  const kg::GraphStats stats = kg::ComputeGraphStats(g, 0);
  EXPECT_EQ(stats.num_nodes, 5u);
  EXPECT_EQ(stats.num_edges, 3u);
  EXPECT_EQ(stats.num_components, 2u);
  EXPECT_EQ(stats.largest_component, 3u);
  // Total bi-directed degree = 2 * 2 * edges / nodes.
  EXPECT_DOUBLE_EQ(stats.average_degree, 6.0 / 5.0);
  EXPECT_EQ(stats.max_degree, 2u);
}

TEST(GraphStatsTest, SyntheticKgIsOneComponent) {
  kg::SyntheticKgConfig config;
  config.seed = 3;
  config.num_countries = 2;
  const kg::SyntheticKg world = kg::SyntheticKgGenerator(config).Generate();
  const kg::GraphStats stats = kg::ComputeGraphStats(world.graph, 4);
  EXPECT_EQ(stats.num_components, 1u);
  EXPECT_EQ(stats.largest_component, world.graph.num_nodes());
  EXPECT_GT(stats.estimated_mean_distance, 1.0);
  EXPECT_LT(stats.estimated_mean_distance, 12.0);  // shallow hierarchy
}

TEST(GraphStatsTest, EmptyGraph) {
  kg::KgBuilder b;
  const kg::KnowledgeGraph g = b.Build();
  const kg::GraphStats stats = kg::ComputeGraphStats(g);
  EXPECT_EQ(stats.num_nodes, 0u);
  EXPECT_EQ(stats.num_components, 0u);
}

// ---------------------------------------------------------------------------
// Corpus TSV persistence
// ---------------------------------------------------------------------------

TEST(CorpusIoTest, RoundTrip) {
  corpus::Corpus c;
  c.Add({"a-1", "Title One", "Body text. Second sentence.", 7});
  c.Add({"a-2", "Tabs\tand\nnewlines", "weird \\ text\there", 9});

  const ScopedTempDir temp;
  const std::string path = temp.File("nl_corpus_test.tsv");
  ASSERT_TRUE(corpus::SaveTsv(c, path).ok());
  Result<corpus::Corpus> loaded = corpus::LoadTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded->doc(i).id, c.doc(i).id);
    EXPECT_EQ(loaded->doc(i).title, c.doc(i).title);
    EXPECT_EQ(loaded->doc(i).text, c.doc(i).text);
    EXPECT_EQ(loaded->doc(i).story_id, c.doc(i).story_id);
  }
}

TEST(CorpusIoTest, MissingFileIsIOError) {
  Result<corpus::Corpus> loaded = corpus::LoadTsv("/no/such/file.tsv");
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST(CorpusIoTest, EmptyCorpusRoundTrips) {
  corpus::Corpus c;
  const ScopedTempDir temp;
  const std::string path = temp.File("nl_corpus_empty.tsv");
  ASSERT_TRUE(corpus::SaveTsv(c, path).ok());
  Result<corpus::Corpus> loaded = corpus::LoadTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

namespace {

void WriteRawTsv(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

}  // namespace

TEST(CorpusIoTest, RoundTripPreservesTimestamps) {
  corpus::Corpus c;
  c.Add({"t-0", "Unknown time", "Body.", 0, 0});
  c.Add({"t-1", "Epoch-ish", "Body.", 0, 1});
  c.Add({"t-2", "Recent", "Body.", 1, 1700000000000});
  c.Add({"t-3", "Far future", "Body.", 1,
         std::numeric_limits<int64_t>::max()});

  const ScopedTempDir temp;
  const std::string path = temp.File("nl_corpus_ts.tsv");
  ASSERT_TRUE(corpus::SaveTsv(c, path).ok());
  Result<corpus::Corpus> loaded = corpus::LoadTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(loaded->doc(i).timestamp_ms, c.doc(i).timestamp_ms) << i;
  }
}

TEST(CorpusIoTest, RejectsPreTimeFourFieldLines) {
  // The pre-time format (no timestamp column) must be a loud Status, not a
  // silent timestamp of 0 (DESIGN.md Sec. 15).
  const ScopedTempDir temp;
  const std::string path = temp.File("nl_corpus_4field.tsv");
  WriteRawTsv(path, "d1\t0\tTitle\tBody\n");
  const Result<corpus::Corpus> loaded = corpus::LoadTsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
  EXPECT_NE(loaded.status().ToString().find("want 5 fields"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(CorpusIoTest, RejectsBadTimestamps) {
  const ScopedTempDir temp;
  const std::string path = temp.File("nl_corpus_badts.tsv");
  const char* bad_timestamps[] = {
      "-5",                    // negative
      "12x",                   // trailing junk
      "",                      // empty column
      "9223372036854775808",   // int64 max + 1
      "18446744073709551616",  // uint64 overflow
  };
  for (const char* ts : bad_timestamps) {
    WriteRawTsv(path, std::string("d1\t0\t") + ts + "\tTitle\tBody\n");
    const Result<corpus::Corpus> loaded = corpus::LoadTsv(path);
    ASSERT_FALSE(loaded.ok()) << "timestamp '" << ts << "' accepted";
    EXPECT_NE(loaded.status().ToString().find("bad timestamp"),
              std::string::npos)
        << loaded.status().ToString();
  }
  // Largest representable instant still loads.
  WriteRawTsv(path, "d1\t0\t9223372036854775807\tTitle\tBody\n");
  const Result<corpus::Corpus> ok = corpus::LoadTsv(path);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->doc(0).timestamp_ms, std::numeric_limits<int64_t>::max());
}

}  // namespace
}  // namespace newslink
