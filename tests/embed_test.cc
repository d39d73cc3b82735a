// Tests for src/embed — the paper's core contribution. Covers the
// compactness order (Def. 4), the G* search (Algorithms 1-3) on the
// paper's own Figure 1 topology, Lemmas 1-3, Theorem 1 (agreement with an
// exhaustive reference, swept over random graphs), the TreeEmb baseline,
// document embeddings and the path explainer.

#include <algorithm>
#include <map>
#include <ostream>
#include <queue>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embed/ancestor_graph.h"
#include "embed/document_embedding.h"
#include "embed/lcag_search.h"
#include "embed/path_explainer.h"
#include "embed/tree_embedder.h"
#include "kg/knowledge_graph.h"
#include "kg/label_index.h"

namespace newslink {
namespace embed {
namespace {

// ---------------------------------------------------------------------------
// Compactness order (Definition 4)
// ---------------------------------------------------------------------------

TEST(CompactnessTest, SortedDescending) {
  EXPECT_EQ(SortedDescending({1, 3, 2}), (std::vector<double>{3, 2, 1}));
  EXPECT_EQ(SortedDescending({}), (std::vector<double>{}));
}

TEST(CompactnessTest, PaperExample) {
  // Fig. 1 discussion: G_{v0} with distances {2,1,1,1} is more compact than
  // G_u with {2,2,1,1} because the second-largest distance is smaller.
  EXPECT_TRUE(CompactnessLess({2, 1, 1, 1}, {2, 2, 1, 1}));
  EXPECT_FALSE(CompactnessLess({2, 2, 1, 1}, {2, 1, 1, 1}));
}

TEST(CompactnessTest, OrderIndependentOfInputPermutation) {
  EXPECT_TRUE(CompactnessLess({1, 2, 1, 1}, {1, 1, 2, 2}));
  EXPECT_TRUE(CompactnessEqual({3, 1, 2}, {1, 2, 3}));
}

TEST(CompactnessTest, EqualVectorsNeitherLess) {
  EXPECT_FALSE(CompactnessLess({2, 1}, {1, 2}));
  EXPECT_FALSE(CompactnessLess({1, 2}, {2, 1}));
  EXPECT_TRUE(CompactnessEqual({2, 1}, {1, 2}));
}

TEST(CompactnessTest, SmallerDepthAlwaysWins) {
  // Lemma 1's engine: depth is the first comparison key.
  EXPECT_TRUE(CompactnessLess({2, 2, 2}, {3, 0, 0}));
}

TEST(CompactnessTest, StrictWeakOrderingOnRandomVectors) {
  Rng rng(99);
  std::vector<std::vector<double>> vecs;
  for (int i = 0; i < 30; ++i) {
    std::vector<double> v(4);
    for (double& x : v) x = static_cast<double>(rng.Uniform(4));
    vecs.push_back(std::move(v));
  }
  for (const auto& a : vecs) {
    EXPECT_FALSE(CompactnessLess(a, a));  // irreflexive
    for (const auto& b : vecs) {
      // Antisymmetric.
      EXPECT_FALSE(CompactnessLess(a, b) && CompactnessLess(b, a));
      // Trichotomy.
      EXPECT_TRUE(CompactnessLess(a, b) || CompactnessLess(b, a) ||
                  CompactnessEqual(a, b));
      for (const auto& c : vecs) {
        if (CompactnessLess(a, b) && CompactnessLess(b, c)) {
          EXPECT_TRUE(CompactnessLess(a, c));  // transitive
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The paper's Figure 1 graph
// ---------------------------------------------------------------------------

/// Node layout mirrors Fig. 1: v0 Khyber, v1 Waziristan, v2 Taliban,
/// v3 Kunar, v4 Lahore, v5 Peshawar, v6 Pakistan, v7 Upper Dir,
/// v8 Swat Valley.
class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test() {
    kg::KgBuilder b;
    khyber_ = b.AddNode("Khyber", kg::EntityType::kGpe);
    waziristan_ = b.AddNode("Waziristan", kg::EntityType::kGpe);
    taliban_ = b.AddNode("Taliban", kg::EntityType::kNorp);
    kunar_ = b.AddNode("Kunar", kg::EntityType::kGpe);
    lahore_ = b.AddNode("Lahore", kg::EntityType::kGpe);
    peshawar_ = b.AddNode("Peshawar", kg::EntityType::kGpe);
    pakistan_ = b.AddNode("Pakistan", kg::EntityType::kGpe);
    upper_dir_ = b.AddNode("Upper Dir", kg::EntityType::kGpe);
    swat_ = b.AddNode("Swat Valley", kg::EntityType::kGpe);

    auto edge = [&b](kg::NodeId s, kg::NodeId d, const char* p) {
      ASSERT_TRUE(b.AddEdge(s, d, p).ok());
    };
    // Two parallel 2-hop connections Taliban -> Khyber (the coverage case).
    edge(taliban_, waziristan_, "operates_in");
    edge(waziristan_, khyber_, "located_in");
    edge(taliban_, kunar_, "operates_in");
    edge(kunar_, khyber_, "located_in");
    // One-hop neighbours of Khyber.
    edge(upper_dir_, khyber_, "located_in");
    edge(swat_, khyber_, "located_in");
    edge(khyber_, pakistan_, "part_of");
    edge(peshawar_, khyber_, "located_in");
    // Lahore sits two hops away through Pakistan.
    edge(lahore_, pakistan_, "located_in");
    graph_ = b.Build();
    index_ = kg::LabelIndex(graph_);
  }

  kg::NodeId khyber_, waziristan_, taliban_, kunar_, lahore_, peshawar_,
      pakistan_, upper_dir_, swat_;
  kg::KnowledgeGraph graph_;
  kg::LabelIndex index_;
};

TEST_F(Figure1Test, GStarRootIsKhyber) {
  LcagSearch search(&graph_, &index_);
  const LcagResult result = search.Find(
      {"upper dir", "swat valley", "pakistan", "taliban"});
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.graph.root, khyber_);
  EXPECT_EQ(SortedDescending(result.graph.label_distances),
            (std::vector<double>{2, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(result.graph.depth(), 2.0);
}

TEST_F(Figure1Test, CoverageKeepsBothTalibanPaths) {
  LcagSearch search(&graph_, &index_);
  const LcagResult result = search.Find(
      {"upper dir", "swat valley", "pakistan", "taliban"});
  ASSERT_TRUE(result.found);
  const auto& nodes = result.graph.nodes;
  // Both intermediate nodes of the two shortest Taliban->Khyber paths must
  // be present (paper: "two paths from v2 to v0 in Figure 1").
  EXPECT_NE(std::find(nodes.begin(), nodes.end(), waziristan_), nodes.end());
  EXPECT_NE(std::find(nodes.begin(), nodes.end(), kunar_), nodes.end());
  // Edges: taliban->waziristan->khyber and taliban->kunar->khyber, plus
  // three 1-hop label paths = 4 + 3 edges.
  EXPECT_EQ(result.graph.edges.size(), 7u);
}

TEST_F(Figure1Test, TreeEmbedderKeepsOnlyOneTalibanPath) {
  TreeEmbedder tree(&graph_, &index_);
  const TreeEmbedResult result = tree.Find(
      {"upper dir", "swat valley", "pakistan", "taliban"});
  ASSERT_TRUE(result.found);
  const auto& nodes = result.tree.nodes;
  const bool has_waziristan =
      std::find(nodes.begin(), nodes.end(), waziristan_) != nodes.end();
  const bool has_kunar =
      std::find(nodes.begin(), nodes.end(), kunar_) != nodes.end();
  EXPECT_NE(has_waziristan, has_kunar)
      << "a tree must keep exactly one of the two parallel paths";
  // Tree shape: |E| = |V| - 1.
  EXPECT_EQ(result.tree.edges.size(), result.tree.nodes.size() - 1);
}

TEST_F(Figure1Test, QueryAndResultEmbeddingsOverlap) {
  LcagSearch search(&graph_, &index_);
  const LcagResult tq = search.Find(
      {"upper dir", "swat valley", "pakistan", "taliban"});
  const LcagResult tr =
      search.Find({"lahore", "peshawar", "pakistan", "taliban"});
  ASSERT_TRUE(tq.found);
  ASSERT_TRUE(tr.found);
  // Paper Table I: Khyber and Kunar are induced entities of BOTH documents.
  std::set<kg::NodeId> q_nodes(tq.graph.nodes.begin(), tq.graph.nodes.end());
  EXPECT_TRUE(q_nodes.contains(khyber_));
  std::set<kg::NodeId> r_nodes(tr.graph.nodes.begin(), tr.graph.nodes.end());
  EXPECT_TRUE(r_nodes.contains(khyber_));
  std::vector<kg::NodeId> overlap;
  std::set_intersection(q_nodes.begin(), q_nodes.end(), r_nodes.begin(),
                        r_nodes.end(), std::back_inserter(overlap));
  EXPECT_GE(overlap.size(), 3u);  // at least khyber, pakistan, taliban
}

TEST_F(Figure1Test, SourceNodesAreTheEntityNodes) {
  LcagSearch search(&graph_, &index_);
  const LcagResult result = search.Find(
      {"upper dir", "swat valley", "pakistan", "taliban"});
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.graph.source_nodes,
            (std::vector<kg::NodeId>{taliban_, pakistan_, upper_dir_,
                                     swat_}));
}

TEST_F(Figure1Test, Lemma2DiameterBound) {
  LcagSearch search(&graph_, &index_);
  const LcagResult result = search.Find(
      {"upper dir", "swat valley", "pakistan", "taliban"});
  ASSERT_TRUE(result.found);
  const AncestorGraph& g = result.graph;

  // BFS inside the materialized subgraph, treating edges as undirected.
  std::map<kg::NodeId, std::vector<kg::NodeId>> adj;
  for (const PathEdge& e : g.edges) {
    adj[e.from].push_back(e.to);
    adj[e.to].push_back(e.from);
  }
  for (kg::NodeId start : g.nodes) {
    std::map<kg::NodeId, int> dist = {{start, 0}};
    std::queue<kg::NodeId> q;
    q.push(start);
    while (!q.empty()) {
      const kg::NodeId v = q.front();
      q.pop();
      for (kg::NodeId n : adj[v]) {
        if (!dist.contains(n)) {
          dist[n] = dist[v] + 1;
          q.push(n);
        }
      }
    }
    for (kg::NodeId other : g.nodes) {
      ASSERT_TRUE(dist.contains(other)) << "G* must be connected";
      EXPECT_LE(dist[other], 2 * g.depth());  // Lemma 2
    }
  }
}

TEST_F(Figure1Test, SingleLabelDegeneratesToSourceNode) {
  LcagSearch search(&graph_, &index_);
  const LcagResult result = search.Find({"taliban"});
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.graph.root, taliban_);
  EXPECT_DOUBLE_EQ(result.graph.depth(), 0.0);
  EXPECT_EQ(result.graph.nodes, (std::vector<kg::NodeId>{taliban_}));
}

TEST_F(Figure1Test, UnmatchedLabelsAreDropped) {
  LcagSearch search(&graph_, &index_);
  const LcagResult result =
      search.Find({"taliban", "atlantis", "pakistan"});
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.resolved_labels,
            (std::vector<std::string>{"taliban", "pakistan"}));
  EXPECT_EQ(result.graph.label_distances.size(), 2u);
}

TEST_F(Figure1Test, AllLabelsUnmatchedReturnsNotFound) {
  LcagSearch search(&graph_, &index_);
  const LcagResult result = search.Find({"atlantis", "elbonia"});
  EXPECT_FALSE(result.found);
}

TEST_F(Figure1Test, ExhaustiveAgreesOnFigureOne) {
  LcagSearch search(&graph_, &index_);
  const std::vector<std::string> labels = {"upper dir", "swat valley",
                                           "pakistan", "taliban"};
  const LcagResult fast = search.Find(labels);
  const LcagResult slow = search.FindExhaustive(labels);
  ASSERT_TRUE(fast.found);
  ASSERT_TRUE(slow.found);
  EXPECT_TRUE(CompactnessEqual(fast.graph.label_distances,
                               slow.graph.label_distances));
  // Early termination must do no more work than the exhaustive sweep.
  EXPECT_LE(fast.expansions, slow.expansions);
}

TEST_F(Figure1Test, TreeEmbedderExpandsMoreThanLcag) {
  // The efficiency claim behind Fig. 7: the GST bound (total weight)
  // requires a deeper frontier sweep than the LCAG depth bound.
  LcagSearch lcag(&graph_, &index_);
  TreeEmbedder tree(&graph_, &index_);
  const std::vector<std::string> labels = {"upper dir", "swat valley",
                                           "pakistan", "taliban"};
  const LcagResult a = lcag.Find(labels);
  const TreeEmbedResult b = tree.Find(labels);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_GE(b.expansions, a.expansions);
}

// ---------------------------------------------------------------------------
// MultiLabelDijkstra: monotonicity (Lemma 3) and tie handling
// ---------------------------------------------------------------------------

TEST_F(Figure1Test, PopDistancesAreMonotonicallyNonDecreasing) {
  std::vector<std::vector<kg::NodeId>> sources = {
      {upper_dir_}, {swat_}, {pakistan_}, {taliban_}};
  MultiLabelDijkstra dijkstra(&graph_, std::move(sources));
  MultiLabelDijkstra::PopEvent event;
  double last = 0.0;
  while (dijkstra.PopNext(&event)) {
    EXPECT_GE(event.distance, last);  // Lemma 3
    last = event.distance;
  }
}

TEST_F(Figure1Test, SettledCountReachesAllLabelsAtRoot) {
  std::vector<std::vector<kg::NodeId>> sources = {
      {upper_dir_}, {swat_}, {pakistan_}, {taliban_}};
  MultiLabelDijkstra dijkstra(&graph_, std::move(sources));
  MultiLabelDijkstra::PopEvent event;
  while (dijkstra.PopNext(&event)) {
  }
  EXPECT_EQ(dijkstra.SettledCount(khyber_), 4);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(dijkstra.Settled(i, khyber_));
  }
  EXPECT_DOUBLE_EQ(dijkstra.Distance(3, khyber_), 2.0);  // taliban
}

TEST(MultiLabelDijkstraTest, MultipleSourcesPerLabel) {
  // Two "Springfield" nodes; D(l, v) must be the min over S(l) (Def. 2).
  kg::KgBuilder b;
  const kg::NodeId s1 = b.AddNode("Springfield", kg::EntityType::kGpe);
  const kg::NodeId s2 = b.AddNode("Springfield", kg::EntityType::kGpe);
  const kg::NodeId mid = b.AddNode("Mid", kg::EntityType::kGpe);
  const kg::NodeId far = b.AddNode("Far", kg::EntityType::kGpe);
  ASSERT_TRUE(b.AddEdge(s1, mid, "p").ok());
  ASSERT_TRUE(b.AddEdge(mid, far, "p").ok());
  ASSERT_TRUE(b.AddEdge(s2, far, "p").ok());
  kg::KnowledgeGraph g = b.Build();

  MultiLabelDijkstra dijkstra(&g, {{s1, s2}});
  MultiLabelDijkstra::PopEvent event;
  while (dijkstra.PopNext(&event)) {
  }
  EXPECT_DOUBLE_EQ(dijkstra.Distance(0, far), 1.0);  // via s2, not 2 via s1
  EXPECT_DOUBLE_EQ(dijkstra.Distance(0, mid), 1.0);
}

TEST(LcagSearchTest, DisconnectedLabelsNotFound) {
  kg::KgBuilder b;
  const kg::NodeId a = b.AddNode("IslandA", kg::EntityType::kGpe);
  const kg::NodeId a2 = b.AddNode("CoastA", kg::EntityType::kGpe);
  const kg::NodeId c = b.AddNode("IslandB", kg::EntityType::kGpe);
  const kg::NodeId c2 = b.AddNode("CoastB", kg::EntityType::kGpe);
  ASSERT_TRUE(b.AddEdge(a, a2, "p").ok());
  ASSERT_TRUE(b.AddEdge(c, c2, "p").ok());
  kg::KnowledgeGraph g = b.Build();
  kg::LabelIndex index(g);
  LcagSearch search(&g, &index);
  const LcagResult result = search.Find({"islanda", "islandb"});
  EXPECT_FALSE(result.found);
  EXPECT_FALSE(result.timed_out);
}

TEST(LcagSearchTest, EqualDepthCandidatesComparedOnSecondaryDistance) {
  // Two candidate roots with the same depth 2 but different second-largest
  // distances; C2 must not cut off the better one.
  kg::KgBuilder b;
  const kg::NodeId a = b.AddNode("SourceA", kg::EntityType::kGpe);   // 0
  const kg::NodeId bb = b.AddNode("SourceB", kg::EntityType::kGpe);  // 1
  const kg::NodeId n1 = b.AddNode("RootFar", kg::EntityType::kGpe);  // 2
  const kg::NodeId n2 = b.AddNode("RootNear", kg::EntityType::kGpe); // 3
  const kg::NodeId x = b.AddNode("X", kg::EntityType::kGpe);         // 4
  const kg::NodeId y = b.AddNode("Y", kg::EntityType::kGpe);         // 5
  const kg::NodeId z = b.AddNode("Z", kg::EntityType::kGpe);         // 6
  // n1: distance 2 from both sources.
  ASSERT_TRUE(b.AddEdge(a, x, "p").ok());
  ASSERT_TRUE(b.AddEdge(x, n1, "p").ok());
  ASSERT_TRUE(b.AddEdge(bb, y, "p").ok());
  ASSERT_TRUE(b.AddEdge(y, n1, "p").ok());
  // n2: distance 2 from a, 1 from b.
  ASSERT_TRUE(b.AddEdge(a, z, "p").ok());
  ASSERT_TRUE(b.AddEdge(z, n2, "p").ok());
  ASSERT_TRUE(b.AddEdge(bb, n2, "p").ok());
  kg::KnowledgeGraph g = b.Build();
  kg::LabelIndex index(g);
  LcagSearch search(&g, &index);
  const LcagResult result = search.Find({"sourcea", "sourceb"});
  ASSERT_TRUE(result.found);
  EXPECT_EQ(SortedDescending(result.graph.label_distances),
            (std::vector<double>{2, 1}));
}

TEST(LcagSearchTest, WeightedEdgesChangeTheRoot) {
  kg::KgBuilder b;
  const kg::NodeId a = b.AddNode("A", kg::EntityType::kGpe);
  const kg::NodeId c = b.AddNode("C", kg::EntityType::kGpe);
  const kg::NodeId cheap = b.AddNode("Cheap", kg::EntityType::kGpe);
  const kg::NodeId dear = b.AddNode("Dear", kg::EntityType::kGpe);
  ASSERT_TRUE(b.AddEdge(a, cheap, "p", 1.0f).ok());
  ASSERT_TRUE(b.AddEdge(c, cheap, "p", 1.0f).ok());
  ASSERT_TRUE(b.AddEdge(a, dear, "p", 5.0f).ok());
  ASSERT_TRUE(b.AddEdge(c, dear, "p", 5.0f).ok());
  kg::KnowledgeGraph g = b.Build();
  kg::LabelIndex index(g);
  LcagSearch search(&g, &index);
  const LcagResult result = search.Find({"a", "c"});
  ASSERT_TRUE(result.found);
  // Candidates: a itself at [2,0] via cheap... the best is either endpoint
  // or cheap: cheap has [1,1], a has [0,2], depth 1 < 2 -> cheap wins.
  EXPECT_EQ(result.graph.root, cheap);
}

TEST(LcagSearchTest, MaxExpansionsCapStopsSearch) {
  kg::KgBuilder b;
  std::vector<kg::NodeId> chain;
  for (int i = 0; i < 50; ++i) {
    chain.push_back(
        b.AddNode("N" + std::to_string(i), kg::EntityType::kGpe));
  }
  for (int i = 0; i + 1 < 50; ++i) {
    ASSERT_TRUE(b.AddEdge(chain[i], chain[i + 1], "p").ok());
  }
  kg::KnowledgeGraph g = b.Build();
  kg::LabelIndex index(g);
  LcagSearch search(&g, &index);
  LcagOptions options;
  options.max_expansions = 3;  // far too few to connect the chain ends
  const LcagResult result = search.Find({"n0", "n49"}, options);
  EXPECT_FALSE(result.found);
  EXPECT_LE(result.expansions, 3u);
}

// ---------------------------------------------------------------------------
// Theorem 1: agreement with the exhaustive reference on random graphs
// ---------------------------------------------------------------------------

struct RandomCase {
  uint64_t seed;
  int num_nodes;
  int num_labels;
};

// Readable, deterministic parameter (and ctest) names.
void PrintTo(const RandomCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_nodes" << c.num_nodes << "_labels"
      << c.num_labels;
}

class LcagRandomAgreementTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(LcagRandomAgreementTest, FastMatchesExhaustive) {
  const RandomCase param = GetParam();
  Rng rng(param.seed);
  kg::KgBuilder b;
  for (int i = 0; i < param.num_nodes; ++i) {
    // A few duplicated labels exercise multi-source S(l).
    const std::string label = (i % 7 == 3)
                                  ? "dup" + std::to_string(i % 14)
                                  : "node" + std::to_string(i);
    b.AddNode(label, kg::EntityType::kGpe);
  }
  // Random connected-ish graph: a spanning chain + random extra edges with
  // random small integer weights.
  for (int i = 1; i < param.num_nodes; ++i) {
    ASSERT_TRUE(b.AddEdge(i, static_cast<kg::NodeId>(rng.Uniform(i)), "p",
                          1.0f + static_cast<float>(rng.Uniform(3)))
                    .ok());
  }
  for (int i = 0; i < param.num_nodes; ++i) {
    const kg::NodeId u = static_cast<kg::NodeId>(rng.Uniform(param.num_nodes));
    const kg::NodeId v = static_cast<kg::NodeId>(rng.Uniform(param.num_nodes));
    if (u != v) {
      ASSERT_TRUE(
          b.AddEdge(u, v, "q", 1.0f + static_cast<float>(rng.Uniform(3)))
              .ok());
    }
  }
  kg::KnowledgeGraph g = b.Build();
  kg::LabelIndex index(g);

  std::vector<std::string> labels;
  for (size_t idx :
       rng.SampleWithoutReplacement(param.num_nodes, param.num_labels)) {
    labels.push_back(kg::NormalizeLabel(g.label(
        static_cast<kg::NodeId>(idx))));
  }

  LcagSearch search(&g, &index);
  const LcagResult fast = search.Find(labels);
  const LcagResult slow = search.FindExhaustive(labels);
  ASSERT_EQ(fast.found, slow.found);
  if (fast.found) {
    EXPECT_TRUE(CompactnessEqual(fast.graph.label_distances,
                                 slow.graph.label_distances))
        << "fast root " << fast.graph.root << " vs exhaustive root "
        << slow.graph.root;
    EXPECT_LE(fast.expansions, slow.expansions);
  }
}

std::vector<RandomCase> MakeRandomCases() {
  std::vector<RandomCase> cases;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    cases.push_back({seed, 24 + static_cast<int>(seed % 3) * 12,
                     2 + static_cast<int>(seed % 4)});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, LcagRandomAgreementTest,
                         ::testing::ValuesIn(MakeRandomCases()));

// ---------------------------------------------------------------------------
// TreeEmbedder objective on random graphs
// ---------------------------------------------------------------------------

class TreeRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeRandomTest, RootMinimizesTotalWeightAmongAllNodes) {
  Rng rng(GetParam());
  kg::KgBuilder b;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    b.AddNode("node" + std::to_string(i), kg::EntityType::kGpe);
  }
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(b.AddEdge(i, static_cast<kg::NodeId>(rng.Uniform(i)), "p").ok());
  }
  for (int i = 0; i < n / 2; ++i) {
    const kg::NodeId u = static_cast<kg::NodeId>(rng.Uniform(n));
    const kg::NodeId v = static_cast<kg::NodeId>(rng.Uniform(n));
    if (u != v) {
      ASSERT_TRUE(b.AddEdge(u, v, "q").ok());
    }
  }
  kg::KnowledgeGraph g = b.Build();
  kg::LabelIndex index(g);

  std::vector<std::string> labels = {"node0", "node7", "node13"};
  TreeEmbedder tree(&g, &index);
  const TreeEmbedResult result = tree.Find(labels);
  ASSERT_TRUE(result.found);

  // Brute-force the star objective with full per-label Dijkstras.
  LcagSearch search(&g, &index);
  const LcagResult full = search.FindExhaustive(labels);
  ASSERT_TRUE(full.found);
  std::vector<std::vector<kg::NodeId>> sources;
  for (const auto& l : labels) {
    auto s = index.Lookup(l);
    sources.emplace_back(s.begin(), s.end());
  }
  MultiLabelDijkstra dijkstra(&g, std::move(sources));
  MultiLabelDijkstra::PopEvent event;
  while (dijkstra.PopNext(&event)) {
  }
  double best_total = kInfDistance;
  for (kg::NodeId v = 0; v < g.num_nodes(); ++v) {
    double total = 0.0;
    for (size_t i = 0; i < labels.size(); ++i) {
      total += dijkstra.Distance(i, v);
    }
    best_total = std::min(best_total, total);
  }
  EXPECT_DOUBLE_EQ(result.total_weight, best_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// DocumentEmbedding
// ---------------------------------------------------------------------------

TEST_F(Figure1Test, DocumentEmbeddingUnionCountsOverlap) {
  LcagSegmentEmbedder embedder(&graph_, &index_);
  const DocumentEmbedding emb = EmbedDocument(
      embedder, {{"upper dir", "taliban"}, {"swat valley", "taliban"}});
  ASSERT_EQ(emb.segment_graphs.size(), 2u);
  ASSERT_FALSE(emb.empty());
  // Nodes shared by both segment graphs must have count 2.
  std::map<kg::NodeId, uint32_t> counts(emb.node_counts.begin(),
                                        emb.node_counts.end());
  EXPECT_EQ(counts[taliban_], 2u);
  EXPECT_EQ(counts[upper_dir_], 1u);
  EXPECT_EQ(counts[swat_], 1u);
}

TEST_F(Figure1Test, InducedNodesExcludeSources) {
  LcagSegmentEmbedder embedder(&graph_, &index_);
  const DocumentEmbedding emb = EmbedDocument(
      embedder, {{"upper dir", "swat valley", "pakistan", "taliban"}});
  const std::vector<kg::NodeId> sources = emb.SourceNodes();
  const std::vector<kg::NodeId> induced = emb.InducedNodes();
  for (kg::NodeId v : induced) {
    EXPECT_EQ(std::find(sources.begin(), sources.end(), v), sources.end());
  }
  // Khyber is induced (paper Table I).
  EXPECT_NE(std::find(induced.begin(), induced.end(), khyber_),
            induced.end());
}

TEST_F(Figure1Test, EmptyGroupsYieldEmptyEmbedding) {
  LcagSegmentEmbedder embedder(&graph_, &index_);
  const DocumentEmbedding emb = EmbedDocument(embedder, {});
  EXPECT_TRUE(emb.empty());
  const DocumentEmbedding emb2 = EmbedDocument(embedder, {{}});
  EXPECT_TRUE(emb2.empty());
}

TEST_F(Figure1Test, TreeSegmentEmbedderAlsoWorks) {
  TreeSegmentEmbedder embedder(&graph_, &index_);
  AncestorGraph out;
  EXPECT_TRUE(embedder.EmbedSegment({"upper dir", "taliban"}, &out));
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(embedder.name(), "TreeEmb");
}

// ---------------------------------------------------------------------------
// PathExplainer
// ---------------------------------------------------------------------------

TEST_F(Figure1Test, ExplainsQueryResultEntityPairs) {
  LcagSegmentEmbedder embedder(&graph_, &index_);
  const DocumentEmbedding q = EmbedDocument(
      embedder, {{"upper dir", "swat valley", "pakistan", "taliban"}});
  const DocumentEmbedding r = EmbedDocument(
      embedder, {{"lahore", "peshawar", "pakistan", "taliban"}});

  PathExplainer explainer(&graph_);
  const std::vector<RelationshipPath> paths = explainer.Explain(q, r, 10);
  ASSERT_FALSE(paths.empty());
  // Paths are sorted by length.
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].length(), paths[i - 1].length());
  }
  // Every path stays within the union of the two embeddings.
  std::set<kg::NodeId> allowed;
  for (const auto& e : q.segment_graphs) {
    allowed.insert(e.nodes.begin(), e.nodes.end());
  }
  for (const auto& e : r.segment_graphs) {
    allowed.insert(e.nodes.begin(), e.nodes.end());
  }
  for (const RelationshipPath& p : paths) {
    for (kg::NodeId v : p.nodes) EXPECT_TRUE(allowed.contains(v));
  }
}

TEST_F(Figure1Test, FindPathConnectsUpperDirAndPeshawarThroughKhyber) {
  LcagSegmentEmbedder embedder(&graph_, &index_);
  const DocumentEmbedding q = EmbedDocument(
      embedder, {{"upper dir", "swat valley", "pakistan", "taliban"}});
  const DocumentEmbedding r = EmbedDocument(
      embedder, {{"lahore", "peshawar", "pakistan", "taliban"}});

  PathExplainer explainer(&graph_);
  const RelationshipPath path =
      explainer.FindPath(q, r, upper_dir_, peshawar_);
  ASSERT_EQ(path.nodes.size(), 3u);
  EXPECT_EQ(path.nodes[1], khyber_);  // paper Table II's shape
}

TEST_F(Figure1Test, RenderUsesArrowNotation) {
  LcagSegmentEmbedder embedder(&graph_, &index_);
  const DocumentEmbedding q = EmbedDocument(
      embedder, {{"upper dir", "pakistan"}});
  PathExplainer explainer(&graph_);
  const RelationshipPath path =
      explainer.FindPath(q, q, upper_dir_, pakistan_);
  ASSERT_FALSE(path.nodes.empty());
  const std::string rendered = path.Render(graph_);
  EXPECT_NE(rendered.find("Upper Dir"), std::string::npos);
  EXPECT_NE(rendered.find("Pakistan"), std::string::npos);
  EXPECT_NE(rendered.find("located_in"), std::string::npos);
  EXPECT_TRUE(rendered.find("-->") != std::string::npos ||
              rendered.find("<--") != std::string::npos);
}

TEST_F(Figure1Test, FindPathDisconnectedReturnsEmpty) {
  LcagSegmentEmbedder embedder(&graph_, &index_);
  const DocumentEmbedding q =
      EmbedDocument(embedder, {{"upper dir", "swat valley"}});
  PathExplainer explainer(&graph_);
  // Lahore is not in this embedding at all.
  const RelationshipPath path = explainer.FindPath(q, q, upper_dir_, lahore_);
  EXPECT_TRUE(path.nodes.empty());
  EXPECT_EQ(path.Render(graph_), "(no path)");
}

}  // namespace
}  // namespace embed
}  // namespace newslink
