// Bit-exactness suite for the accelerated NE (LCAG) hot path: the
// distance-sketch fast path (embed/lcag_sketch.h) must reproduce the
// sequential MultiLabelDijkstra oracle exactly — found flag, root, label
// distances, node/edge sets, source nodes, and tie order — across random
// KGs, group sizes, and option variants. Also the regression tests of the
// correctness sweep that rode along: duplicate-source dedup,
// budget-truncation parity, sketch codec round trips, and
// TreeSegmentEmbedder outcome propagation.
//
// The LcagSketch* suite names are load-bearing: the TSan CI job selects its
// tests with -R 'ThreadPool|LcagSketch|...', so everything here runs under
// ThreadSanitizer on every push.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "corpus/synthetic_news.h"
#include "embed/document_embedding.h"
#include "embed/lcag_search.h"
#include "embed/lcag_sketch.h"
#include "kg/knowledge_graph.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "newslink/newslink_engine.h"

namespace newslink {
namespace embed {
namespace {

/// Same random-graph recipe as embed_test.cc's Theorem-1 suite: a spanning
/// chain plus random extra edges with small integer weights, and a few
/// duplicated labels so S(l) is sometimes a multi-node set.
kg::KnowledgeGraph BuildRandomGraph(Rng* rng, int num_nodes) {
  kg::KgBuilder b;
  for (int i = 0; i < num_nodes; ++i) {
    const std::string label = (i % 7 == 3) ? "dup" + std::to_string(i % 14)
                                           : "node" + std::to_string(i);
    b.AddNode(label, kg::EntityType::kGpe);
  }
  for (int i = 1; i < num_nodes; ++i) {
    EXPECT_TRUE(b.AddEdge(i, static_cast<kg::NodeId>(rng->Uniform(i)), "p",
                          1.0f + static_cast<float>(rng->Uniform(3)))
                    .ok());
  }
  for (int i = 0; i < num_nodes; ++i) {
    const kg::NodeId u = static_cast<kg::NodeId>(rng->Uniform(num_nodes));
    const kg::NodeId v = static_cast<kg::NodeId>(rng->Uniform(num_nodes));
    if (u != v) {
      EXPECT_TRUE(
          b.AddEdge(u, v, "q", 1.0f + static_cast<float>(rng->Uniform(3)))
              .ok());
    }
  }
  return b.Build();
}

std::vector<std::string> SampleLabels(Rng* rng, const kg::KnowledgeGraph& g,
                                      size_t count) {
  std::vector<std::string> labels;
  for (size_t idx : rng->SampleWithoutReplacement(g.num_nodes(), count)) {
    labels.push_back(
        kg::NormalizeLabel(g.label(static_cast<kg::NodeId>(idx))));
  }
  return labels;
}

/// The bit-exactness contract: every field that defines the ANSWER must
/// match exactly (no epsilon on distances — the accelerated paths perform
/// the same float operations in the same order). `expansions` and
/// `candidates_collected` are deliberately NOT compared: they describe how
/// much work a path did, and the sketch path does none.
void ExpectBitExact(const LcagResult& oracle, const LcagResult& fast,
                    const std::string& context) {
  ASSERT_EQ(oracle.found, fast.found) << context;
  EXPECT_EQ(oracle.budget_exhausted, fast.budget_exhausted) << context;
  EXPECT_EQ(oracle.resolved_labels, fast.resolved_labels) << context;
  if (!oracle.found) return;
  EXPECT_EQ(oracle.graph.root, fast.graph.root) << context;
  EXPECT_EQ(oracle.graph.labels, fast.graph.labels) << context;
  EXPECT_EQ(oracle.graph.label_distances, fast.graph.label_distances)
      << context;
  EXPECT_EQ(oracle.graph.nodes, fast.graph.nodes) << context;
  EXPECT_EQ(oracle.graph.source_nodes, fast.graph.source_nodes) << context;
  ASSERT_EQ(oracle.graph.edges.size(), fast.graph.edges.size()) << context;
  for (size_t i = 0; i < oracle.graph.edges.size(); ++i) {
    EXPECT_TRUE(oracle.graph.edges[i] == fast.graph.edges[i])
        << context << " edge " << i;
  }
}

struct RandomCase {
  uint64_t seed;
  int num_nodes;
  size_t num_labels;
};

// Readable, deterministic parameter (and ctest) names.
void PrintTo(const RandomCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_nodes" << c.num_nodes << "_labels"
      << c.num_labels;
}

std::vector<RandomCase> MakeRandomCases() {
  std::vector<RandomCase> cases;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    cases.push_back({seed, 24 + static_cast<int>(seed % 4) * 12,
                     2 + seed % 4});
  }
  return cases;
}

class LcagSketchRandomTest : public ::testing::TestWithParam<RandomCase> {};

/// The core property: for every option variant, the sketch fast path
/// reproduces the sequential oracle bit-exactly, and the oracle itself
/// agrees with FindExhaustive on the compactness vector (Theorem 1).
TEST_P(LcagSketchRandomTest, SketchMatchesSequentialOracle) {
  const RandomCase param = GetParam();
  Rng rng(param.seed * 1000003 + 17);
  const kg::KnowledgeGraph g = BuildRandomGraph(&rng, param.num_nodes);
  const kg::LabelIndex index(g);
  LcagSearch search(&g, &index);
  ThreadPool pool(4);

  // A radius past the graph's diameter with an uncapped ball count: every
  // group that has a common ancestor is answerable from the sketch, so the
  // fast path (not just its fallback) is what the comparison exercises.
  LcagSketchOptions sketch_options;
  sketch_options.enabled = true;
  sketch_options.radius = 1e6;
  sketch_options.max_ball_nodes = 1u << 20;
  const LcagSketchIndex sketch =
      LcagSketchIndex::Build(g, sketch_options, &pool);

  size_t sketch_hits = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const std::vector<std::string> labels =
        SampleLabels(&rng, g, param.num_labels);
    for (const bool all_paths : {true, false}) {
      for (const bool depth_only : {true, false}) {
        LcagOptions options;
        options.all_shortest_paths = all_paths;
        options.depth_only_root = depth_only;
        const LcagResult oracle = search.Find(labels, options);
        const std::string context =
            "seed=" + std::to_string(param.seed) +
            " trial=" + std::to_string(trial) +
            " all_paths=" + std::to_string(all_paths) +
            " depth_only=" + std::to_string(depth_only);

        const LcagResult sketched =
            search.Find(labels, options, {.sketch = &sketch});
        ExpectBitExact(oracle, sketched, context + " [sketch]");
        if (sketched.sketch_hit) ++sketch_hits;

        if (oracle.found && !depth_only) {
          const LcagResult slow = search.FindExhaustive(labels);
          ASSERT_TRUE(slow.found) << context;
          EXPECT_TRUE(CompactnessEqual(oracle.graph.label_distances,
                                       slow.graph.label_distances))
              << context;
        }
      }
    }
  }
  // With an unbounded radius, every found group must have hit the sketch.
  EXPECT_GT(sketch_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, LcagSketchRandomTest,
                         ::testing::ValuesIn(MakeRandomCases()));

/// Deliberate truncation parity: with a small max_expansions budget the
/// sketch must refuse to serve (it cannot reproduce a truncated answer),
/// and the fallback search truncates on exactly the same settle event as
/// the sequential oracle.
TEST(LcagSketchBudgetTest, TruncationIsBitExactAndSketchRefuses) {
  Rng rng(99);
  const kg::KnowledgeGraph g = BuildRandomGraph(&rng, 48);
  const kg::LabelIndex index(g);
  LcagSearch search(&g, &index);
  LcagSketchOptions sketch_options;
  sketch_options.radius = 1e6;
  sketch_options.max_ball_nodes = 1u << 20;
  const LcagSketchIndex sketch = LcagSketchIndex::Build(g, sketch_options);

  const std::vector<std::string> labels = SampleLabels(&rng, g, 3);
  for (const size_t budget : {1u, 2u, 5u, 17u, 64u}) {
    LcagOptions tight;
    tight.max_expansions = budget;
    const LcagResult oracle = search.Find(labels, tight);
    const LcagResult fast = search.Find(labels, tight, {.sketch = &sketch});
    const std::string context = "budget=" + std::to_string(budget);
    EXPECT_FALSE(fast.sketch_hit) << context;
    EXPECT_EQ(oracle.expansions, fast.expansions) << context;
    ExpectBitExact(oracle, fast, context);
  }
}

/// Satellite regression: a repeated source id (an entity resolved twice
/// into one label's S(l)) must not settle twice — duplicates inflated
/// SettledCount/total_pops and could flip the C1/C2 termination test.
TEST(LcagSketchDedupTest, DuplicateSourceIdsSettleOnce) {
  kg::KgBuilder b;
  const kg::NodeId a = b.AddNode("A", kg::EntityType::kGpe);
  const kg::NodeId c = b.AddNode("C", kg::EntityType::kGpe);
  const kg::NodeId r = b.AddNode("R", kg::EntityType::kGpe);
  ASSERT_TRUE(b.AddEdge(a, r, "p").ok());
  ASSERT_TRUE(b.AddEdge(c, r, "p").ok());
  const kg::KnowledgeGraph g = b.Build();

  MultiLabelDijkstra clean(&g, {{a}, {c}});
  MultiLabelDijkstra dirty(&g, {{a, a, a}, {c, c}});
  MultiLabelDijkstra::PopEvent event;
  std::vector<MultiLabelDijkstra::PopEvent> clean_events;
  std::vector<MultiLabelDijkstra::PopEvent> dirty_events;
  while (clean.PopNext(&event)) clean_events.push_back(event);
  while (dirty.PopNext(&event)) dirty_events.push_back(event);

  ASSERT_EQ(clean_events.size(), dirty_events.size());
  for (size_t i = 0; i < clean_events.size(); ++i) {
    EXPECT_EQ(clean_events[i].label_index, dirty_events[i].label_index);
    EXPECT_EQ(clean_events[i].node, dirty_events[i].node);
    EXPECT_EQ(clean_events[i].distance, dirty_events[i].distance);
  }
  EXPECT_EQ(clean.total_pops(), dirty.total_pops());
  EXPECT_EQ(clean.SettledCount(r), 2);
  EXPECT_EQ(dirty.SettledCount(r), 2);
  // Without dedup, label 0 settled `a` three times and the count read 4
  // (3 from the duplicates + 1 from label 1's own sweep).
  EXPECT_EQ(dirty.SettledCount(a), clean.SettledCount(a));
}

/// The sketch codec: identical indexes serialize to identical bytes (the
/// snapshot byte-identity gate builds on this), the round trip preserves
/// every ball, and corrupt payloads fail with IOError instead of UB.
TEST(LcagSketchCodecTest, RoundTripIsByteIdentical) {
  Rng rng(5);
  const kg::KnowledgeGraph g = BuildRandomGraph(&rng, 40);
  LcagSketchOptions options;
  options.radius = 4.0;
  options.max_ball_nodes = 16;  // force some truncated balls
  const LcagSketchIndex built = LcagSketchIndex::Build(g, options);

  ByteWriter first;
  built.Serialize(&first);
  ByteReader reader(first.bytes());
  LcagSketchIndex loaded;
  ASSERT_TRUE(LcagSketchIndex::Deserialize(&reader, &loaded).ok());
  ASSERT_TRUE(reader.ExpectEnd().ok());

  EXPECT_EQ(loaded.num_nodes(), built.num_nodes());
  EXPECT_EQ(loaded.radius(), built.radius());
  EXPECT_EQ(loaded.max_ball_nodes(), built.max_ball_nodes());
  EXPECT_EQ(loaded.total_entries(), built.total_entries());
  for (kg::NodeId v = 0; v < g.num_nodes(); ++v) {
    const LcagSketchIndex::BallView a = built.Ball(v);
    const LcagSketchIndex::BallView b = loaded.Ball(v);
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << "node " << v;
    EXPECT_EQ(a.truncated, b.truncated) << "node " << v;
    for (size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(a.nodes[i], b.nodes[i]);
      EXPECT_EQ(a.distances[i], b.distances[i]);
    }
  }

  ByteWriter second;
  loaded.Serialize(&second);
  EXPECT_EQ(first.bytes(), second.bytes());
}

TEST(LcagSketchCodecTest, CorruptPayloadsAreRejected) {
  Rng rng(6);
  const kg::KnowledgeGraph g = BuildRandomGraph(&rng, 24);
  LcagSketchOptions options;
  options.radius = 3.0;
  const LcagSketchIndex built = LcagSketchIndex::Build(g, options);
  ByteWriter writer;
  built.Serialize(&writer);
  const std::vector<uint8_t>& good = writer.bytes();

  // Truncation at every prefix length must fail cleanly (never crash).
  for (size_t len = 0; len < good.size(); len += 7) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    ByteReader reader(cut);
    LcagSketchIndex out;
    const Status status = LcagSketchIndex::Deserialize(&reader, &out);
    EXPECT_TRUE(!status.ok() || !reader.ExpectEnd().ok()) << "len " << len;
  }

  // An invalid truncation flag (first per-node byte) is rejected.
  std::vector<uint8_t> bad_flag = good;
  bad_flag[16] = 0xFF;  // u32 + double + u32 header = 16 bytes
  ByteReader flag_reader(bad_flag);
  LcagSketchIndex out;
  EXPECT_FALSE(LcagSketchIndex::Deserialize(&flag_reader, &out).ok());
}

/// Satellite regression: TreeSegmentEmbedder used to drop the TreeEmbed
/// outcome on the floor — timeouts and expansion counts silently read as
/// 0/false in traces and engine stats.
TEST(LcagSketchTreeOutcomeTest, TreeEmbedderPropagatesOutcome) {
  kg::KgBuilder b;
  const kg::NodeId x = b.AddNode("X", kg::EntityType::kGpe);
  const kg::NodeId y = b.AddNode("Y", kg::EntityType::kGpe);
  const kg::NodeId r = b.AddNode("Root", kg::EntityType::kGpe);
  ASSERT_TRUE(b.AddEdge(x, r, "p").ok());
  ASSERT_TRUE(b.AddEdge(y, r, "p").ok());
  const kg::KnowledgeGraph g = b.Build();
  const kg::LabelIndex index(g);

  TreeSegmentEmbedder embedder(&g, &index);
  AncestorGraph out;
  SegmentEmbedOutcome outcome;
  ASSERT_TRUE(embedder.EmbedSegment({"x", "y"}, &out, &outcome));
  EXPECT_TRUE(outcome.found);
  EXPECT_FALSE(outcome.timed_out);
  EXPECT_GT(outcome.expansions, 0u);  // was always 0 before the fix
}

/// LcagSegmentEmbedder with sketch + cache: repeated and concurrent
/// EmbedSegment calls must agree with a plain sequential embedder, and the
/// sketch hit/fallback counters must account for every non-cached segment.
TEST(LcagSketchEmbedderTest, ConcurrentEmbedsMatchSequentialEmbedder) {
  Rng rng(1234);
  const kg::KnowledgeGraph g = BuildRandomGraph(&rng, 48);
  const kg::LabelIndex index(g);

  LcagSegmentEmbedder fast(&g, &index, LcagOptions{}, /*cache_capacity=*/64);
  LcagSketchOptions sketch_options;
  sketch_options.radius = 1e6;
  sketch_options.max_ball_nodes = 1u << 20;
  fast.SetSketch(std::make_shared<LcagSketchIndex>(
      LcagSketchIndex::Build(g, sketch_options)));
  LcagSegmentEmbedder oracle(&g, &index, LcagOptions{}, /*cache_capacity=*/0);

  std::vector<std::vector<std::string>> groups;
  for (int i = 0; i < 8; ++i) groups.push_back(SampleLabels(&rng, g, 2 + i % 3));
  std::vector<AncestorGraph> expected(groups.size());
  std::vector<bool> expected_found(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    expected_found[i] = oracle.EmbedSegment(groups[i], &expected[i]);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = (t + round) % groups.size();
        AncestorGraph got;
        const bool found = fast.EmbedSegment(groups[i], &got);
        // The cached embedder canonicalizes label order, so compare the
        // order-insensitive artifacts (as lcag_cache_test.cc does).
        if (found != expected_found[i] ||
            (found && (got.root != expected[i].root ||
                       got.nodes != expected[i].nodes ||
                       SortedDescending(got.label_distances) !=
                           SortedDescending(expected[i].label_distances)))) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(fast.Metrics().CounterValue(kEmbedderSketchHits), 0u);
}

/// Per-thread search state (search_scratch.h): four threads embedding at
/// once with the cache off — so every call runs the sketch merge or the
/// full search on its own thread's scratch — must each get exactly the
/// single-thread answer. A small radius and ball cap make the groups mix
/// sketch hits with both kinds of fallback.
TEST(LcagSketchEmbedderTest, ConcurrentUncachedEmbedsMatchSingleThread) {
  Rng rng(4321);
  const kg::KnowledgeGraph g = BuildRandomGraph(&rng, 64);
  const kg::LabelIndex index(g);
  LcagSegmentEmbedder embedder(&g, &index, LcagOptions{},
                               /*cache_capacity=*/0);
  LcagSketchOptions sketch_options;
  sketch_options.radius = 3.0;
  sketch_options.max_ball_nodes = 24;
  embedder.SetSketch(std::make_shared<LcagSketchIndex>(
      LcagSketchIndex::Build(g, sketch_options)));

  std::vector<std::vector<std::string>> groups;
  for (int i = 0; i < 16; ++i) {
    groups.push_back(SampleLabels(&rng, g, 2 + i % 4));
  }
  std::vector<AncestorGraph> expected(groups.size());
  std::vector<bool> expected_found(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    expected_found[i] = embedder.EmbedSegment(groups[i], &expected[i]);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t j = 0; j < groups.size(); ++j) {
          const size_t i = (j + static_cast<size_t>(t) * 5) % groups.size();
          AncestorGraph got;
          const bool found = embedder.EmbedSegment(groups[i], &got);
          if (found != expected_found[i] ||
              (found && !(got.root == expected[i].root &&
                          got.labels == expected[i].labels &&
                          got.label_distances == expected[i].label_distances &&
                          got.nodes == expected[i].nodes &&
                          got.source_nodes == expected[i].source_nodes &&
                          got.edges == expected[i].edges))) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  const metrics::Registry& m = embedder.Metrics();
  EXPECT_GT(m.CounterValue(kEmbedderSketchHits), 0u);
  EXPECT_GT(m.CounterValue(kEmbedderSketchFallbacks), 0u);
}

/// The fallback counter splits by reason, and the reasons sum to it.
TEST(LcagSketchEmbedderTest, FallbacksAreCountedByReason) {
  // a - r - b within radius 1 of r; c is reachable from a only in 3 hops
  // (a - r - x - c); `hub` has three leaves, more than a 3-node ball holds.
  kg::KgBuilder b;
  const kg::NodeId a = b.AddNode("A", kg::EntityType::kGpe);
  const kg::NodeId bb = b.AddNode("B", kg::EntityType::kGpe);
  const kg::NodeId r = b.AddNode("R", kg::EntityType::kGpe);
  const kg::NodeId x = b.AddNode("X", kg::EntityType::kGpe);
  const kg::NodeId c = b.AddNode("C", kg::EntityType::kGpe);
  const kg::NodeId hub = b.AddNode("Hub", kg::EntityType::kGpe);
  ASSERT_TRUE(b.AddEdge(a, r, "p").ok());
  ASSERT_TRUE(b.AddEdge(bb, r, "p").ok());
  ASSERT_TRUE(b.AddEdge(r, x, "p").ok());
  ASSERT_TRUE(b.AddEdge(x, c, "p").ok());
  for (const char* leaf : {"L1", "L2", "L3"}) {
    const kg::NodeId l = b.AddNode(leaf, kg::EntityType::kGpe);
    ASSERT_TRUE(b.AddEdge(hub, l, "p").ok());
  }
  ASSERT_TRUE(b.AddEdge(hub, c, "p").ok());
  const kg::KnowledgeGraph g = b.Build();
  const kg::LabelIndex index(g);

  LcagSegmentEmbedder embedder(&g, &index, LcagOptions{},
                               /*cache_capacity=*/0);
  LcagSketchOptions sketch_options;
  sketch_options.radius = 1.0;
  sketch_options.max_ball_nodes = 4;
  embedder.SetSketch(std::make_shared<LcagSketchIndex>(
      LcagSketchIndex::Build(g, sketch_options)));

  AncestorGraph out;
  EXPECT_TRUE(embedder.EmbedSegment({"a", "b"}, &out));    // sketch hit
  EXPECT_TRUE(embedder.EmbedSegment({"a"}, &out));         // ineligible
  EXPECT_TRUE(embedder.EmbedSegment({"a", "c"}, &out));    // no ancestor
  EXPECT_TRUE(embedder.EmbedSegment({"hub", "a"}, &out));  // truncated

  const metrics::Registry& m = embedder.Metrics();
  EXPECT_EQ(m.CounterValue(kEmbedderSketchHits), 1u);
  EXPECT_EQ(m.CounterValue(kEmbedderSketchFallbacksIneligible), 1u);
  EXPECT_EQ(m.CounterValue(kEmbedderSketchFallbacksNoCommonAncestor), 1u);
  EXPECT_EQ(m.CounterValue(kEmbedderSketchFallbacksTruncatedBall), 1u);
  EXPECT_EQ(m.CounterValue(kEmbedderSketchFallbacks), 3u);
}

}  // namespace
}  // namespace embed

namespace {

/// Engine-level writer-vs-readers regression with the full accelerated
/// configuration on: sketches, the LCAG cache, and live AddDocument()s.
/// Readers must never observe a torn epoch, and after ingest settles the
/// accelerated engine's hits must be bit-identical (scores included) to a
/// plain sequential engine fed the same documents in the same order.
TEST(LcagSketchEngineTest, WriterVsReadersStaysBitExact) {
  kg::SyntheticKgConfig kg_config;
  kg_config.seed = 21;
  kg_config.num_countries = 2;
  kg_config.provinces_per_country = 3;
  kg::SyntheticKg world = kg::SyntheticKgGenerator(kg_config).Generate();
  const kg::LabelIndex label_index(world.graph);

  corpus::SyntheticNewsConfig corpus_config;
  corpus_config.num_stories = 24;
  const corpus::SyntheticCorpus dataset =
      corpus::SyntheticNewsGenerator(&world, corpus_config).Generate();
  corpus::Corpus seed_corpus;
  corpus::Corpus fresh_docs;
  for (size_t d = 0; d < dataset.corpus.size(); ++d) {
    (d < 16 ? seed_corpus : fresh_docs).Add(dataset.corpus.doc(d));
  }

  NewsLinkConfig fast_config;
  fast_config.beta = 0.5;
  fast_config.num_threads = 2;
  fast_config.lcag_sketch.enabled = true;
  NewsLinkConfig oracle_config;
  oracle_config.beta = 0.5;
  oracle_config.num_threads = 2;
  oracle_config.lcag_cache_capacity = 0;

  NewsLinkEngine fast(&world.graph, &label_index, fast_config);
  NewsLinkEngine oracle(&world.graph, &label_index, oracle_config);
  ASSERT_TRUE(fast.Index(seed_corpus).ok());
  ASSERT_TRUE(oracle.Index(seed_corpus).ok());

  std::vector<std::string> queries;
  for (size_t d = 0; d < 8; ++d) {
    const std::string& text = dataset.corpus.doc(d).text;
    queries.push_back(text.substr(0, text.find('.') + 1));
  }

  // Readers hammer Search while the writer appends the fresh documents.
  std::atomic<uint64_t> violations{0};
  std::thread writer([&] {
    for (size_t d = 0; d < fresh_docs.size(); ++d) {
      fast.AddDocument(fresh_docs.doc(d));
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        baselines::SearchRequest request;
        request.query = queries[(t + round) % queries.size()];
        request.k = 5;
        const baselines::SearchResponse response = fast.Search(request);
        for (const baselines::SearchHit& hit : response.hits) {
          if (hit.doc_index >= response.snapshot_docs) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);

  // Catch the oracle up, then demand bit-identical hits.
  for (size_t d = 0; d < fresh_docs.size(); ++d) {
    oracle.AddDocument(fresh_docs.doc(d));
  }
  ASSERT_EQ(fast.num_indexed_docs(), oracle.num_indexed_docs());
  for (const std::string& q : queries) {
    baselines::SearchRequest request;
    request.query = q;
    request.k = 10;
    const auto expected = oracle.Search(request).hits;
    const auto actual = fast.Search(request).hits;
    ASSERT_EQ(expected.size(), actual.size()) << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].doc_index, actual[i].doc_index) << q;
      EXPECT_EQ(expected[i].score, actual[i].score) << q;
    }
  }
}

}  // namespace
}  // namespace newslink
