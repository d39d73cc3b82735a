// Composition parity: the single engine, ShardedEngine, TieredEngine and
// the HTTP coordinator all run the one query pipeline
// (newslink/query_pipeline.h), so they must agree on everything the
// pipeline decides — the stage spans (with the NE "segment" spans), the
// per-stage histograms, deadline degradation, one span per backend, and
// the recency "now" (pinned to the snapshots, not the wall clock).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "corpus/synthetic_news.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "net/coordinator_service.h"
#include "net/http_server.h"
#include "net/search_service.h"
#include "net/shard_client.h"
#include "newslink/newslink_engine.h"
#include "newslink/query_pipeline.h"
#include "newslink/sharded_engine.h"
#include "newslink/tiered_engine.h"

namespace newslink {
namespace {

enum class Composition { kSingle, kSharded, kTiered, kCoordinator };

// Readable, deterministic parameter (and ctest) names.
void PrintTo(Composition composition, std::ostream* os) {
  switch (composition) {
    case Composition::kSingle:
      *os << "Single";
      return;
    case Composition::kSharded:
      *os << "Sharded3";
      return;
    case Composition::kTiered:
      *os << "TieredWithToday";
      return;
    case Composition::kCoordinator:
      *os << "CoordinatorOverTwoHttpShards";
      return;
  }
}

/// One engine composition over the shared corpus: how to search it, where
/// its pipeline's series live, and whatever keeps it running.
struct Stack {
  std::function<baselines::SearchResponse(const baselines::SearchRequest&)>
      search;
  const metrics::Registry* registry = nullptr;
  size_t backends = 0;
  bool explains = true;

  std::vector<std::unique_ptr<baselines::SearchEngine>> engines;
  std::vector<corpus::Corpus> slices;
  std::vector<std::unique_ptr<net::SearchService>> services;
  std::vector<std::unique_ptr<net::HttpServer>> servers;
  std::unique_ptr<net::CoordinatorService> coordinator;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    for (auto& server : servers) server->Shutdown();
  }
};

class QueryPipelineParityTest : public ::testing::TestWithParam<Composition> {
 protected:
  QueryPipelineParityTest() : kg_(MakeKg()), labels_(kg_.graph) {
    corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
    config.num_stories = 10;
    corpus_ = corpus::SyntheticNewsGenerator(&kg_, config).Generate("qp");
    config_.num_threads = 2;
  }

  static kg::SyntheticKg MakeKg() {
    kg::SyntheticKgConfig config;
    config.seed = 2024;
    config.num_countries = 2;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  std::unique_ptr<Stack> Build() {
    auto stack = std::make_unique<Stack>();
    const corpus::Corpus& all = corpus_.corpus;
    switch (GetParam()) {
      case Composition::kSingle: {
        auto engine =
            std::make_unique<NewsLinkEngine>(&kg_.graph, &labels_, config_);
        NL_CHECK(engine->Index(all).ok());
        stack->backends = 1;
        stack->engines.push_back(std::move(engine));
        break;
      }
      case Composition::kSharded: {
        ShardedOptions options;
        options.num_shards = 3;
        auto engine = std::make_unique<ShardedEngine>(&kg_.graph, &labels_,
                                                      config_, options);
        NL_CHECK(engine->Index(all).ok());
        stack->backends = 3;
        stack->engines.push_back(std::move(engine));
        break;
      }
      case Composition::kTiered: {
        auto engine =
            std::make_unique<TieredEngine>(&kg_.graph, &labels_, config_);
        const size_t bulk = (2 * all.size()) / 3;
        corpus::Corpus base;
        for (size_t i = 0; i < bulk; ++i) base.Add(all.doc(i));
        NL_CHECK(engine->Index(base).ok());
        for (size_t i = bulk; i < all.size(); ++i) {
          engine->AddDocument(all.doc(i));
        }
        NL_CHECK(engine->today_tier_docs() > 0);
        stack->backends = 2;
        stack->engines.push_back(std::move(engine));
        break;
      }
      case Composition::kCoordinator: {
        // Round-robin slices behind one /v1 server each, as
        // `newslink_cli serve --shard-index s --shard-count 2` lays out.
        constexpr size_t kShards = 2;
        std::vector<std::unique_ptr<net::ShardClient>> clients;
        for (size_t s = 0; s < kShards; ++s) {
          corpus::Corpus slice;
          for (size_t row = s; row < all.size(); row += kShards) {
            slice.Add(all.doc(row));
          }
          stack->slices.push_back(std::move(slice));
        }
        for (size_t s = 0; s < kShards; ++s) {
          auto engine =
              std::make_unique<NewsLinkEngine>(&kg_.graph, &labels_, config_);
          NL_CHECK(engine->Index(stack->slices[s]).ok());
          stack->services.push_back(std::make_unique<net::SearchService>(
              engine.get(), &stack->slices[s], &kg_.graph));
          net::HttpServerOptions options;
          options.port = 0;
          options.num_workers = 2;
          stack->servers.push_back(std::make_unique<net::HttpServer>(
              options, engine->mutable_metrics()));
          stack->services[s]->RegisterRoutes(stack->servers[s].get());
          NL_CHECK(stack->servers[s]->Start().ok());
          clients.push_back(std::make_unique<net::ShardClient>(
              s, "127.0.0.1", stack->servers[s]->port()));
          stack->engines.push_back(std::move(engine));
        }
        auto prep =
            std::make_unique<NewsLinkEngine>(&kg_.graph, &labels_, config_);
        net::CoordinatorOptions options;
        options.shard_deadline_seconds = 5.0;
        stack->coordinator = std::make_unique<net::CoordinatorService>(
            prep.get(), config_, std::move(clients), options);
        stack->registry = &prep->Metrics();
        net::CoordinatorService* coordinator = stack->coordinator.get();
        stack->search = [coordinator](const baselines::SearchRequest& r) {
          return coordinator->Search(r);
        };
        stack->backends = kShards;
        stack->explains = false;  // no document embeddings on a coordinator
        stack->engines.push_back(std::move(prep));
        return stack;
      }
    }
    const baselines::SearchEngine* engine = stack->engines.front().get();
    stack->registry = &engine->Metrics();
    stack->search = [engine](const baselines::SearchRequest& r) {
      return engine->Search(r);
    };
    return stack;
  }

  /// A β = 0.3 request for a sentence of a document that mentions KG
  /// entities, so NE embeds at least one segment.
  baselines::SearchRequest EntityRequest(size_t k) const {
    const std::string& text = corpus_.corpus.doc(0).text;
    baselines::SearchRequest request;
    request.query = text.substr(0, text.find('.') + 1);
    request.k = k;
    request.beta = 0.3;
    return request;
  }

  /// A half-life comparable to the documents' ages against the wall clock,
  /// so a few milliseconds more of "now" would move every score's bits.
  double AgeScaleHalfLifeSeconds() const {
    int64_t oldest = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < corpus_.corpus.size(); ++i) {
      oldest = std::min(oldest, corpus_.corpus.doc(i).timestamp_ms);
    }
    const int64_t wall_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    return static_cast<double>(wall_ms - oldest) / 1000.0;
  }

  kg::SyntheticKg kg_;
  kg::LabelIndex labels_;
  corpus::SyntheticCorpus corpus_;
  NewsLinkConfig config_;
};

std::vector<std::string> ChildNames(const TraceSpan& span) {
  std::vector<std::string> names;
  for (const TraceSpan& child : span.children) names.push_back(child.name);
  return names;
}

TEST_P(QueryPipelineParityTest, StageSpansAreNlpNeNsExplain) {
  const std::unique_ptr<Stack> stack = Build();
  baselines::SearchRequest request = EntityRequest(5);
  request.explain = stack->explains;
  request.trace = true;
  const baselines::SearchResponse response = stack->search(request);

  ASSERT_FALSE(response.hits.empty());
  const TraceSpan& root = response.trace;
  EXPECT_EQ(root.name, "search");
  std::vector<std::string> expected = {"nlp", "ne", "ns"};
  if (stack->explains) expected.push_back("explain");
  EXPECT_EQ(ChildNames(root), expected);

  // NLP ran once: NE embedded from its segmentation, with the trace
  // attached, so every embedded entity group left a "segment" span.
  const TraceSpan* ne = root.Find("ne");
  ASSERT_NE(ne, nullptr);
  ASSERT_FALSE(ne->children.empty());
  for (const TraceSpan& child : ne->children) {
    EXPECT_EQ(child.name, "segment");
  }

  // One span per backend under "ns"; every backend answered.
  const TraceSpan* ns = root.Find("ns");
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->children.size(), stack->backends);
  EXPECT_EQ(response.shards_total, stack->backends);
  EXPECT_EQ(response.shards_answered, stack->backends);
  EXPECT_FALSE(response.degraded);
  EXPECT_FALSE(response.deadline_exceeded);
}

TEST_P(QueryPipelineParityTest, StageHistogramsCountEveryQuery) {
  const std::unique_ptr<Stack> stack = Build();
  constexpr uint64_t kQueries = 3;
  for (uint64_t i = 0; i < kQueries; ++i) {
    baselines::SearchRequest request = EntityRequest(5);
    request.explain = stack->explains;
    stack->search(request);
  }
  const metrics::Registry& m = *stack->registry;
  EXPECT_EQ(m.CounterValue(baselines::kEngineQueries), kQueries);
  EXPECT_EQ(m.FindHistogram(baselines::kEngineQuerySeconds)->Count(),
            kQueries);
  for (const std::string_view stage :
       {kQueryNlpSeconds, kQueryNeSeconds, kQueryNsSeconds}) {
    ASSERT_NE(m.FindHistogram(stage), nullptr) << stage;
    EXPECT_EQ(m.FindHistogram(stage)->Count(), kQueries) << stage;
  }
  ASSERT_NE(m.FindHistogram(kQueryExplainSeconds), nullptr);
  EXPECT_EQ(m.FindHistogram(kQueryExplainSeconds)->Count(),
            stack->explains ? kQueries : 0);
}

TEST_P(QueryPipelineParityTest, SpentDeadlineSkipsNe) {
  const std::unique_ptr<Stack> stack = Build();
  baselines::SearchRequest request = EntityRequest(5);
  request.trace = true;
  request.deadline_seconds = 1e-9;
  const baselines::SearchResponse response = stack->search(request);

  EXPECT_TRUE(response.deadline_exceeded);
  const TraceSpan* ne = response.trace.Find("ne");
  ASSERT_NE(ne, nullptr);
  ASSERT_EQ(ne->notes.size(), 1u);
  EXPECT_EQ(ne->notes[0].first, "skipped");
  EXPECT_EQ(ne->notes[0].second, "deadline");
  EXPECT_TRUE(ne->children.empty());
}

TEST_P(QueryPipelineParityTest, RecencyDecaysAgainstThePinnedNow) {
  const std::unique_ptr<Stack> stack = Build();
  baselines::SearchRequest request = EntityRequest(8);
  request.recency_half_life_seconds = AgeScaleHalfLifeSeconds();
  ASSERT_FALSE(request.now_ms.has_value());

  const baselines::SearchResponse first = stack->search(request);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const baselines::SearchResponse second = stack->search(request);

  ASSERT_FALSE(first.hits.empty());
  ASSERT_EQ(first.hits.size(), second.hits.size());
  for (size_t i = 0; i < first.hits.size(); ++i) {
    EXPECT_EQ(first.hits[i].doc_index, second.hits[i].doc_index) << i;
    EXPECT_EQ(first.hits[i].score, second.hits[i].score)
        << "rank " << i << ": decay must not read the wall clock";
  }
}

INSTANTIATE_TEST_SUITE_P(Compositions, QueryPipelineParityTest,
                         ::testing::Values(Composition::kSingle,
                                           Composition::kSharded,
                                           Composition::kTiered,
                                           Composition::kCoordinator));

}  // namespace
}  // namespace newslink
