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
#include "newslink/shard_api.h"
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
        auto engine = std::make_unique<ShardedEngine>(&kg_.graph, &labels_,
                                                      config_, 3);
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
              s, kShards, "127.0.0.1", stack->servers[s]->port(), 5.0));
          stack->engines.push_back(std::move(engine));
        }
        auto prep =
            std::make_unique<NewsLinkEngine>(&kg_.graph, &labels_, config_);
        stack->coordinator = std::make_unique<net::CoordinatorService>(
            prep.get(), config_, std::move(clients));
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

// --- Deepening against backends that answer from a script -----------------

/// A backend that plans `docs` documents and answers SEARCH with `answer`
/// (given the query and how many searches came before), recording every
/// query it was sent. Stands in for a remote peer the coordinator cannot
/// trust.
class ScriptedBackend final : public ShardBackend {
 public:
  using Answer =
      std::function<Result<ShardSearchResult>(const ShardQuery&, size_t)>;

  ScriptedBackend(uint64_t docs, uint32_t row_offset, Answer answer)
      : docs_(docs), row_offset_(row_offset), answer_(std::move(answer)) {}

  ShardEpochPin Pin() const override { return {}; }
  Result<ShardPlan> Plan(const ShardQuery& /*query*/,
                         const ShardEpochPin& /*pin*/,
                         double /*budget_seconds*/) const override {
    ShardPlan plan;
    plan.epoch = 1;
    plan.stats.num_docs = docs_;
    plan.stats.has_timestamps = true;
    return plan;
  }
  Result<ShardSearchResult> Search(const ShardQuery& query,
                                   const ShardStats& /*global*/,
                                   const ShardEpochPin& /*pin*/,
                                   uint64_t /*plan_epoch*/,
                                   double /*budget_seconds*/) const override {
    sent_.push_back(query);
    return answer_(query, sent_.size() - 1);
  }
  const embed::DocumentEmbedding* DocEmbedding(
      uint32_t /*local_row*/) const override {
    return nullptr;
  }
  uint32_t GlobalRow(uint32_t local_row) const override {
    return row_offset_ + local_row;
  }

  const std::vector<ShardQuery>& sent() const { return sent_; }

 private:
  uint64_t docs_;
  uint32_t row_offset_;
  Answer answer_;
  mutable std::vector<ShardQuery> sent_;
};

/// `candidates` text-side candidates that all score 1, from a shard of
/// `docs` documents, with a floor of `floor`.
ShardSearchResult TextAnswer(uint64_t docs, uint64_t candidates,
                             double floor) {
  ShardSearchResult result;
  result.epoch = 1;
  result.snapshot_docs = docs;
  result.side[kBow].max = 1.0;
  result.side[kBow].floor = floor;
  for (uint32_t d = 0; d < candidates; ++d) {
    result.candidates.push_back(ShardCandidate{d, 1.0, 0.0, 1});
  }
  result.side[kBow].scored = candidates;
  return result;
}

/// A full list at the query's depth: k' candidates, all on the floor.
Result<ShardSearchResult> FullList(uint64_t docs, const ShardQuery& query) {
  return TextAnswer(docs, query.kprime, 1.0);
}

std::string NoteOf(const TraceSpan* span, const std::string& key) {
  if (span == nullptr) return "";
  for (const auto& [k, value] : span->notes) {
    if (k == key) return value;
  }
  return "";
}

class ScriptedDeepeningTest : public ::testing::Test {
 protected:
  ScriptedDeepeningTest()
      : kg_(MakeKg()),
        labels_(kg_.graph),
        prep_(&kg_.graph, &labels_, config_),
        pipeline_(&registry_, config_) {}

  static kg::SyntheticKg MakeKg() {
    kg::SyntheticKgConfig config;
    config.seed = 2024;
    config.num_countries = 2;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  /// A text-only (β = 0) top-10 request with its trace.
  static baselines::SearchRequest TextRequest() {
    baselines::SearchRequest request;
    request.query = "Storms flood the harbor.";
    request.k = 10;
    request.beta = 0.0;
    request.trace = true;
    return request;
  }

  baselines::SearchResponse Run(const baselines::SearchRequest& request,
                                const std::vector<const ShardBackend*>& b) {
    PipelineView view;
    view.prep = &prep_;
    view.backends = b;
    return pipeline_.Search(request, view);
  }

  static std::vector<uint64_t> Depths(const ScriptedBackend& backend) {
    std::vector<uint64_t> depths;
    for (const ShardQuery& q : backend.sent()) depths.push_back(q.kprime);
    return depths;
  }

  kg::SyntheticKg kg_;
  kg::LabelIndex labels_;
  NewsLinkConfig config_;
  NewsLinkEngine prep_;
  metrics::Registry registry_;
  QueryPipeline pipeline_;
};

TEST_F(ScriptedDeepeningTest, DeepeningStopsOnceKPrimeCoversTheShard) {
  // Every answer claims a full list on the floor, which ties the k-th
  // score: only the shard's own size can end the deepening.
  const ScriptedBackend peer(1000, 0, [](const ShardQuery& q, size_t) {
    return FullList(1000, q);
  });
  const baselines::SearchResponse response = Run(TextRequest(), {&peer});
  EXPECT_EQ(Depths(peer), (std::vector<uint64_t>{64, 128, 256, 512, 1024}));
  EXPECT_EQ(response.hits.size(), 10u);
  EXPECT_EQ(response.shards_answered, 1u);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(NoteOf(response.trace.Find("ns"), "deepened"), "1");
}

TEST_F(ScriptedDeepeningTest, FloorWithoutAFullListDropsTheShard) {
  const ScriptedBackend honest(3, 0, [](const ShardQuery&, size_t) {
    return Result<ShardSearchResult>(TextAnswer(3, 3, 0.0));
  });
  // A positive floor over 3 candidates at k' = 64 breaks the protocol.
  const ScriptedBackend broken(1000, 100, [](const ShardQuery&, size_t) {
    return Result<ShardSearchResult>(TextAnswer(1000, 3, 1.0));
  });
  const baselines::SearchResponse response =
      Run(TextRequest(), {&honest, &broken});
  EXPECT_EQ(broken.sent().size(), 1u);
  EXPECT_EQ(response.shards_answered, 1u);
  EXPECT_TRUE(response.degraded);
  ASSERT_EQ(response.hits.size(), 3u);
  for (const baselines::SearchHit& hit : response.hits) {
    EXPECT_LT(hit.doc_index, 3u);
  }
  const TraceSpan* shard1 = response.trace.Find("shard1");
  EXPECT_NE(NoteOf(shard1, "error"), "");
  EXPECT_EQ(NoteOf(shard1, "candidates"), "");
}

TEST_F(ScriptedDeepeningTest, FailedDeeperRoundKeepsTheLastAnswer) {
  const ScriptedBackend peer(1000, 0, [](const ShardQuery& q, size_t call) {
    if (call == 0) return FullList(1000, q);
    return Result<ShardSearchResult>(Status::Timeout("deadline"));
  });
  const baselines::SearchResponse response = Run(TextRequest(), {&peer});
  EXPECT_EQ(Depths(peer), (std::vector<uint64_t>{64, 128}));
  // The first round's candidates are right, if maybe not the top k: they
  // stay, and the response says the merge is best-effort.
  EXPECT_EQ(response.hits.size(), 10u);
  EXPECT_EQ(response.shards_answered, 1u);
  EXPECT_TRUE(response.degraded);
  EXPECT_TRUE(response.deadline_exceeded);
  const TraceSpan* shard0 = response.trace.Find("shard0");
  EXPECT_EQ(NoteOf(shard0, "candidates"), "64");
  EXPECT_NE(NoteOf(shard0, "error"), "");
}

TEST_F(ScriptedDeepeningTest, EpochMovedRetryCountsOnlyTheRetrysWork) {
  // The epoch moves during the first deepening round: the query re-plans
  // and the stale rounds' documents scored do not reach the notes.
  const ScriptedBackend peer(1000, 0, [](const ShardQuery& q, size_t call) {
    if (call == 0) return FullList(1000, q);
    if (call == 1) {
      return Result<ShardSearchResult>(Status::FailedPrecondition("moved"));
    }
    return Result<ShardSearchResult>(TextAnswer(1000, 10, 0.0));
  });
  const baselines::SearchResponse response = Run(TextRequest(), {&peer});
  EXPECT_EQ(Depths(peer), (std::vector<uint64_t>{64, 128, 64}));
  const TraceSpan* ns = response.trace.Find("ns");
  EXPECT_EQ(NoteOf(ns, "bow_scored"), "10");
  EXPECT_EQ(NoteOf(ns, "deepened"), "0");
  EXPECT_EQ(response.hits.size(), 10u);
  EXPECT_FALSE(response.degraded);
}

TEST_F(ScriptedDeepeningTest, ZeroKthScoreSearchesTheShardExhaustively) {
  // Every candidate's decay underflows to 0, so the k-th score is 0 and
  // every unseen document ties it: one exhaustive round settles the
  // shard, and its answer is final whatever floors it reports.
  const ScriptedBackend peer(1 << 20, 0, [](const ShardQuery& q, size_t) {
    return FullList(1 << 20, q);
  });
  baselines::SearchRequest request = TextRequest();
  request.recency_half_life_seconds = 1.0;
  request.now_ms = int64_t{1} << 50;
  const baselines::SearchResponse response = Run(request, {&peer});
  ASSERT_EQ(peer.sent().size(), 2u);
  EXPECT_FALSE(peer.sent()[0].exhaustive);
  EXPECT_TRUE(peer.sent()[1].exhaustive);
  ASSERT_EQ(response.hits.size(), 10u);
  EXPECT_EQ(response.hits[9].score, 0.0);
  EXPECT_FALSE(response.degraded);
}

}  // namespace
}  // namespace newslink
