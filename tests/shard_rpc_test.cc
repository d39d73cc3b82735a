// The versioned shard RPC surface, end to end: codec round-trips that
// keep scores bit-exact across the JSON wire, strict unknown-field and
// api_version rejection (409, not silent drift), the /v1/shard handlers'
// epoch-echo check, and a real scatter-gather coordinator over loopback
// sockets — parity with a single engine over the union while every shard
// answers, graceful degradation (HTTP 200, degraded: true) when one dies.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "corpus/synthetic_news.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "net/api_json.h"
#include "net/coordinator_service.h"
#include "net/http_server.h"
#include "net/search_service.h"
#include "net/shard_client.h"
#include "net/status_http.h"
#include "newslink/newslink_engine.h"

namespace newslink {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Codec round-trips and version handshake (no engine, no sockets).
// ---------------------------------------------------------------------------

ShardQuery SampleQuery() {
  ShardQuery query;
  query.text_stems = {{"flood", 2}, {"rescu", 1}};
  query.node_terms = {{7, 3}, {19, 1}};
  query.use_bow = true;
  query.use_bon = true;
  query.kprime = 37;
  query.exhaustive = true;
  return query;
}

/// Full wire trip: encode → Dump → Parse → decode, like an actual RPC.
template <typename T, typename Encode, typename Decode>
T WireTrip(const T& message, Encode encode, Decode decode) {
  Result<json::Value> parsed = json::Parse(encode(message).Dump());
  NL_CHECK(parsed.ok()) << parsed.status().ToString();
  Result<T> decoded = decode(*parsed);
  NL_CHECK(decoded.ok()) << decoded.status().ToString();
  return std::move(*decoded);
}

TEST(ShardCodecs, PlanMessagesRoundTripExactly) {
  ShardPlanRpcRequest request;
  request.shard = 3;
  request.deadline_seconds = 0.125;
  request.query = SampleQuery();
  const ShardPlanRpcRequest back = WireTrip(
      request, ShardPlanRequestToJson, ShardPlanRequestFromJson);
  EXPECT_EQ(back.shard, request.shard);
  EXPECT_EQ(back.deadline_seconds, request.deadline_seconds);
  EXPECT_EQ(back.query.text_stems, request.query.text_stems);
  EXPECT_EQ(back.query.node_terms, request.query.node_terms);
  EXPECT_EQ(back.query.kprime, request.query.kprime);
  EXPECT_EQ(back.query.exhaustive, request.query.exhaustive);

  ShardPlanRpcResponse response;
  response.shard = 3;
  response.plan.epoch = 41;
  response.plan.num_docs = 1000;
  response.plan.text_total_length = 123456;
  response.plan.node_total_length = 7890;
  response.plan.text_min_doc_length = 4;
  response.plan.node_min_doc_length = 1;
  response.plan.text_df = {500, 17};
  response.plan.node_df = {3, 0};
  response.plan.text_max_tf = {9, 2};
  response.plan.node_max_tf = {5, 0};
  const ShardPlanRpcResponse rback = WireTrip(
      response, ShardPlanResponseToJson, ShardPlanResponseFromJson);
  EXPECT_EQ(rback.plan.epoch, response.plan.epoch);
  EXPECT_EQ(rback.plan.num_docs, response.plan.num_docs);
  EXPECT_EQ(rback.plan.text_df, response.plan.text_df);
  EXPECT_EQ(rback.plan.node_max_tf, response.plan.node_max_tf);
  EXPECT_EQ(rback.plan.text_min_doc_length, response.plan.text_min_doc_length);
}

TEST(ShardCodecs, SearchMessagesKeepScoresBitExact) {
  ShardSearchRpcRequest request;
  request.shard = 1;
  request.expected_epoch = 17;
  request.query = SampleQuery();
  request.global.num_docs = 2000;
  request.global.text_total_length = 99991;
  request.global.text_df = {1000, 34};
  const ShardSearchRpcRequest back = WireTrip(
      request, ShardSearchRequestToJson, ShardSearchRequestFromJson);
  EXPECT_EQ(back.expected_epoch, request.expected_epoch);
  EXPECT_EQ(back.global.num_docs, request.global.num_docs);
  EXPECT_EQ(back.global.text_df, request.global.text_df);

  // Awkward doubles that lose bits under %.17g-naive printing schemes;
  // shortest-round-trip rendering must reproduce them EXACTLY, or the
  // distributed merge stops being bit-identical to the in-process one.
  ShardSearchRpcResponse response;
  response.shard = 1;
  response.result.epoch = 17;
  response.result.snapshot_docs = 1000;
  response.result.bow_max = 0.1 + 0.2;
  response.result.bon_max = 1.0 / 3.0;
  response.result.bow_floor = 0.1 + 0.7;
  response.result.bon_floor = 2.0 / 3.0;
  response.result.bow_scored = 321;
  response.result.bon_scored = 12;
  response.result.candidates = {
      {42, 3.0000000000000004, 0.0},
      {77, 2.718281828459045, 0.30000000000000004},
  };
  const ShardSearchRpcResponse rback = WireTrip(
      response, ShardSearchResponseToJson, ShardSearchResponseFromJson);
  EXPECT_EQ(rback.result.bow_max, response.result.bow_max);
  EXPECT_EQ(rback.result.bon_max, response.result.bon_max);
  EXPECT_EQ(rback.result.bow_floor, response.result.bow_floor);
  EXPECT_EQ(rback.result.bon_floor, response.result.bon_floor);
  ASSERT_EQ(rback.result.candidates.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rback.result.candidates[i].doc,
              response.result.candidates[i].doc);
    EXPECT_EQ(rback.result.candidates[i].bow,
              response.result.candidates[i].bow);
    EXPECT_EQ(rback.result.candidates[i].bon,
              response.result.candidates[i].bon);
  }
}

TEST(ShardCodecs, TimeFieldsRoundTripExactly) {
  // The time-aware fields: the window on the query (v2); has_timestamps
  // and the pinned now on plans (v3); per-candidate timestamps on results.
  ShardQuery query = SampleQuery();
  query.has_time_range = true;
  query.after_ms = 1699999999999;
  query.before_ms = 1700000360000;

  ShardPlanRpcRequest request;
  request.shard = 2;
  request.query = query;
  const ShardPlanRpcRequest back = WireTrip(
      request, ShardPlanRequestToJson, ShardPlanRequestFromJson);
  EXPECT_TRUE(back.query.has_time_range);
  EXPECT_EQ(back.query.after_ms, query.after_ms);
  EXPECT_EQ(back.query.before_ms, query.before_ms);

  ShardPlanRpcResponse plan_response;
  plan_response.plan.has_timestamps = true;
  plan_response.plan.now_ms = 1700000400123;
  const ShardPlanRpcResponse pback = WireTrip(
      plan_response, ShardPlanResponseToJson, ShardPlanResponseFromJson);
  EXPECT_TRUE(pback.plan.has_timestamps);
  EXPECT_EQ(pback.plan.now_ms, plan_response.plan.now_ms);

  // The merge takes the newest pinned now; shards never see it.
  ShardGlobalStats merged;
  MergeShardPlan(pback.plan, &merged);
  ShardPlan older;
  older.now_ms = 1700000000000;
  MergeShardPlan(older, &merged);
  EXPECT_EQ(merged.now_ms, plan_response.plan.now_ms);

  ShardSearchRpcRequest search_request;
  search_request.query = query;
  search_request.global.has_timestamps = true;
  const ShardSearchRpcRequest sback = WireTrip(
      search_request, ShardSearchRequestToJson, ShardSearchRequestFromJson);
  EXPECT_TRUE(sback.global.has_timestamps);
  EXPECT_EQ(sback.query.before_ms, query.before_ms);

  ShardSearchRpcResponse response;
  response.result.candidates = {
      {42, 1.5, 0.25, 1700000000001},
      {77, 2.5, 0.125, 0},  // unknown timestamp stays 0
  };
  const ShardSearchRpcResponse rback = WireTrip(
      response, ShardSearchResponseToJson, ShardSearchResponseFromJson);
  ASSERT_EQ(rback.result.candidates.size(), 2u);
  EXPECT_EQ(rback.result.candidates[0].ts, 1700000000001);
  EXPECT_EQ(rback.result.candidates[1].ts, 0);
}

TEST(ShardCodecs, UnknownFieldsAreRejectedEverywhere) {
  ShardPlanRpcRequest plan_request;
  plan_request.query = SampleQuery();
  json::Value wire = ShardPlanRequestToJson(plan_request);
  wire.Set("shard_idx", json::Value::Uint(0));  // typo'd field
  EXPECT_TRUE(ShardPlanRequestFromJson(wire).status().IsInvalidArgument());

  json::Value response_wire = ShardPlanResponseToJson({});
  response_wire.Set("docs", json::Value::Uint(5));
  EXPECT_TRUE(
      ShardPlanResponseFromJson(response_wire).status().IsInvalidArgument());

  ShardSearchRpcRequest search_request;
  search_request.query = SampleQuery();
  json::Value search_wire = ShardSearchRequestToJson(search_request);
  search_wire.Set("epoch", json::Value::Uint(1));  // belongs to responses
  EXPECT_TRUE(
      ShardSearchRequestFromJson(search_wire).status().IsInvalidArgument());

  json::Value result_wire = ShardSearchResponseToJson({});
  result_wire.Set("hits", json::Value::Array());
  EXPECT_TRUE(
      ShardSearchResponseFromJson(result_wire).status().IsInvalidArgument());
}

TEST(ShardCodecs, ApiVersionSkewFailsLoudlyInBothDirections) {
  // Old client → new server: a request with no api_version at all.
  json::Value unversioned = ShardPlanRequestToJson({});
  json::Value stripped = json::Value::Object();
  for (const auto& [key, field] : unversioned.members()) {
    if (key != "api_version") stripped.Set(key, json::Value(field));
  }
  const Status missing = ShardPlanRequestFromJson(stripped).status();
  EXPECT_TRUE(missing.IsFailedPrecondition()) << missing.ToString();
  EXPECT_EQ(StatusToHttp(missing), 409);

  // New client → old server (or vice versa): wrong version number. The
  // check applies to requests AND responses, so either peer notices.
  json::Value skewed = ShardPlanRequestToJson({});
  skewed.Set("api_version", json::Value::Uint(kShardApiVersion + 1));
  const Status mismatch = ShardPlanRequestFromJson(skewed).status();
  EXPECT_TRUE(mismatch.IsFailedPrecondition()) << mismatch.ToString();
  EXPECT_EQ(StatusToHttp(mismatch), 409);

  json::Value skewed_response = ShardSearchResponseToJson({});
  skewed_response.Set("api_version", json::Value::Uint(kShardApiVersion + 1));
  EXPECT_TRUE(ShardSearchResponseFromJson(skewed_response)
                  .status()
                  .IsFailedPrecondition());

  // A v3 peer (no per-side floors on search results) is refused with 409
  // rather than merged as if its candidate lists were complete.
  EXPECT_EQ(kShardApiVersion, 4u);
  json::Value v3_request = ShardSearchRequestToJson({});
  v3_request.Set("api_version", json::Value::Uint(3));
  const Status v3 = ShardSearchRequestFromJson(v3_request).status();
  EXPECT_TRUE(v3.IsFailedPrecondition()) << v3.ToString();
  EXPECT_EQ(StatusToHttp(v3), 409);
  json::Value v3_result = ShardSearchResponseToJson({});
  v3_result.Set("api_version", json::Value::Uint(3));
  EXPECT_TRUE(
      ShardSearchResponseFromJson(v3_result).status().IsFailedPrecondition());

  // A v2 peer (recency knobs on the query, no now_ms on plans) is refused
  // with 409 rather than merged against a wall-clock "now".
  json::Value v2_request = ShardPlanRequestToJson({});
  v2_request.Set("api_version", json::Value::Uint(2));
  EXPECT_TRUE(
      ShardPlanRequestFromJson(v2_request).status().IsFailedPrecondition());
  json::Value v2_plan = ShardPlanResponseToJson({});
  v2_plan.Set("api_version", json::Value::Uint(2));
  EXPECT_TRUE(
      ShardPlanResponseFromJson(v2_plan).status().IsFailedPrecondition());

  // The v2 query fields are gone since v3: unknown → 400.
  for (const char* dropped : {"recency_half_life_s", "now_ms"}) {
    ShardPlanRpcRequest request;
    request.query = SampleQuery();
    json::Value wire = ShardPlanRequestToJson(request);
    json::Value query = *wire.Find("query");
    query.Set(dropped, json::Value::Uint(1));
    wire.Set("query", std::move(query));
    EXPECT_TRUE(ShardPlanRequestFromJson(wire).status().IsInvalidArgument())
        << dropped;
  }
}

TEST(ShardCodecs, SearchResponseShardBlockIsAdditive) {
  baselines::SearchResponse response;
  response.epoch = 1;
  // A single-index engine (shards_total == 0) keeps the legacy shape.
  json::Value solo = SearchResponseToJson(response, nullptr, nullptr);
  EXPECT_EQ(solo.Find("shards_total"), nullptr);
  EXPECT_EQ(solo.Find("shards_answered"), nullptr);
  EXPECT_EQ(solo.Find("degraded"), nullptr);

  response.shards_total = 3;
  response.shards_answered = 2;
  response.degraded = true;
  json::Value sharded = SearchResponseToJson(response, nullptr, nullptr);
  ASSERT_NE(sharded.Find("shards_total"), nullptr);
  EXPECT_EQ(sharded.Find("shards_total")->AsDouble(), 3);
  EXPECT_EQ(sharded.Find("shards_answered")->AsDouble(), 2);
  EXPECT_TRUE(sharded.Find("degraded")->AsBool());
}

// ---------------------------------------------------------------------------
// Fixture: a corpus round-robin split over two shard servers, plus a
// single engine over the union as ground truth.
// ---------------------------------------------------------------------------

class ShardServingTest : public ::testing::Test {
 protected:
  static constexpr size_t kNumShards = 2;

  ShardServingTest() : kg_(MakeKg()), labels_(kg_.graph) {
    corpus::SyntheticNewsConfig corpus_config = corpus::CnnLikeConfig();
    corpus_config.num_stories = 10;
    news_ = corpus::SyntheticNewsGenerator(&kg_, corpus_config).Generate("sh");
    union_corpus_ = news_.corpus;

    config_.beta = 0.2;
    config_.num_threads = 2;
    single_ = std::make_unique<NewsLinkEngine>(&kg_.graph, &labels_, config_);
    NL_CHECK(single_->Index(union_corpus_).ok());

    // Round-robin slices: shard s holds global rows s, s+N, s+2N, ... —
    // exactly the layout `newslink_cli serve --shard-index s --shard-count
    // N` builds and the coordinator's l*N + s merge assumes.
    for (size_t s = 0; s < kNumShards; ++s) {
      corpus::Corpus slice;
      for (size_t row = s; row < union_corpus_.size(); row += kNumShards) {
        slice.Add(union_corpus_.doc(row));
      }
      slices_.push_back(std::move(slice));
      shard_engines_.push_back(
          std::make_unique<NewsLinkEngine>(&kg_.graph, &labels_, config_));
      NL_CHECK(shard_engines_[s]->Index(slices_[s]).ok());
    }
  }

  static kg::SyntheticKg MakeKg() {
    kg::SyntheticKgConfig config;
    config.seed = 1311;
    config.num_countries = 2;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  /// Start one /v1 server per shard and build a coordinator over them.
  void StartCluster() {
    std::vector<std::unique_ptr<ShardClient>> clients;
    for (size_t s = 0; s < kNumShards; ++s) {
      shard_services_.push_back(std::make_unique<SearchService>(
          shard_engines_[s].get(), &slices_[s], &kg_.graph));
      HttpServerOptions options;
      options.port = 0;
      options.num_workers = 4;
      shard_servers_.push_back(std::make_unique<HttpServer>(
          options, shard_engines_[s]->mutable_metrics()));
      shard_services_[s]->RegisterRoutes(shard_servers_[s].get());
      ASSERT_TRUE(shard_servers_[s]->Start().ok());
      clients.push_back(std::make_unique<ShardClient>(
          s, "127.0.0.1", shard_servers_[s]->port()));
    }
    prep_ = std::make_unique<NewsLinkEngine>(&kg_.graph, &labels_, config_);
    CoordinatorOptions options;
    options.shard_deadline_seconds = 5.0;
    coordinator_ = std::make_unique<CoordinatorService>(
        prep_.get(), config_, std::move(clients), options);
  }

  void TearDown() override {
    for (auto& server : shard_servers_) {
      if (server != nullptr) server->Shutdown();
    }
  }

  std::string QueryFor(size_t doc) const {
    const std::string& text = union_corpus_.doc(doc).text;
    return text.substr(0, text.find('.') + 1);
  }

  static HttpRequest PostJson(const std::string& target,
                              const json::Value& body) {
    HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = body.Dump();
    return request;
  }

  kg::SyntheticKg kg_;
  kg::LabelIndex labels_;
  corpus::SyntheticCorpus news_;
  corpus::Corpus union_corpus_;
  NewsLinkConfig config_;
  std::unique_ptr<NewsLinkEngine> single_;
  std::vector<corpus::Corpus> slices_;
  std::vector<std::unique_ptr<NewsLinkEngine>> shard_engines_;
  std::vector<std::unique_ptr<SearchService>> shard_services_;
  std::vector<std::unique_ptr<HttpServer>> shard_servers_;
  std::unique_ptr<NewsLinkEngine> prep_;
  std::unique_ptr<CoordinatorService> coordinator_;
};

TEST_F(ShardServingTest, ShardHandlersSpeakTheTwoPhaseProtocol) {
  NewsLinkEngine* engine = shard_engines_[0].get();
  SearchService service(engine, &slices_[0], &kg_.graph);

  baselines::SearchRequest request;
  request.query = QueryFor(0);
  request.k = 5;
  request.beta = 0.3;
  const ShardQuery query =
      engine->PrepareShardQuery(request, engine->EmbedText(request.query));

  ShardPlanRpcRequest plan_request;
  plan_request.shard = 0;
  plan_request.query = query;
  const HttpResponse plan_http = service.HandleShardPlan(
      PostJson("/v1/shard/plan", ShardPlanRequestToJson(plan_request)));
  ASSERT_EQ(plan_http.status, 200) << plan_http.body;
  Result<json::Value> plan_body = json::Parse(plan_http.body);
  ASSERT_TRUE(plan_body.ok());
  Result<ShardPlanRpcResponse> plan = ShardPlanResponseFromJson(*plan_body);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // The served plan is the direct PlanShard answer, field for field.
  const ShardPlan direct = engine->PlanShard(query, engine->PinEpoch());
  EXPECT_EQ(plan->plan.epoch, direct.epoch);
  EXPECT_EQ(plan->plan.num_docs, direct.num_docs);
  EXPECT_EQ(plan->plan.text_total_length, direct.text_total_length);
  EXPECT_EQ(plan->plan.text_df, direct.text_df);
  EXPECT_EQ(plan->plan.node_df, direct.node_df);
  EXPECT_EQ(plan->plan.text_max_tf, direct.text_max_tf);

  ShardGlobalStats global;
  MergeShardPlan(plan->plan, &global);
  ShardSearchRpcRequest search_request;
  search_request.shard = 0;
  search_request.expected_epoch = plan->plan.epoch;
  search_request.query = query;
  search_request.global = global;
  const HttpResponse search_http = service.HandleShardSearch(
      PostJson("/v1/shard/search", ShardSearchRequestToJson(search_request)));
  ASSERT_EQ(search_http.status, 200) << search_http.body;
  Result<json::Value> search_body = json::Parse(search_http.body);
  ASSERT_TRUE(search_body.ok());
  Result<ShardSearchRpcResponse> result =
      ShardSearchResponseFromJson(*search_body);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Candidates and raw scores survive the wire bit-exactly.
  const ShardSearchResult direct_result =
      engine->SearchShard(query, global, engine->PinEpoch());
  ASSERT_EQ(result->result.candidates.size(),
            direct_result.candidates.size());
  EXPECT_EQ(result->result.bow_max, direct_result.bow_max);
  EXPECT_EQ(result->result.bon_max, direct_result.bon_max);
  EXPECT_EQ(result->result.bow_floor, direct_result.bow_floor);
  EXPECT_EQ(result->result.bon_floor, direct_result.bon_floor);
  for (size_t i = 0; i < direct_result.candidates.size(); ++i) {
    EXPECT_EQ(result->result.candidates[i].doc,
              direct_result.candidates[i].doc);
    EXPECT_EQ(result->result.candidates[i].bow,
              direct_result.candidates[i].bow);
    EXPECT_EQ(result->result.candidates[i].bon,
              direct_result.candidates[i].bon);
  }

  // Epoch moved between PLAN and SEARCH → 409, so a coordinator re-plans
  // instead of merging statistics across epochs.
  corpus::Document doc;
  doc.id = "live-1";
  doc.title = "late breaking";
  doc.text = "Late breaking update arrives after the plan.";
  engine->AddDocument(doc);
  const HttpResponse stale = service.HandleShardSearch(
      PostJson("/v1/shard/search", ShardSearchRequestToJson(search_request)));
  EXPECT_EQ(stale.status, 409) << stale.body;
}

TEST_F(ShardServingTest, CoordinatorMatchesSingleEngineOverTheUnion) {
  StartCluster();
  for (const size_t doc : {0UL, 3UL, 7UL}) {
    for (const double beta : {0.0, 0.3, 1.0}) {
      baselines::SearchRequest request;
      request.query = QueryFor(doc);
      request.k = 5;
      request.beta = beta;
      const baselines::SearchResponse expected = single_->Search(request);
      const baselines::SearchResponse actual = coordinator_->Search(request);
      const std::string what = StrCat("doc ", doc, " beta ", beta);
      EXPECT_EQ(actual.shards_total, kNumShards) << what;
      EXPECT_EQ(actual.shards_answered, kNumShards) << what;
      EXPECT_FALSE(actual.degraded) << what;
      EXPECT_EQ(actual.snapshot_docs, union_corpus_.size()) << what;
      ASSERT_EQ(actual.hits.size(), expected.hits.size()) << what;
      for (size_t i = 0; i < expected.hits.size(); ++i) {
        EXPECT_EQ(actual.hits[i].doc_index, expected.hits[i].doc_index)
            << what << " hit " << i;
        EXPECT_EQ(actual.hits[i].score, expected.hits[i].score)
            << what << " hit " << i;
      }
    }
  }
}

TEST_F(ShardServingTest, CoordinatorDegradesWhenAShardDies) {
  StartCluster();
  baselines::SearchRequest request;
  request.query = QueryFor(2);
  request.k = 5;

  // Healthy cluster first, so the stats below show a transition.
  const baselines::SearchResponse healthy = coordinator_->Search(request);
  EXPECT_FALSE(healthy.degraded);

  shard_servers_[1]->Shutdown();
  shard_servers_[1].reset();

  const HttpResponse http = coordinator_->HandleSearch(
      PostJson("/v1/search", [&] {
        json::Value body = json::Value::Object();
        body.Set("query", json::Value::Str(request.query));
        body.Set("k", json::Value::Uint(5));
        return body;
      }()));
  // Partial results are still a 200 — degradation is flagged in-band.
  ASSERT_EQ(http.status, 200) << http.body;
  Result<json::Value> body = json::Parse(http.body);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(body->Find("degraded")->AsBool());
  EXPECT_EQ(body->Find("shards_answered")->AsDouble(), 1);
  EXPECT_EQ(body->Find("shards_total")->AsDouble(), 2);

  // Every surviving hit comes from shard 0's rows (even global rows under
  // the round-robin split).
  const baselines::SearchResponse degraded = coordinator_->Search(request);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.shards_answered, 1u);
  ASSERT_FALSE(degraded.hits.empty());
  for (const baselines::SearchHit& hit : degraded.hits) {
    EXPECT_EQ(hit.doc_index % kNumShards, 0u) << hit.doc_index;
  }

  // /v1/stats reports the per-shard health split.
  const HttpResponse stats_http = coordinator_->HandleStats(HttpRequest{});
  ASSERT_EQ(stats_http.status, 200);
  Result<json::Value> stats = json::Parse(stats_http.body);
  ASSERT_TRUE(stats.ok());
  const json::Value* shards = stats->Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->size(), kNumShards);
  EXPECT_TRUE(shards->at(0).Find("healthy")->AsBool());
  EXPECT_FALSE(shards->at(1).Find("healthy")->AsBool());
  EXPECT_NE(shards->at(1).Find("last_error"), nullptr);
}

TEST_F(ShardServingTest, CoordinatorRejectsExplainLoudly) {
  StartCluster();
  json::Value body = json::Value::Object();
  body.Set("query", json::Value::Str(QueryFor(1)));
  body.Set("explain", json::Value::Bool(true));
  const HttpResponse http =
      coordinator_->HandleSearch(PostJson("/v1/search", body));
  EXPECT_EQ(http.status, 400) << http.body;
}

}  // namespace
}  // namespace net
}  // namespace newslink
