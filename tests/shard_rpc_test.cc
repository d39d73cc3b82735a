// The versioned shard RPC surface, end to end: codec round-trips that
// keep scores bit-exact across the JSON wire, strict unknown-field and
// api_version rejection (409, not silent drift), the /v1/shard handlers'
// epoch-echo check, and a real scatter-gather coordinator over loopback
// sockets — parity with a single engine over the union while every shard
// answers, graceful degradation (HTTP 200, degraded: true) when one dies.

#include <memory>
#include <string>
#include <string_view>
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
  query.use[kBow] = true;
  query.use[kBon] = true;
  query.kprime = 37;
  query.exhaustive = true;
  return query;
}

/// Statistics with every field away from its default.
ShardStats SampleStats() {
  ShardStats stats;
  stats.num_docs = 1000;
  stats.side[kBow] = {123456, 4, {500, 17}, {9, 2}};
  stats.side[kBon] = {7890, 1, {3, 0}, {5, 1}};
  stats.has_timestamps = true;
  stats.now_ms = 1700000400123;
  return stats;
}

/// Every ShardStats field, so plan responses and search requests are held
/// to the same check.
void ExpectSameStats(const ShardStats& actual, const ShardStats& expected) {
  EXPECT_EQ(actual.num_docs, expected.num_docs);
  for (const Side side : kSides) {
    const ShardSideStats& a = actual.side[side];
    const ShardSideStats& e = expected.side[side];
    EXPECT_EQ(a.total_length, e.total_length) << side;
    EXPECT_EQ(a.min_doc_length, e.min_doc_length) << side;
    EXPECT_EQ(a.df, e.df) << side;
    EXPECT_EQ(a.max_tf, e.max_tf) << side;
  }
  EXPECT_EQ(actual.has_timestamps, expected.has_timestamps);
  EXPECT_EQ(actual.now_ms, expected.now_ms);
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

/// A decoded /v1/shard/search request.
struct SearchRequestParts {
  uint64_t expected_epoch = 0;
  ShardQuery query;
  ShardStats global;
};

SearchRequestParts SearchRequestTrip(uint64_t expected_epoch,
                                     const ShardQuery& query,
                                     const ShardStats& global) {
  Result<json::Value> parsed = json::Parse(
      ShardSearchRequestToJson(expected_epoch, query, global).Dump());
  NL_CHECK(parsed.ok()) << parsed.status().ToString();
  SearchRequestParts parts;
  const Status decoded = ShardSearchRequestFromJson(
      *parsed, &parts.expected_epoch, &parts.query, &parts.global);
  NL_CHECK(decoded.ok()) << decoded.ToString();
  return parts;
}

Status DecodeSearchRequest(const json::Value& wire) {
  uint64_t expected_epoch = 0;
  ShardQuery query;
  ShardStats global;
  return ShardSearchRequestFromJson(wire, &expected_epoch, &query, &global);
}

/// The encoded search request of SampleQuery and SampleStats.
json::Value SampleSearchRequest() {
  return ShardSearchRequestToJson(17, SampleQuery(), SampleStats());
}

TEST(ShardCodecs, PlanMessagesRoundTripExactly) {
  const ShardQuery query = SampleQuery();
  const ShardQuery back =
      WireTrip(query, ShardPlanRequestToJson, ShardPlanRequestFromJson);
  EXPECT_EQ(back.text_stems, query.text_stems);
  EXPECT_EQ(back.node_terms, query.node_terms);
  EXPECT_EQ(back.kprime, query.kprime);
  EXPECT_EQ(back.exhaustive, query.exhaustive);

  ShardPlan plan;
  plan.epoch = 41;
  plan.stats = SampleStats();
  const ShardPlan pback =
      WireTrip(plan, ShardPlanResponseToJson, [&query](const json::Value& v) {
        return ShardPlanResponseFromJson(v, query);
      });
  EXPECT_EQ(pback.epoch, plan.epoch);
  ExpectSameStats(pback.stats, plan.stats);
}

TEST(ShardCodecs, SearchMessagesKeepScoresBitExact) {
  const SearchRequestParts back =
      SearchRequestTrip(17, SampleQuery(), SampleStats());
  EXPECT_EQ(back.expected_epoch, 17u);
  EXPECT_EQ(back.query.text_stems, SampleQuery().text_stems);
  ExpectSameStats(back.global, SampleStats());

  // Awkward doubles that lose bits under %.17g-naive printing schemes;
  // shortest-round-trip rendering must reproduce them EXACTLY, or the
  // distributed merge stops being bit-identical to the in-process one.
  ShardSearchResult result;
  result.epoch = 17;
  result.snapshot_docs = 1000;
  result.side[kBow] = {0.1 + 0.2, 0.1 + 0.7, 321};
  result.side[kBon] = {1.0 / 3.0, 2.0 / 3.0, 12};
  result.candidates = {
      {42, 3.0000000000000004, 0.0},
      {77, 2.718281828459045, 0.30000000000000004},
  };
  const ShardSearchResult rback = WireTrip(result, ShardSearchResponseToJson,
                                           ShardSearchResponseFromJson);
  EXPECT_EQ(rback.epoch, result.epoch);
  EXPECT_EQ(rback.snapshot_docs, result.snapshot_docs);
  for (const Side side : kSides) {
    EXPECT_EQ(rback.side[side].max, result.side[side].max) << side;
    EXPECT_EQ(rback.side[side].floor, result.side[side].floor) << side;
    EXPECT_EQ(rback.side[side].scored, result.side[side].scored) << side;
  }
  ASSERT_EQ(rback.candidates.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rback.candidates[i].doc, result.candidates[i].doc);
    for (const Side side : kSides) {
      EXPECT_EQ(rback.candidates[i].score[side],
                result.candidates[i].score[side]);
    }
  }
}

TEST(ShardCodecs, TimeFieldsRoundTripExactly) {
  // The time-aware fields: the window on the query (v2); has_timestamps
  // and the pinned now in the statistics (v3); per-candidate timestamps on
  // results.
  ShardQuery query = SampleQuery();
  query.has_time_range = true;
  query.after_ms = 1699999999999;
  query.before_ms = 1700000360000;

  const ShardQuery back =
      WireTrip(query, ShardPlanRequestToJson, ShardPlanRequestFromJson);
  EXPECT_TRUE(back.has_time_range);
  EXPECT_EQ(back.after_ms, query.after_ms);
  EXPECT_EQ(back.before_ms, query.before_ms);

  ShardPlan plan;
  plan.stats = SampleStats();
  plan.stats.has_timestamps = true;
  plan.stats.now_ms = 1700000400123;
  const ShardPlan pback =
      WireTrip(plan, ShardPlanResponseToJson, [&query](const json::Value& v) {
        return ShardPlanResponseFromJson(v, query);
      });
  EXPECT_TRUE(pback.stats.has_timestamps);
  EXPECT_EQ(pback.stats.now_ms, plan.stats.now_ms);

  // The merge takes the newest pinned now.
  ShardStats merged;
  MergeShardPlan(pback.stats, &merged);
  ShardStats older;
  older.now_ms = 1700000000000;
  MergeShardPlan(older, &merged);
  EXPECT_EQ(merged.now_ms, plan.stats.now_ms);

  const SearchRequestParts sback = SearchRequestTrip(0, query, merged);
  EXPECT_TRUE(sback.global.has_timestamps);
  EXPECT_EQ(sback.query.before_ms, query.before_ms);

  ShardSearchResult result;
  result.candidates = {
      {42, 1.5, 0.25, 1700000000001},
      {77, 2.5, 0.125, 0},  // unknown timestamp stays 0
  };
  const ShardSearchResult rback = WireTrip(result, ShardSearchResponseToJson,
                                           ShardSearchResponseFromJson);
  ASSERT_EQ(rback.candidates.size(), 2u);
  EXPECT_EQ(rback.candidates[0].ts, 1700000000001);
  EXPECT_EQ(rback.candidates[1].ts, 0);
}

TEST(ShardCodecs, UnknownFieldsAreRejectedEverywhere) {
  json::Value wire = ShardPlanRequestToJson(SampleQuery());
  wire.Set("shard_idx", json::Value::Uint(0));  // typo'd field
  EXPECT_TRUE(ShardPlanRequestFromJson(wire).status().IsInvalidArgument());

  json::Value response_wire = ShardPlanResponseToJson({});
  response_wire.Set("docs", json::Value::Uint(5));
  EXPECT_TRUE(
      ShardPlanResponseFromJson(response_wire, ShardQuery())
          .status()
          .IsInvalidArgument());

  // Statistics fields belong under "stats", not beside it.
  json::Value flat_plan = ShardPlanResponseToJson({});
  flat_plan.Set("num_docs", json::Value::Uint(5));
  EXPECT_TRUE(
      ShardPlanResponseFromJson(flat_plan, ShardQuery())
          .status()
          .IsInvalidArgument());

  json::Value search_wire = SampleSearchRequest();
  search_wire.Set("epoch", json::Value::Uint(1));  // belongs to responses
  EXPECT_TRUE(DecodeSearchRequest(search_wire).IsInvalidArgument());

  json::Value global_wire = SampleSearchRequest();
  json::Value global = *global_wire.Find("global");
  global.Set("epoch", json::Value::Uint(1));
  global_wire.Set("global", std::move(global));
  EXPECT_TRUE(DecodeSearchRequest(global_wire).IsInvalidArgument());

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

  // Every older peer is refused with 409, both ways, on both phases,
  // whatever fields its version sends: up to v4 every message carried
  // `shard`, requests `deadline_seconds`, and plans their statistics flat;
  // a v3 peer has no per-side floors, a v2 peer no pinned now on plans.
  EXPECT_EQ(kShardApiVersion, 5u);
  for (const uint64_t old_version : {4u, 3u, 2u}) {
    const auto as_old = [old_version](json::Value message, bool request) {
      message.Set("api_version", json::Value::Uint(old_version));
      message.Set("shard", json::Value::Uint(0));
      if (request) message.Set("deadline_seconds", json::Value::Number(0.25));
      return message;
    };
    const Status plan =
        ShardPlanRequestFromJson(as_old(ShardPlanRequestToJson(SampleQuery()),
                                        /*request=*/true))
            .status();
    EXPECT_TRUE(plan.IsFailedPrecondition()) << old_version;
    EXPECT_EQ(StatusToHttp(plan), 409) << old_version;

    json::Value plan_response = as_old(ShardPlanResponseToJson({}), false);
    plan_response.Set("num_docs", json::Value::Uint(5));
    EXPECT_TRUE(ShardPlanResponseFromJson(plan_response, ShardQuery())
                    .status()
                    .IsFailedPrecondition())
        << old_version;

    const Status search = DecodeSearchRequest(as_old(SampleSearchRequest(),
                                                     /*request=*/true));
    EXPECT_TRUE(search.IsFailedPrecondition()) << old_version;
    EXPECT_EQ(StatusToHttp(search), 409) << old_version;

    EXPECT_TRUE(ShardSearchResponseFromJson(
                    as_old(ShardSearchResponseToJson({}), false))
                    .status()
                    .IsFailedPrecondition())
        << old_version;
  }

  // v4's envelope fields are gone since v5: unknown → 400 in every shard
  // message.
  for (const char* dropped : {"shard", "deadline_seconds"}) {
    json::Value plan_request = ShardPlanRequestToJson(SampleQuery());
    plan_request.Set(dropped, json::Value::Uint(1));
    const Status plan = ShardPlanRequestFromJson(plan_request).status();
    EXPECT_TRUE(plan.IsInvalidArgument()) << dropped;
    EXPECT_EQ(StatusToHttp(plan), 400) << dropped;

    json::Value plan_response = ShardPlanResponseToJson({});
    plan_response.Set(dropped, json::Value::Uint(1));
    EXPECT_TRUE(ShardPlanResponseFromJson(plan_response, ShardQuery())
                    .status()
                    .IsInvalidArgument())
        << dropped;

    json::Value search_request = SampleSearchRequest();
    search_request.Set(dropped, json::Value::Uint(1));
    const Status search = DecodeSearchRequest(search_request);
    EXPECT_TRUE(search.IsInvalidArgument()) << dropped;
    EXPECT_EQ(StatusToHttp(search), 400) << dropped;

    json::Value search_response = ShardSearchResponseToJson({});
    search_response.Set(dropped, json::Value::Uint(1));
    EXPECT_TRUE(ShardSearchResponseFromJson(search_response)
                    .status()
                    .IsInvalidArgument())
        << dropped;
  }

  // The v2 query fields are gone since v3: unknown → 400.
  for (const char* dropped : {"recency_half_life_s", "now_ms"}) {
    json::Value wire = ShardPlanRequestToJson(SampleQuery());
    json::Value query = *wire.Find("query");
    query.Set(dropped, json::Value::Uint(1));
    wire.Set("query", std::move(query));
    EXPECT_TRUE(ShardPlanRequestFromJson(wire).status().IsInvalidArgument())
        << dropped;
  }
}

TEST(ShardCodecs, StatisticsMustAlignWithTheQuery) {
  // SEARCH and the plan merge index the statistics by query term, so a
  // peer's statistics with an entry too few or too many for a side the
  // query scores — or any for a side it does not — are a 400, not an
  // out-of-bounds read.
  const ShardQuery query = SampleQuery();
  ShardQuery text_only = query;
  text_only.use[kBon] = false;
  std::vector<std::pair<ShardQuery, ShardStats>> cases;
  ShardStats short_text = SampleStats();
  short_text.side[kBow].df.pop_back();
  cases.push_back({query, short_text});
  ShardStats long_node = SampleStats();
  long_node.side[kBon].max_tf.push_back(1);
  cases.push_back({query, long_node});
  cases.push_back({query, ShardStats()});
  cases.push_back({text_only, SampleStats()});  // node side not scored
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [q, stats] = cases[i];
    ShardPlan plan;
    plan.stats = stats;
    const Status decoded_plan =
        ShardPlanResponseFromJson(ShardPlanResponseToJson(plan), q).status();
    EXPECT_TRUE(decoded_plan.IsInvalidArgument()) << i;
    const Status decoded_search =
        DecodeSearchRequest(ShardSearchRequestToJson(1, q, stats));
    EXPECT_TRUE(decoded_search.IsInvalidArgument()) << i;
    EXPECT_EQ(StatusToHttp(decoded_search), 400) << i;
  }
}

TEST(ShardCodecs, ThirtyTwoBitFieldsRejectWiderValues) {
  // A min doc length or a candidate row past 32 bits is a 400, not a
  // value cut to its low bits.
  constexpr uint64_t kWide = uint64_t{1} << 32;
  for (const char* field : {"text_min_doc_length", "node_min_doc_length"}) {
    json::Value plan = ShardPlanResponseToJson({});
    json::Value stats = *plan.Find("stats");
    stats.Set(field, json::Value::Uint(kWide + 4));
    plan.Set("stats", std::move(stats));
    EXPECT_TRUE(ShardPlanResponseFromJson(plan, ShardQuery())
                    .status()
                    .IsInvalidArgument())
        << field;
  }

  // So are a text stem's count and a node term's id or weight.
  const auto pair = [](json::Value first, json::Value second) {
    json::Value entry = json::Value::Array();
    entry.Append(std::move(first));
    entry.Append(std::move(second));
    return entry;
  };
  const std::pair<const char*, json::Value> wide_terms[] = {
      {"text_stems", pair(json::Value::Str("flood"), json::Value::Uint(kWide))},
      {"node_terms", pair(json::Value::Uint(kWide), json::Value::Uint(1))},
      {"node_terms", pair(json::Value::Uint(7), json::Value::Uint(kWide))},
  };
  for (const auto& [field, entry] : wide_terms) {
    json::Value terms = json::Value::Array();
    terms.Append(json::Value(entry));
    json::Value wire = ShardPlanRequestToJson(SampleQuery());
    json::Value query = *wire.Find("query");
    query.Set(field, std::move(terms));
    wire.Set("query", std::move(query));
    EXPECT_TRUE(ShardPlanRequestFromJson(wire).status().IsInvalidArgument())
        << field << " " << entry.Dump();
  }

  json::Value result = ShardSearchResponseToJson({});
  json::Value candidate = json::Value::Array();
  candidate.Append(json::Value::Uint(kWide + 5));
  candidate.Append(json::Value::Number(1.0));
  candidate.Append(json::Value::Number(0.0));
  candidate.Append(json::Value::Uint(0));
  json::Value candidates = json::Value::Array();
  candidates.Append(std::move(candidate));
  result.Set("candidates", std::move(candidates));
  EXPECT_TRUE(
      ShardSearchResponseFromJson(result).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Golden wire bytes: the v5 messages, pinned literally. Round trips cannot
// see a field renamed on both the encoder and the decoder; these can.
// ---------------------------------------------------------------------------

constexpr std::string_view kGoldenQuery =
    R"({"text_stems":[["flood",2],["rescu",1],["zzyx",1]],)"
    R"("node_terms":[[7,3],[19,1]],"use_bow":true,"use_bon":true,)"
    R"("kprime":128,"exhaustive":false,"has_time_range":true,)"
    R"("after_ms":1699999999999,"before_ms":1700000360000})";

constexpr std::string_view kGoldenStats =
    R"({"num_docs":1000,"text_total_length":123456,)"
    R"("node_total_length":7890,"text_min_doc_length":4,)"
    R"("node_min_doc_length":1,"text_df":[500,17,0],"node_df":[3,0],)"
    R"("text_max_tf":[9,2,0],"node_max_tf":[5,1],"has_timestamps":true,)"
    R"("now_ms":1700000400123})";

constexpr std::string_view kGoldenSearchResponse =
    R"({"api_version":5,"epoch":9,"snapshot_docs":207,)"
    R"("bow_max":0.30000000000000004,"bon_max":3.0000000000000004,)"
    R"("bow_floor":1.0000000000000002,"bon_floor":0.10000000000000002,)"
    R"("bow_scored":321,"bon_scored":12,)"
    R"("candidates":[[42,2.9999999999999996,0,1700000000001],)"
    R"([77,0,2.0000000000000004,0]]})";

/// Both sides scored, an unknown-looking stem, a time window and a
/// deepened k'.
ShardQuery GoldenQuery() {
  ShardQuery query;
  query.text_stems = {{"flood", 2}, {"rescu", 1}, {"zzyx", 1}};
  query.node_terms = {{7, 3}, {19, 1}};
  query.use[kBow] = true;
  query.use[kBon] = true;
  query.kprime = 128;
  query.has_time_range = true;
  query.after_ms = 1699999999999;
  query.before_ms = 1700000360000;
  return query;
}

/// SampleStats, positional with GoldenQuery.
ShardStats GoldenStats() {
  ShardStats stats = SampleStats();
  stats.side[kBow].df.push_back(0);
  stats.side[kBow].max_tf.push_back(0);
  return stats;
}

/// Per-side values that need all 17 significant digits.
ShardSearchResult GoldenResult() {
  ShardSearchResult result;
  result.epoch = 9;
  result.snapshot_docs = 207;
  result.side[kBow] = {0.1 + 0.2, 1.0000000000000002, 321};
  result.side[kBon] = {3.0000000000000004, 0.30000000000000004 / 3.0, 12};
  result.candidates = {
      {42, {2.9999999999999996, 0.0}, 1700000000001},
      {77, {0.0, 2.0000000000000004}, 0},
  };
  return result;
}

void ExpectSameQuery(const ShardQuery& actual, const ShardQuery& expected) {
  EXPECT_EQ(actual.text_stems, expected.text_stems);
  EXPECT_EQ(actual.node_terms, expected.node_terms);
  for (const Side side : kSides) {
    EXPECT_EQ(actual.use[side], expected.use[side]) << side;
  }
  EXPECT_EQ(actual.kprime, expected.kprime);
  EXPECT_EQ(actual.exhaustive, expected.exhaustive);
  EXPECT_EQ(actual.has_time_range, expected.has_time_range);
  EXPECT_EQ(actual.after_ms, expected.after_ms);
  EXPECT_EQ(actual.before_ms, expected.before_ms);
}

void ExpectSameResult(const ShardSearchResult& actual,
                      const ShardSearchResult& expected) {
  EXPECT_EQ(actual.epoch, expected.epoch);
  EXPECT_EQ(actual.snapshot_docs, expected.snapshot_docs);
  for (const Side side : kSides) {
    EXPECT_EQ(actual.side[side].max, expected.side[side].max) << side;
    EXPECT_EQ(actual.side[side].floor, expected.side[side].floor) << side;
    EXPECT_EQ(actual.side[side].scored, expected.side[side].scored) << side;
  }
  ASSERT_EQ(actual.candidates.size(), expected.candidates.size());
  for (size_t i = 0; i < expected.candidates.size(); ++i) {
    EXPECT_EQ(actual.candidates[i].doc, expected.candidates[i].doc) << i;
    for (const Side side : kSides) {
      EXPECT_EQ(actual.candidates[i].score[side],
                expected.candidates[i].score[side])
          << i << " side " << side;
    }
    EXPECT_EQ(actual.candidates[i].ts, expected.candidates[i].ts) << i;
  }
}

json::Value ParseOrDie(std::string_view text) {
  Result<json::Value> parsed = json::Parse(text);
  NL_CHECK(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

TEST(ShardCodecs, GoldenWireBytes) {
  const ShardQuery query = GoldenQuery();
  ShardPlan plan;
  plan.epoch = 41;
  plan.stats = GoldenStats();
  const ShardSearchResult result = GoldenResult();
  const std::string plan_request =
      StrCat(R"({"api_version":5,"query":)", kGoldenQuery, "}");
  const std::string plan_response =
      StrCat(R"({"api_version":5,"epoch":41,"stats":)", kGoldenStats, "}");
  const std::string search_request =
      StrCat(R"({"api_version":5,"expected_epoch":41,"query":)", kGoldenQuery,
             R"(,"global":)", kGoldenStats, "}");

  EXPECT_EQ(ShardPlanRequestToJson(query).Dump(), plan_request);
  EXPECT_EQ(ShardPlanResponseToJson(plan).Dump(), plan_response);
  EXPECT_EQ(ShardSearchRequestToJson(41, query, plan.stats).Dump(),
            search_request);
  EXPECT_EQ(ShardSearchResponseToJson(result).Dump(), kGoldenSearchResponse);

  // The literals decode back to the structs they were encoded from.
  const Result<ShardQuery> query_back =
      ShardPlanRequestFromJson(ParseOrDie(plan_request));
  ASSERT_TRUE(query_back.ok()) << query_back.status().ToString();
  ExpectSameQuery(*query_back, query);

  const Result<ShardPlan> plan_back =
      ShardPlanResponseFromJson(ParseOrDie(plan_response), query);
  ASSERT_TRUE(plan_back.ok()) << plan_back.status().ToString();
  EXPECT_EQ(plan_back->epoch, plan.epoch);
  ExpectSameStats(plan_back->stats, plan.stats);

  uint64_t expected_epoch = 0;
  ShardQuery search_query;
  ShardStats global;
  ASSERT_TRUE(ShardSearchRequestFromJson(ParseOrDie(search_request),
                                         &expected_epoch, &search_query,
                                         &global)
                  .ok());
  EXPECT_EQ(expected_epoch, 41u);
  ExpectSameQuery(search_query, query);
  ExpectSameStats(global, plan.stats);

  const Result<ShardSearchResult> result_back =
      ShardSearchResponseFromJson(ParseOrDie(kGoldenSearchResponse));
  ASSERT_TRUE(result_back.ok()) << result_back.status().ToString();
  ExpectSameResult(*result_back, result);
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
          s, kNumShards, "127.0.0.1", shard_servers_[s]->port(), 5.0));
    }
    prep_ = std::make_unique<NewsLinkEngine>(&kg_.graph, &labels_, config_);
    coordinator_ = std::make_unique<CoordinatorService>(
        prep_.get(), config_, std::move(clients));
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

  const HttpResponse plan_http = service.HandleShardPlan(
      PostJson("/v1/shard/plan", ShardPlanRequestToJson(query)));
  ASSERT_EQ(plan_http.status, 200) << plan_http.body;
  Result<json::Value> plan_body = json::Parse(plan_http.body);
  ASSERT_TRUE(plan_body.ok());
  Result<ShardPlan> plan = ShardPlanResponseFromJson(*plan_body, query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // The served plan is the direct PlanShard answer, field for field.
  const ShardPlan direct = engine->PlanShard(query, engine->PinEpoch());
  EXPECT_EQ(plan->epoch, direct.epoch);
  ExpectSameStats(plan->stats, direct.stats);

  ShardStats global;
  MergeShardPlan(plan->stats, &global);
  const json::Value search_request =
      ShardSearchRequestToJson(plan->epoch, query, global);
  const HttpResponse search_http = service.HandleShardSearch(
      PostJson("/v1/shard/search", search_request));
  ASSERT_EQ(search_http.status, 200) << search_http.body;
  Result<json::Value> search_body = json::Parse(search_http.body);
  ASSERT_TRUE(search_body.ok());
  Result<ShardSearchResult> result = ShardSearchResponseFromJson(*search_body);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Candidates and raw scores survive the wire bit-exactly.
  const ShardSearchResult direct_result =
      engine->SearchShard(query, global, engine->PinEpoch());
  ASSERT_EQ(result->candidates.size(), direct_result.candidates.size());
  for (const Side side : kSides) {
    EXPECT_EQ(result->side[side].max, direct_result.side[side].max);
    EXPECT_EQ(result->side[side].floor, direct_result.side[side].floor);
  }
  for (size_t i = 0; i < direct_result.candidates.size(); ++i) {
    EXPECT_EQ(result->candidates[i].doc, direct_result.candidates[i].doc);
    for (const Side side : kSides) {
      EXPECT_EQ(result->candidates[i].score[side],
                direct_result.candidates[i].score[side]);
    }
  }

  // Statistics that do not line up with the query's terms are refused
  // before any posting is read.
  const HttpResponse misaligned = service.HandleShardSearch(PostJson(
      "/v1/shard/search",
      ShardSearchRequestToJson(plan->epoch, query, ShardStats())));
  EXPECT_EQ(misaligned.status, 400) << misaligned.body;

  // Epoch moved between PLAN and SEARCH → 409, so a coordinator re-plans
  // instead of merging statistics across epochs.
  corpus::Document doc;
  doc.id = "live-1";
  doc.title = "late breaking";
  doc.text = "Late breaking update arrives after the plan.";
  engine->AddDocument(doc);
  const HttpResponse stale = service.HandleShardSearch(
      PostJson("/v1/shard/search", search_request));
  EXPECT_EQ(stale.status, 409) << stale.body;
}

TEST_F(ShardServingTest, CoordinatorMatchesSingleEngineOverTheUnion) {
  StartCluster();
  for (const size_t doc : {0UL, 3UL, 7UL}) {
    for (const double beta : {0.0, 0.3, 1.0}) {
      for (const bool exhaustive : {false, true}) {
        baselines::SearchRequest request;
        request.query = QueryFor(doc);
        request.k = 5;
        request.beta = beta;
        request.exhaustive_fusion = exhaustive;
        const baselines::SearchResponse expected = single_->Search(request);
        const baselines::SearchResponse actual = coordinator_->Search(request);
        const std::string what =
            StrCat("doc ", doc, " beta ", beta, " exhaustive ", exhaustive);
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
