// net wire layer, no sockets: the incremental HTTP request parser (valid
// requests, pipelining, keep-alive headers, and a malformed-input sweep
// that must produce 4xx/5xx verdicts — never a crash), the response
// serializer, the Status → HTTP mapping, and the /v1 JSON codecs.

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/search_engine.h"
#include "common/json.h"
#include "corpus/corpus.h"
#include "net/api_json.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/status_http.h"

namespace newslink {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Request parser
// ---------------------------------------------------------------------------

TEST(HttpParserTest, ParsesPostWithBody) {
  HttpRequestParser parser;
  const std::string wire =
      "POST /v1/search HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 14\r\n"
      "\r\n"
      "{\"query\":\"x\"}\n";
  ASSERT_EQ(parser.Consume(wire), HttpRequestParser::State::kComplete);
  const HttpRequest& r = parser.request();
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.target, "/v1/search");
  EXPECT_EQ(r.version, "HTTP/1.1");
  EXPECT_EQ(r.body, "{\"query\":\"x\"}\n");
  ASSERT_NE(r.FindHeader("content-type"), nullptr);  // case-insensitive
  EXPECT_EQ(*r.FindHeader("CONTENT-TYPE"), "application/json");
  EXPECT_TRUE(r.KeepAlive());
}

TEST(HttpParserTest, ParsesGetWithoutBodyByteByByte) {
  HttpRequestParser parser;
  const std::string wire = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(parser.Consume(wire.substr(i, 1)),
              HttpRequestParser::State::kNeedMore)
        << "completed early at byte " << i;
  }
  ASSERT_EQ(parser.Consume(wire.substr(wire.size() - 1)),
            HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParserTest, PipelinedRequestsCarryOverAfterReset) {
  HttpRequestParser parser;
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n";
  ASSERT_EQ(parser.Consume(two), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/a");
  parser.Reset();
  // The second request was already consumed; Reset must replay it.
  ASSERT_EQ(parser.Consume(""), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
}

TEST(HttpParserTest, ConnectionHeaderControlsKeepAlive) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Consume("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  EXPECT_FALSE(parser.request().KeepAlive());

  HttpRequestParser old10;
  ASSERT_EQ(old10.Consume("GET / HTTP/1.0\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  EXPECT_FALSE(old10.request().KeepAlive());

  HttpRequestParser old10keep;
  ASSERT_EQ(
      old10keep.Consume("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
      HttpRequestParser::State::kComplete);
  EXPECT_TRUE(old10keep.request().KeepAlive());
}

/// Every malformed input must land in kError with a 4xx/5xx verdict —
/// kComplete or a crash is a parser bug.
void ExpectRejected(const std::string& wire, int want_status = 0) {
  HttpRequestParser parser;
  const auto state = parser.Consume(wire);
  ASSERT_EQ(state, HttpRequestParser::State::kError) << "accepted: " << wire;
  EXPECT_GE(parser.error_status(), 400) << wire;
  EXPECT_LT(parser.error_status(), 600) << wire;
  if (want_status != 0) {
    EXPECT_EQ(parser.error_status(), want_status) << wire;
  }
}

TEST(HttpParserTest, MalformedRequestsAreRejectedNotCrashed) {
  ExpectRejected("GARBAGE\r\n\r\n");
  ExpectRejected("GET\r\n\r\n");
  ExpectRejected("GET /\r\n\r\n");                         // no version
  ExpectRejected("GET / HTTP/2.0\r\n\r\n", 505);           // unsupported
  ExpectRejected("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n");
  ExpectRejected("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n");
  ExpectRejected("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
  ExpectRejected(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501);
  ExpectRejected("POST / HTTP/1.1\r\n\r\n", 411);  // body with no length
  ExpectRejected(std::string("\0\0\0\0", 4) + "\r\n\r\n");
}

TEST(HttpParserTest, FuzzSweepNeverCrashes) {
  // Deterministic xorshift byte soup, fed in uneven chunks: the parser must
  // always answer kNeedMore / kComplete / kError, never crash or loop.
  uint64_t state = 0x243f6a8885a308d3ull;
  for (int round = 0; round < 200; ++round) {
    std::string soup;
    for (int i = 0; i < 120; ++i) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      soup.push_back(static_cast<char>(state & 0xff));
    }
    // Half the rounds get a plausible prefix so parsing reaches the header
    // and body machinery instead of dying on the request line.
    if (round % 2 == 0) soup = "POST /v1/search HTTP/1.1\r\n" + soup;
    HttpRequestParser parser;
    size_t offset = 0;
    size_t chunk = 1 + (round % 7);
    while (offset < soup.size() &&
           parser.state() == HttpRequestParser::State::kNeedMore) {
      parser.Consume(soup.substr(offset, chunk));
      offset += chunk;
    }
    if (parser.state() == HttpRequestParser::State::kError) {
      EXPECT_GE(parser.error_status(), 400);
      EXPECT_LT(parser.error_status(), 600);
    }
  }
}

TEST(HttpParserTest, EnforcesHeadAndBodyLimits) {
  HttpParserLimits limits;
  limits.max_head_bytes = 64;
  limits.max_body_bytes = 8;
  limits.max_headers = 2;

  HttpRequestParser big_head(limits);
  ASSERT_EQ(big_head.Consume("GET / HTTP/1.1\r\nX-Pad: " +
                             std::string(128, 'a') + "\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(big_head.error_status(), 431);

  HttpRequestParser big_body(limits);
  ASSERT_EQ(big_body.Consume("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(big_body.error_status(), 413);

  HttpRequestParser many(limits);
  ASSERT_EQ(many.Consume("GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(many.error_status(), 431);
}

// ---------------------------------------------------------------------------
// Response serializer + routing helpers
// ---------------------------------------------------------------------------

TEST(HttpSerializerTest, SerializesStatusHeadersAndBody) {
  HttpResponse response;
  response.status = 201;
  response.body = "{\"ok\":true}";
  response.headers.emplace_back("X-Custom", "yes");
  const std::string wire = SerializeResponse(response, /*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 201 Created\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(wire.find("X-Custom: yes\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"ok\":true}"), std::string::npos);

  HttpResponse empty;
  empty.status = 503;
  const std::string closed = SerializeResponse(empty, /*keep_alive=*/false);
  EXPECT_NE(closed.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(closed.find("Connection: close\r\n"), std::string::npos);
}

TEST(HttpRoutingTest, PathOfStripsQueryString) {
  EXPECT_EQ(PathOf("/v1/stats?format=json"), "/v1/stats");
  EXPECT_EQ(PathOf("/healthz"), "/healthz");
  EXPECT_EQ(QueryParam("/v1/stats?format=json&x=1", "format"), "json");
  EXPECT_EQ(QueryParam("/v1/stats?format=json&x=1", "x"), "1");
  EXPECT_EQ(QueryParam("/v1/stats?format=json", "missing"), "");
  EXPECT_EQ(QueryParam("/v1/stats", "format"), "");
}

// ---------------------------------------------------------------------------
// Status → HTTP mapping (the one place engine errors meet the wire)
// ---------------------------------------------------------------------------

TEST(StatusHttpTest, MapsEveryCode) {
  EXPECT_EQ(StatusToHttp(Status::OK()), 200);
  EXPECT_EQ(StatusToHttp(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(StatusToHttp(Status::OutOfRange("x")), 400);
  EXPECT_EQ(StatusToHttp(Status::NotFound("x")), 404);
  EXPECT_EQ(StatusToHttp(Status::AlreadyExists("x")), 409);
  EXPECT_EQ(StatusToHttp(Status::FailedPrecondition("x")), 409);
  EXPECT_EQ(StatusToHttp(Status::Timeout("x")), 408);
  EXPECT_EQ(StatusToHttp(Status::Unimplemented("x")), 501);
  EXPECT_EQ(StatusToHttp(Status::Internal("x")), 500);
  EXPECT_EQ(StatusToHttp(Status::IOError("x")), 500);
}

TEST(StatusHttpTest, ErrorResponseCarriesStableJsonShape) {
  const HttpResponse r = ErrorResponse(Status::InvalidArgument("bad k"));
  EXPECT_EQ(r.status, 400);
  const Result<json::Value> body = json::Parse(r.body);
  ASSERT_TRUE(body.ok()) << r.body;
  const json::Value* error = body->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->AsString(), "InvalidArgument");
  EXPECT_EQ(error->Find("status")->AsInt(), 400);
  EXPECT_EQ(error->Find("message")->AsString(), "bad k");

  const HttpResponse at = ErrorResponseAt(503, "draining");
  EXPECT_EQ(at.status, 503);
  const Result<json::Value> at_body = json::Parse(at.body);
  ASSERT_TRUE(at_body.ok());
  EXPECT_EQ(at_body->Find("error")->Find("status")->AsInt(), 503);
}

// ---------------------------------------------------------------------------
// /v1 JSON codecs
// ---------------------------------------------------------------------------

json::Value MustParseJson(const std::string& text) {
  Result<json::Value> v = json::Parse(text);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? std::move(v).value() : json::Value();
}

TEST(ApiJsonTest, SearchRequestDecodesAllFields) {
  const Result<baselines::SearchRequest> r = SearchRequestFromJson(
      MustParseJson("{\"query\":\"berlin\",\"k\":3,\"ranking\":"
                    "{\"beta\":0.5,\"exhaustive\":true},"
                    "\"explain\":true,\"max_paths\":2,\"trace\":true,"
                    "\"deadline_seconds\":0.25}"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->query, "berlin");
  EXPECT_EQ(r->k, 3u);
  ASSERT_TRUE(r->beta.has_value());
  EXPECT_DOUBLE_EQ(*r->beta, 0.5);
  EXPECT_TRUE(r->exhaustive_fusion);
  EXPECT_TRUE(r->explain);
  EXPECT_EQ(r->max_paths_per_result, 2u);
  EXPECT_TRUE(r->trace);
  ASSERT_TRUE(r->deadline_seconds.has_value());
  EXPECT_DOUBLE_EQ(*r->deadline_seconds, 0.25);
}

TEST(ApiJsonTest, SearchRequestDefaultsMatchEngineDefaults) {
  const Result<baselines::SearchRequest> r =
      SearchRequestFromJson(MustParseJson("{\"query\":\"q\"}"));
  ASSERT_TRUE(r.ok());
  const baselines::SearchRequest defaults;
  EXPECT_EQ(r->k, defaults.k);
  EXPECT_FALSE(r->beta.has_value());
  EXPECT_EQ(r->explain, defaults.explain);
  EXPECT_EQ(r->max_paths_per_result, defaults.max_paths_per_result);
}

TEST(ApiJsonTest, SearchRequestRejectsBadInput) {
  EXPECT_FALSE(SearchRequestFromJson(MustParseJson("{}")).ok());
  EXPECT_FALSE(SearchRequestFromJson(MustParseJson("{\"query\":\"\"}")).ok());
  EXPECT_FALSE(SearchRequestFromJson(MustParseJson("[1,2]")).ok());
  EXPECT_FALSE(
      SearchRequestFromJson(MustParseJson("{\"query\":\"q\",\"k\":0}")).ok());
  EXPECT_FALSE(
      SearchRequestFromJson(MustParseJson("{\"query\":\"q\",\"k\":-3}")).ok());
  // A k past the integer range is refused, not cast (undefined behaviour).
  for (const std::string k : {"1e300", "18446744073709551616"}) {
    const Result<baselines::SearchRequest> r = SearchRequestFromJson(
        MustParseJson("{\"query\":\"q\",\"k\":" + k + "}"));
    EXPECT_TRUE(r.status().IsInvalidArgument()) << k;
    EXPECT_NE(r.status().message().find("exceeds"), std::string::npos)
        << r.status().ToString();
  }
  EXPECT_FALSE(SearchRequestFromJson(
                   MustParseJson("{\"query\":\"q\",\"kk\":10}"))
                   .ok());  // typo'd field fails loudly
  EXPECT_FALSE(SearchRequestFromJson(
                   MustParseJson("{\"query\":\"q\",\"deadline_seconds\":0}"))
                   .ok());
  EXPECT_FALSE(SearchRequestFromJson(
                   MustParseJson("{\"query\":\"q\",\"explain\":\"yes\"}"))
                   .ok());
}

TEST(ApiJsonTest, SearchRequestDecodesGroupedRankingAndFilter) {
  const Result<baselines::SearchRequest> r = SearchRequestFromJson(
      MustParseJson("{\"query\":\"berlin\",\"k\":3,"
                    "\"ranking\":{\"beta\":0.4,\"exhaustive\":true,"
                    "\"recency_half_life_s\":7200},"
                    "\"filter\":{\"time_range\":"
                    "{\"after_ms\":1000,\"before_ms\":2000}}}"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->beta.has_value());
  EXPECT_DOUBLE_EQ(*r->beta, 0.4);
  EXPECT_TRUE(r->exhaustive_fusion);
  ASSERT_TRUE(r->recency_half_life_seconds.has_value());
  EXPECT_DOUBLE_EQ(*r->recency_half_life_seconds, 7200.0);
  ASSERT_TRUE(r->time_range.has_value());
  EXPECT_EQ(r->time_range->after_ms, 1000);
  EXPECT_EQ(r->time_range->before_ms, 2000);

  // Either window bound may be omitted: absence means unbounded.
  const Result<baselines::SearchRequest> open = SearchRequestFromJson(
      MustParseJson("{\"query\":\"q\",\"filter\":"
                    "{\"time_range\":{\"after_ms\":5}}}"));
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(open->time_range.has_value());
  EXPECT_EQ(open->time_range->after_ms, 5);
  EXPECT_EQ(open->time_range->before_ms,
            std::numeric_limits<int64_t>::max());
}

TEST(ApiJsonTest, SearchRequestRejectsMixedLegacyAndGroupedShapes) {
  // The pre-grouping flat ranking fields are gone: alone or mixed with the
  // grouped object, each is an unknown field (400) named in the message.
  for (const char* flat :
       {"\"beta\":0.5", "\"rerank_depth\":25", "\"exhaustive_fusion\":true"}) {
    for (const std::string& body :
         {std::string("{\"query\":\"q\",") + flat + "}",
          std::string("{\"query\":\"q\",") + flat +
              ",\"ranking\":{\"beta\":0.5}}"}) {
      const Result<baselines::SearchRequest> r =
          SearchRequestFromJson(MustParseJson(body));
      ASSERT_FALSE(r.ok()) << body;
      EXPECT_TRUE(r.status().IsInvalidArgument());
      EXPECT_NE(r.status().ToString().find("unknown search request field"),
                std::string::npos)
          << r.status().ToString();
    }
  }
}

TEST(ApiJsonTest, RankingRejectsRerankDepth) {
  // The per-side candidate depth is no longer a knob: the query pipeline
  // deepens each shard until the fused top k is exact, so a request that
  // still sets it is an unknown ranking field (400).
  const Result<baselines::SearchRequest> r = SearchRequestFromJson(
      MustParseJson("{\"query\":\"q\",\"ranking\":"
                    "{\"beta\":0.5,\"rerank_depth\":25}}"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().ToString().find("unknown ranking field: "
                                       "\"rerank_depth\""),
            std::string::npos)
      << r.status().ToString();
}

TEST(ApiJsonTest, TimeRangeValidation) {
  auto parse_range = [](const std::string& range_json) {
    return SearchRequestFromJson(MustParseJson(
        "{\"query\":\"q\",\"filter\":{\"time_range\":" + range_json + "}}"));
  };
  // Degenerate or inverted windows are rejected: the window is half-open,
  // so after_ms == before_ms can never match anything.
  EXPECT_FALSE(parse_range("{\"after_ms\":5,\"before_ms\":5}").ok());
  EXPECT_FALSE(parse_range("{\"after_ms\":9,\"before_ms\":5}").ok());
  // Values JSON doubles cannot carry exactly (> 2^53) are rejected.
  EXPECT_FALSE(parse_range("{\"after_ms\":9007199254740994}").ok());
  EXPECT_FALSE(parse_range("{\"after_ms\":-1}").ok());
  EXPECT_FALSE(parse_range("{\"after_ms\":1.5}").ok());
  EXPECT_FALSE(parse_range("{\"after\":1}").ok());  // unknown field
  EXPECT_FALSE(parse_range("[]").ok());
  // Unknown filter members fail loudly too.
  EXPECT_FALSE(SearchRequestFromJson(
                   MustParseJson("{\"query\":\"q\",\"filter\":{\"tr\":{}}}"))
                   .ok());
  // recency_half_life_s must be non-negative.
  EXPECT_FALSE(SearchRequestFromJson(
                   MustParseJson("{\"query\":\"q\",\"ranking\":"
                                 "{\"recency_half_life_s\":-1}}"))
                   .ok());
}

TEST(ApiJsonTest, DocumentDecodesAndRejects) {
  const Result<corpus::Document> doc = DocumentFromJson(MustParseJson(
      "{\"id\":\"d1\",\"title\":\"T\",\"text\":\"body\",\"story_id\":7}"));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->id, "d1");
  EXPECT_EQ(doc->title, "T");
  EXPECT_EQ(doc->text, "body");
  EXPECT_EQ(doc->story_id, 7u);

  EXPECT_FALSE(DocumentFromJson(MustParseJson("{\"id\":\"d\"}")).ok());
  EXPECT_FALSE(DocumentFromJson(MustParseJson("{\"text\":\"\"}")).ok());
  EXPECT_FALSE(
      DocumentFromJson(MustParseJson("{\"text\":\"x\",\"extra\":1}")).ok());
}

TEST(ApiJsonTest, DocumentCarriesTimestamp) {
  const Result<corpus::Document> doc = DocumentFromJson(MustParseJson(
      "{\"text\":\"body\",\"timestamp_ms\":1700000000000}"));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->timestamp_ms, 1700000000000);

  // Absent timestamp decodes as 0 ("unknown"), never an error.
  const Result<corpus::Document> bare =
      DocumentFromJson(MustParseJson("{\"text\":\"body\"}"));
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->timestamp_ms, 0);

  EXPECT_FALSE(DocumentFromJson(
                   MustParseJson("{\"text\":\"x\",\"timestamp_ms\":-1}"))
                   .ok());
  EXPECT_FALSE(DocumentFromJson(
                   MustParseJson("{\"text\":\"x\",\"timestamp_ms\":1.25}"))
                   .ok());
}

TEST(ApiJsonTest, SearchResponseEncodesHitsAndTimings) {
  baselines::SearchResponse response;
  response.epoch = 4;
  response.snapshot_docs = 100;
  baselines::SearchHit hit;
  hit.doc_index = 13;
  hit.score = 0.75;
  response.hits.push_back(hit);

  corpus::Corpus corpus;
  for (int i = 0; i < 14; ++i) {
    corpus::Document d;
    d.id = "doc-" + std::to_string(i);
    d.title = "Title " + std::to_string(i);
    d.text = "text";
    corpus.Add(d);
  }

  const json::Value v = SearchResponseToJson(response, &corpus, nullptr);
  const json::Value* hits = v.Find("hits");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ(hits->at(0).Find("doc_index")->AsUint(), 13u);
  EXPECT_DOUBLE_EQ(hits->at(0).Find("score")->AsDouble(), 0.75);
  EXPECT_EQ(hits->at(0).Find("doc_id")->AsString(), "doc-13");
  EXPECT_EQ(hits->at(0).Find("title")->AsString(), "Title 13");
  EXPECT_EQ(v.Find("epoch")->AsUint(), 4u);
  EXPECT_EQ(v.Find("snapshot_docs")->AsUint(), 100u);
  EXPECT_EQ(v.Find("deadline_exceeded"), nullptr);  // only when true
  // The document must parse back from its own wire form.
  EXPECT_TRUE(json::Parse(v.Dump()).ok());

  // Without a corpus, hits still carry index + score.
  const json::Value bare = SearchResponseToJson(response, nullptr, nullptr);
  EXPECT_EQ(bare.Find("hits")->at(0).Find("doc_index")->AsUint(), 13u);
  EXPECT_EQ(bare.Find("hits")->at(0).Find("doc_id"), nullptr);
}

}  // namespace
}  // namespace net
}  // namespace newslink
