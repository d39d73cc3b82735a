// JSON codecs for the /v1 wire protocol (DESIGN.md Sec. 10): strict
// request decoding (unknown fields are InvalidArgument, so client typos
// fail loudly instead of silently running a default query) and response
// encoding shared by the server and any in-process caller that wants the
// wire representation.
//
// The /v1 envelope (DESIGN.md Sec. 13): every public request codec —
// search, documents, explore — accepts an OPTIONAL "api_version" field.
// Absent means "whatever the server speaks" (so pre-envelope clients keep
// working bit-for-bit); present-but-mismatched decodes to
// FailedPrecondition (HTTP 409), the same handshake the shard RPC has
// always enforced. Every error, on every route, is rendered by
// status_http's single {"error": {code, status, message}} shape, and every
// route funnels its body through DecodeEnvelope instead of growing its own
// parse/validate boilerplate.

// The shard RPC surface (DESIGN.md Sec. 12) also lives here: versioned
// /v1/shard/plan + /v1/shard/search codecs for coordinator↔shard traffic.
// Every shard message carries `api_version`; a missing or mismatched
// version decodes to FailedPrecondition (HTTP 409), so incompatible peers
// fail loudly instead of drifting. Scores travel as JSON numbers, which
// common/json round-trips bit-exactly (shortest-round-trip rendering), so
// the distributed merge stays bit-identical to the in-process one.

#ifndef NEWSLINK_NET_API_JSON_H_
#define NEWSLINK_NET_API_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/search_engine.h"
#include "common/json.h"
#include "common/result.h"
#include "corpus/corpus.h"
#include "kg/knowledge_graph.h"
#include "newslink/explore_engine.h"
#include "newslink/shard_api.h"

namespace newslink {
namespace net {

/// Version of the public /v1 envelope. Clients may stamp requests with
/// "api_version": a mismatch is FailedPrecondition (409); omission is
/// always accepted (additive versioning — old clients never break).
inline constexpr uint64_t kApiVersion = 1;

/// Parse a /v1 request body: the shared front door of every route. Returns
/// the parsed JSON when the body is an object or an array (the only two
/// shapes any /v1 request takes); malformed JSON and scalar bodies are
/// InvalidArgument. Version and field validation stay in the per-route
/// codecs, which all understand "api_version".
Result<json::Value> DecodeEnvelope(std::string_view body);

/// Decode one search request object. The current shape groups the ranking
/// knobs and the result filters (DESIGN.md Sec. 15):
///   {"query": "...", "k": 10,
///    "ranking": {"beta": 0.6, "exhaustive": false,
///                "recency_half_life_s": 86400},
///    "filter": {"time_range": {"after_ms": 0, "before_ms": 0}},
///    "explain": true, "max_paths": 5, "trace": false,
///    "deadline_seconds": 0.2, "api_version": 1}
/// Only "query" is required; everything else falls back to the engine's
/// defaults. "time_range" is half-open [after_ms, before_ms): inclusive
/// after, exclusive before; either bound may be omitted. Unknown fields
/// and wrong types are InvalidArgument; so are the pre-grouping flat
/// ranking fields, removed after their one deprecated version, and the
/// per-side candidate depth the "ranking" object once took (the query
/// pipeline works out each shard's depth itself).
Result<baselines::SearchRequest> SearchRequestFromJson(
    const json::Value& value);

/// \brief A decoded /v1/search body: one request, or a batch of them.
struct SearchEnvelope {
  bool batched = false;
  std::vector<baselines::SearchRequest> requests;
};

/// Decode a full /v1/search body — a single request object or an array of
/// them (batch), shared by the single-engine service and the coordinator.
/// Empty batches and batches over `max_batch` are InvalidArgument;
/// per-element failures propagate the element's status.
Result<SearchEnvelope> DecodeSearchEnvelope(std::string_view body,
                                            size_t max_batch);

/// Encode a response; hits carry doc identity from `corpus` and, when the
/// engine attached explanation paths, their rendered arrow notation from
/// `graph` (both may be null: hits then carry indices/scores only).
///   {"hits": [{"doc_index", "score", "doc_id", "title", "paths": [...]}],
///    "epoch", "snapshot_docs", "deadline_exceeded"?, "shards_total"?,
///    "shards_answered"?, "degraded"?, "timings": {...}, "trace"?: {...}}
/// (the shard block when shards_total > 0: every NewsLink composition).
json::Value SearchResponseToJson(const baselines::SearchResponse& response,
                                 const corpus::Corpus* corpus,
                                 const kg::KnowledgeGraph* graph);

/// Decode one document for live ingestion:
///   {"id": "...", "title": "...", "text": "...", "story_id": 0,
///    "timestamp_ms": 1700000000000, "api_version": 1}
/// "text" is required and must be non-empty; "id" defaults to a
/// server-assigned value when empty/absent; "timestamp_ms" (publication
/// time, epoch ms) defaults to the server's ingestion wall clock when
/// absent or 0; unknown fields are InvalidArgument.
Result<corpus::Document> DocumentFromJson(const json::Value& value);

/// Span tree as a json::Value (mirrors TraceSpan::ToJson's shape:
/// {"name", "start_ms", "dur_ms", "notes"?, "children"?}).
json::Value TraceSpanToJson(const TraceSpan& span);

// --- Explore (roll-up / drill-down; DESIGN.md Sec. 13) -------------------

/// \brief POST /v1/explore body. Exactly one mode:
///   start:      {"query": "...", "k"?: 50, "beta"?: 0.6,
///                "filter"?: {"time_range": {...}},
///                "deadline_seconds"?: 0.2}
///   drill-down: {"session": "x1", "drill": <node id>}
///   roll-up:    {"session": "x1", "up": true}
///   refresh:    {"session": "x1"}
/// plus the optional "api_version" every /v1 codec takes. "drill" and
/// "up" require "session" and exclude each other and "query". The start
/// mode's "filter" mirrors /v1/search: the whole session explores the
/// time-windowed result set.
struct ExploreRpcRequest {
  std::string query;  // non-empty = start a session
  size_t k = 0;       // 0 = the explore engine's configured default
  std::optional<double> beta;
  std::optional<double> deadline_seconds;
  std::optional<baselines::TimeRange> time_range;

  std::string session;  // non-empty = navigate an existing session
  bool has_drill = false;
  kg::NodeId drill = kg::kInvalidNode;
  bool up = false;
};

Result<ExploreRpcRequest> ExploreRequestFromJson(const json::Value& value);

/// Encode one exploration view:
///   {"session", "epoch", "snapshot_docs", "total_hits",
///    "scope": [{"node", "label"?}, ...],
///    "buckets": [{"entity", "label"?, "entity_type"?, "doc_count",
///                 "score_mass", "top_docs": [{"doc_index", "score",
///                 "doc_id"?, "title"?}, ...]}  |  {"other": true, ...}],
///    "deadline_exceeded"?: true}
/// `corpus` / `graph` may be null (indices only, as with search). The sum
/// of doc_count over buckets — "other" included — equals total_hits.
json::Value ExploreResultToJson(const ExploreResult& result,
                                const corpus::Corpus* corpus,
                                const kg::KnowledgeGraph* graph);

// --- Shard RPC (versioned; newslink::kShardApiVersion) ------------------
//
// The messages are the engine's own structs (shard_api.h), each with an
// "api_version" beside its fields:
//   POST /v1/shard/plan     request  {"query": ShardQuery}
//                           200 body {"epoch", "stats": ShardStats}
//   POST /v1/shard/search   request  {"expected_epoch", "query": ShardQuery,
//                                     "global": ShardStats}
//                           200 body ShardSearchResult's fields
// `expected_epoch` echoes the plan's epoch; a shard whose published epoch
// moved answers FailedPrecondition (409) so the coordinator re-plans
// instead of mixing epochs.
//
// Encoders always stamp api_version = kShardApiVersion. Decoders reject a
// missing/mismatched api_version with FailedPrecondition and any unknown
// field with InvalidArgument (same strictness as the public /v1 codecs),
// as they do statistics that are not positional with the query's terms
// (a plan response is decoded against the query it answers).
json::Value ShardPlanRequestToJson(const ShardQuery& query);
Result<ShardQuery> ShardPlanRequestFromJson(const json::Value& value);
json::Value ShardPlanResponseToJson(const ShardPlan& plan);
Result<ShardPlan> ShardPlanResponseFromJson(const json::Value& value,
                                            const ShardQuery& query);
json::Value ShardSearchRequestToJson(uint64_t expected_epoch,
                                     const ShardQuery& query,
                                     const ShardStats& global);
Status ShardSearchRequestFromJson(const json::Value& value,
                                  uint64_t* expected_epoch, ShardQuery* query,
                                  ShardStats* global);
json::Value ShardSearchResponseToJson(const ShardSearchResult& result);
Result<ShardSearchResult> ShardSearchResponseFromJson(
    const json::Value& value);

}  // namespace net
}  // namespace newslink

#endif  // NEWSLINK_NET_API_JSON_H_
