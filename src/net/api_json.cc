#include "net/api_json.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/string_util.h"

namespace newslink {
namespace net {

namespace {

/// Field must be a number >= 0 that is exactly an integer within size_t
/// (casting a larger double is undefined behaviour).
Result<size_t> AsSize(const json::Value& v, std::string_view field) {
  if (v.type() != json::Value::Type::kNumber) {
    return Status::InvalidArgument(StrCat("\"", field, "\" must be a number"));
  }
  const double d = v.AsDouble();
  if (!(d >= 0) || d != std::floor(d)) {
    return Status::InvalidArgument(
        StrCat("\"", field, "\" must be a non-negative integer"));
  }
  if (d >= static_cast<double>(std::numeric_limits<size_t>::max())) {
    return Status::InvalidArgument(
        StrCat("\"", field, "\" exceeds the integer range"));
  }
  return static_cast<size_t>(d);
}

Result<bool> AsBoolStrict(const json::Value& v, std::string_view field) {
  if (v.type() != json::Value::Type::kBool) {
    return Status::InvalidArgument(StrCat("\"", field, "\" must be a boolean"));
  }
  return v.AsBool();
}

Result<std::string> AsStringStrict(const json::Value& v,
                                   std::string_view field) {
  if (v.type() != json::Value::Type::kString) {
    return Status::InvalidArgument(StrCat("\"", field, "\" must be a string"));
  }
  return v.AsString();
}

/// The optional public-envelope version stamp: additive versioning —
/// absence is always accepted, a mismatch is FailedPrecondition (409),
/// mirroring the shard RPC handshake.
Status CheckEnvelopeVersion(const json::Value& field) {
  NL_ASSIGN_OR_RETURN(const size_t version, AsSize(field, "api_version"));
  if (static_cast<uint64_t>(version) != kApiVersion) {
    return Status::FailedPrecondition(
        StrCat("api_version mismatch: client speaks ", version,
               ", this server speaks ", kApiVersion));
  }
  return Status::OK();
}

/// Epoch-milliseconds wire value: a non-negative integer that JSON's
/// double numbers carry exactly (at most 2^53 — five orders of magnitude
/// past any real publication time).
Result<int64_t> AsEpochMs(const json::Value& v, std::string_view field) {
  if (v.type() != json::Value::Type::kNumber) {
    return Status::InvalidArgument(StrCat("\"", field, "\" must be a number"));
  }
  const double d = v.AsDouble();
  if (!(d >= 0) || d != std::floor(d) || d > 9007199254740992.0) {
    return Status::InvalidArgument(
        StrCat("\"", field,
               "\" must be a non-negative integer epoch-milliseconds value "
               "(at most 2^53)"));
  }
  return static_cast<int64_t>(d);
}

/// {"after_ms"?: int, "before_ms"?: int} — half-open [after, before);
/// either bound may be omitted (0 / unbounded).
Result<baselines::TimeRange> TimeRangeFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("\"time_range\" must be a JSON object");
  }
  baselines::TimeRange range;
  for (const auto& [key, field] : value.members()) {
    if (key == "after_ms") {
      NL_ASSIGN_OR_RETURN(range.after_ms, AsEpochMs(field, key));
    } else if (key == "before_ms") {
      NL_ASSIGN_OR_RETURN(range.before_ms, AsEpochMs(field, key));
    } else {
      return Status::InvalidArgument(
          StrCat("unknown time_range field: \"", key, "\""));
    }
  }
  if (range.after_ms >= range.before_ms) {
    return Status::InvalidArgument(
        "\"time_range\" must satisfy after_ms < before_ms (the window is "
        "half-open [after_ms, before_ms))");
  }
  return range;
}

/// The grouped "ranking" object of the current request shape.
Status RankingFromJson(const json::Value& value,
                       baselines::SearchRequest* request) {
  if (!value.is_object()) {
    return Status::InvalidArgument("\"ranking\" must be a JSON object");
  }
  for (const auto& [key, field] : value.members()) {
    if (key == "beta") {
      if (field.type() != json::Value::Type::kNumber) {
        return Status::InvalidArgument("\"ranking.beta\" must be a number");
      }
      request->beta = field.AsDouble();
    } else if (key == "exhaustive") {
      NL_ASSIGN_OR_RETURN(const bool flag, AsBoolStrict(field, key));
      request->exhaustive_fusion = flag;
    } else if (key == "recency_half_life_s") {
      if (field.type() != json::Value::Type::kNumber ||
          !(field.AsDouble() >= 0)) {
        return Status::InvalidArgument(
            "\"ranking.recency_half_life_s\" must be a non-negative number");
      }
      request->recency_half_life_seconds = field.AsDouble();
    } else {
      return Status::InvalidArgument(
          StrCat("unknown ranking field: \"", key, "\""));
    }
  }
  return Status::OK();
}

/// The "filter" object (currently just "time_range").
Status FilterFromJson(const json::Value& value,
                      std::optional<baselines::TimeRange>* time_range) {
  if (!value.is_object()) {
    return Status::InvalidArgument("\"filter\" must be a JSON object");
  }
  for (const auto& [key, field] : value.members()) {
    if (key == "time_range") {
      NL_ASSIGN_OR_RETURN(const baselines::TimeRange range,
                          TimeRangeFromJson(field));
      *time_range = range;
    } else {
      return Status::InvalidArgument(
          StrCat("unknown filter field: \"", key, "\""));
    }
  }
  return Status::OK();
}

}  // namespace

Result<json::Value> DecodeEnvelope(std::string_view body) {
  NL_ASSIGN_OR_RETURN(json::Value value, json::Parse(body));
  if (!value.is_object() && !value.is_array()) {
    return Status::InvalidArgument(
        "request body must be a JSON object or array");
  }
  return value;
}

Result<SearchEnvelope> DecodeSearchEnvelope(std::string_view body,
                                            size_t max_batch) {
  NL_ASSIGN_OR_RETURN(const json::Value value, DecodeEnvelope(body));
  SearchEnvelope envelope;
  envelope.batched = value.is_array();
  if (envelope.batched) {
    if (value.size() == 0) {
      return Status::InvalidArgument(
          "batch must contain at least one request");
    }
    if (value.size() > max_batch) {
      return Status::InvalidArgument(StrCat(
          "batch of ", value.size(), " exceeds limit of ", max_batch));
    }
    envelope.requests.reserve(value.size());
    for (const json::Value& item : value.items()) {
      NL_ASSIGN_OR_RETURN(baselines::SearchRequest request,
                          SearchRequestFromJson(item));
      envelope.requests.push_back(std::move(request));
    }
  } else {
    NL_ASSIGN_OR_RETURN(baselines::SearchRequest request,
                        SearchRequestFromJson(value));
    envelope.requests.push_back(std::move(request));
  }
  return envelope;
}

Result<baselines::SearchRequest> SearchRequestFromJson(
    const json::Value& value) {
  if (value.type() != json::Value::Type::kObject) {
    return Status::InvalidArgument("search request must be a JSON object");
  }
  baselines::SearchRequest request;
  bool have_query = false;
  for (const auto& [key, field] : value.members()) {
    if (key == "query") {
      NL_ASSIGN_OR_RETURN(request.query, AsStringStrict(field, key));
      have_query = true;
    } else if (key == "k") {
      NL_ASSIGN_OR_RETURN(request.k, AsSize(field, key));
    } else if (key == "ranking") {
      NL_RETURN_IF_ERROR(RankingFromJson(field, &request));
    } else if (key == "filter") {
      NL_RETURN_IF_ERROR(FilterFromJson(field, &request.time_range));
    } else if (key == "explain") {
      NL_ASSIGN_OR_RETURN(request.explain, AsBoolStrict(field, key));
    } else if (key == "max_paths") {
      NL_ASSIGN_OR_RETURN(request.max_paths_per_result, AsSize(field, key));
    } else if (key == "trace") {
      NL_ASSIGN_OR_RETURN(request.trace, AsBoolStrict(field, key));
    } else if (key == "deadline_seconds") {
      if (field.type() != json::Value::Type::kNumber ||
          !(field.AsDouble() > 0)) {
        return Status::InvalidArgument(
            "\"deadline_seconds\" must be a positive number");
      }
      request.deadline_seconds = field.AsDouble();
    } else if (key == "api_version") {
      NL_RETURN_IF_ERROR(CheckEnvelopeVersion(field));
    } else {
      return Status::InvalidArgument(
          StrCat("unknown search request field: \"", key, "\""));
    }
  }
  if (!have_query || request.query.empty()) {
    return Status::InvalidArgument("\"query\" is required and must be non-empty");
  }
  if (request.k == 0) {
    return Status::InvalidArgument("\"k\" must be at least 1");
  }
  return request;
}

json::Value TraceSpanToJson(const TraceSpan& span) {
  json::Value out = json::Value::Object();
  out.Set("name", json::Value::Str(span.name));
  out.Set("start_ms", json::Value::Number(span.start_seconds * 1e3));
  out.Set("dur_ms", json::Value::Number(span.duration_seconds * 1e3));
  if (!span.notes.empty()) {
    json::Value notes = json::Value::Object();
    for (const auto& [key, note] : span.notes) {
      notes.Set(key, json::Value::Str(note));
    }
    out.Set("notes", std::move(notes));
  }
  if (!span.children.empty()) {
    json::Value children = json::Value::Array();
    for (const TraceSpan& child : span.children) {
      children.Append(TraceSpanToJson(child));
    }
    out.Set("children", std::move(children));
  }
  return out;
}

json::Value SearchResponseToJson(const baselines::SearchResponse& response,
                                 const corpus::Corpus* corpus,
                                 const kg::KnowledgeGraph* graph) {
  json::Value out = json::Value::Object();
  json::Value hits = json::Value::Array();
  for (const baselines::SearchHit& hit : response.hits) {
    json::Value h = json::Value::Object();
    h.Set("doc_index", json::Value::Uint(hit.doc_index));
    h.Set("score", json::Value::Number(hit.score));
    if (corpus != nullptr && hit.doc_index < corpus->size()) {
      const corpus::Document& doc = corpus->doc(hit.doc_index);
      h.Set("doc_id", json::Value::Str(doc.id));
      h.Set("title", json::Value::Str(doc.title));
    }
    if (!hit.paths.empty()) {
      json::Value paths = json::Value::Array();
      for (const embed::RelationshipPath& path : hit.paths) {
        json::Value p = json::Value::Object();
        p.Set("length", json::Value::Uint(path.length()));
        if (graph != nullptr) {
          p.Set("rendered", json::Value::Str(path.Render(*graph)));
        }
        paths.Append(std::move(p));
      }
      h.Set("paths", std::move(paths));
    }
    hits.Append(std::move(h));
  }
  out.Set("hits", std::move(hits));
  out.Set("epoch", json::Value::Uint(response.epoch));
  out.Set("snapshot_docs", json::Value::Uint(response.snapshot_docs));
  if (response.deadline_exceeded) {
    out.Set("deadline_exceeded", json::Value::Bool(true));
  }
  // Scatter-gather block: emitted for every engine that scatters (every
  // NewsLink composition; a single engine reports one shard).
  if (response.shards_total > 0) {
    out.Set("shards_total", json::Value::Uint(response.shards_total));
    out.Set("shards_answered", json::Value::Uint(response.shards_answered));
    out.Set("degraded", json::Value::Bool(response.degraded));
  }
  json::Value timings = json::Value::Object();
  for (const auto& [bucket, seconds] : response.timings.buckets()) {
    timings.Set(StrCat(bucket, "_ms"), json::Value::Number(seconds * 1e3));
  }
  out.Set("timings", std::move(timings));
  if (!response.trace.empty()) {
    out.Set("trace", TraceSpanToJson(response.trace));
  }
  return out;
}

Result<corpus::Document> DocumentFromJson(const json::Value& value) {
  if (value.type() != json::Value::Type::kObject) {
    return Status::InvalidArgument("document must be a JSON object");
  }
  corpus::Document doc;
  for (const auto& [key, field] : value.members()) {
    if (key == "id") {
      NL_ASSIGN_OR_RETURN(doc.id, AsStringStrict(field, key));
    } else if (key == "title") {
      NL_ASSIGN_OR_RETURN(doc.title, AsStringStrict(field, key));
    } else if (key == "text") {
      NL_ASSIGN_OR_RETURN(doc.text, AsStringStrict(field, key));
    } else if (key == "story_id") {
      NL_ASSIGN_OR_RETURN(size_t story, AsSize(field, key));
      doc.story_id = static_cast<uint32_t>(story);
    } else if (key == "timestamp_ms") {
      NL_ASSIGN_OR_RETURN(doc.timestamp_ms, AsEpochMs(field, key));
    } else if (key == "api_version") {
      NL_RETURN_IF_ERROR(CheckEnvelopeVersion(field));
    } else {
      return Status::InvalidArgument(
          StrCat("unknown document field: \"", key, "\""));
    }
  }
  if (doc.text.empty()) {
    return Status::InvalidArgument("\"text\" is required and must be non-empty");
  }
  return doc;
}

// --- Explore codecs (DESIGN.md Sec. 13) ---------------------------------

Result<ExploreRpcRequest> ExploreRequestFromJson(const json::Value& value) {
  if (value.type() != json::Value::Type::kObject) {
    return Status::InvalidArgument("explore request must be a JSON object");
  }
  ExploreRpcRequest request;
  for (const auto& [key, field] : value.members()) {
    if (key == "query") {
      NL_ASSIGN_OR_RETURN(request.query, AsStringStrict(field, key));
    } else if (key == "k") {
      NL_ASSIGN_OR_RETURN(request.k, AsSize(field, key));
    } else if (key == "beta") {
      if (field.type() != json::Value::Type::kNumber) {
        return Status::InvalidArgument("\"beta\" must be a number");
      }
      request.beta = field.AsDouble();
    } else if (key == "deadline_seconds") {
      if (field.type() != json::Value::Type::kNumber ||
          !(field.AsDouble() > 0)) {
        return Status::InvalidArgument(
            "\"deadline_seconds\" must be a positive number");
      }
      request.deadline_seconds = field.AsDouble();
    } else if (key == "filter") {
      NL_RETURN_IF_ERROR(FilterFromJson(field, &request.time_range));
    } else if (key == "session") {
      NL_ASSIGN_OR_RETURN(request.session, AsStringStrict(field, key));
    } else if (key == "drill") {
      NL_ASSIGN_OR_RETURN(const size_t node, AsSize(field, key));
      if (node >= kg::kInvalidNode) {
        return Status::InvalidArgument("\"drill\" is not a valid node id");
      }
      request.drill = static_cast<kg::NodeId>(node);
      request.has_drill = true;
    } else if (key == "up") {
      NL_ASSIGN_OR_RETURN(request.up, AsBoolStrict(field, key));
    } else if (key == "api_version") {
      NL_RETURN_IF_ERROR(CheckEnvelopeVersion(field));
    } else {
      return Status::InvalidArgument(
          StrCat("unknown explore request field: \"", key, "\""));
    }
  }
  const bool starts = !request.query.empty();
  const bool navigates = !request.session.empty();
  if (starts == navigates) {
    return Status::InvalidArgument(
        "explore request needs exactly one of \"query\" or \"session\"");
  }
  if ((request.has_drill || request.up) && !navigates) {
    return Status::InvalidArgument(
        "\"drill\" and \"up\" require a \"session\"");
  }
  if (request.has_drill && request.up) {
    return Status::InvalidArgument(
        "\"drill\" and \"up\" are mutually exclusive");
  }
  return request;
}

json::Value ExploreResultToJson(const ExploreResult& result,
                                const corpus::Corpus* corpus,
                                const kg::KnowledgeGraph* graph) {
  json::Value out = json::Value::Object();
  out.Set("session", json::Value::Str(result.session_id));
  out.Set("epoch", json::Value::Uint(result.epoch));
  out.Set("snapshot_docs", json::Value::Uint(result.snapshot_docs));
  out.Set("total_hits", json::Value::Uint(result.total_hits));
  json::Value scope = json::Value::Array();
  for (const kg::NodeId node : result.scope) {
    json::Value s = json::Value::Object();
    s.Set("node", json::Value::Uint(node));
    if (graph != nullptr && node < graph->num_nodes()) {
      s.Set("label", json::Value::Str(graph->label(node)));
    }
    scope.Append(std::move(s));
  }
  out.Set("scope", std::move(scope));
  json::Value buckets = json::Value::Array();
  for (const ExploreBucket& bucket : result.buckets) {
    json::Value b = json::Value::Object();
    if (bucket.other()) {
      b.Set("other", json::Value::Bool(true));
    } else {
      b.Set("entity", json::Value::Uint(bucket.node));
      if (graph != nullptr && bucket.node < graph->num_nodes()) {
        b.Set("label", json::Value::Str(graph->label(bucket.node)));
        b.Set("entity_type", json::Value::Str(kg::EntityTypeName(
                                 graph->type(bucket.node))));
      }
    }
    b.Set("doc_count", json::Value::Uint(bucket.doc_count));
    b.Set("score_mass", json::Value::Number(bucket.score_mass));
    json::Value top = json::Value::Array();
    for (const ExploreHit& hit : bucket.top_hits) {
      json::Value h = json::Value::Object();
      h.Set("doc_index", json::Value::Uint(hit.doc_index));
      h.Set("score", json::Value::Number(hit.score));
      if (corpus != nullptr && hit.doc_index < corpus->size()) {
        const corpus::Document& doc = corpus->doc(hit.doc_index);
        h.Set("doc_id", json::Value::Str(doc.id));
        h.Set("title", json::Value::Str(doc.title));
      }
      top.Append(std::move(h));
    }
    b.Set("top_docs", std::move(top));
    buckets.Append(std::move(b));
  }
  out.Set("buckets", std::move(buckets));
  if (result.deadline_exceeded) {
    out.Set("deadline_exceeded", json::Value::Bool(true));
  }
  return out;
}

// --- Shard RPC codecs (versioned) ---------------------------------------

namespace {

/// Field must be a number that is exactly a non-negative integer (u64).
Result<uint64_t> AsU64(const json::Value& v, std::string_view field) {
  NL_ASSIGN_OR_RETURN(const size_t u, AsSize(v, field));
  return static_cast<uint64_t>(u);
}

/// Field must be a non-negative integer that fits in 32 bits.
Result<uint32_t> AsU32(const json::Value& v, std::string_view field) {
  NL_ASSIGN_OR_RETURN(const uint64_t u, AsU64(v, field));
  if (u > UINT32_MAX) {
    return Status::InvalidArgument(StrCat("\"", field, "\" exceeds 32 bits"));
  }
  return static_cast<uint32_t>(u);
}

Result<double> AsNumberStrict(const json::Value& v, std::string_view field) {
  if (v.type() != json::Value::Type::kNumber) {
    return Status::InvalidArgument(StrCat("\"", field, "\" must be a number"));
  }
  return v.AsDouble();
}

json::Value U64VectorToJson(const std::vector<uint64_t>& values) {
  json::Value out = json::Value::Array();
  for (const uint64_t v : values) out.Append(json::Value::Uint(v));
  return out;
}

json::Value U32VectorToJson(const std::vector<uint32_t>& values) {
  json::Value out = json::Value::Array();
  for (const uint32_t v : values) out.Append(json::Value::Uint(v));
  return out;
}

Result<std::vector<uint64_t>> U64VectorFromJson(const json::Value& v,
                                                std::string_view field) {
  if (!v.is_array()) {
    return Status::InvalidArgument(StrCat("\"", field, "\" must be an array"));
  }
  std::vector<uint64_t> out;
  out.reserve(v.size());
  for (const json::Value& item : v.items()) {
    NL_ASSIGN_OR_RETURN(const uint64_t value, AsU64(item, field));
    out.push_back(value);
  }
  return out;
}

Result<std::vector<uint32_t>> U32VectorFromJson(const json::Value& v,
                                                std::string_view field) {
  NL_ASSIGN_OR_RETURN(const std::vector<uint64_t> wide,
                      U64VectorFromJson(v, field));
  std::vector<uint32_t> out;
  out.reserve(wide.size());
  for (const uint64_t value : wide) {
    if (value > UINT32_MAX) {
      return Status::InvalidArgument(
          StrCat("\"", field, "\" entry exceeds 32 bits"));
    }
    out.push_back(static_cast<uint32_t>(value));
  }
  return out;
}

/// The version handshake: every shard message carries api_version, and
/// both sides reject a peer speaking another version with
/// FailedPrecondition — mapped to HTTP 409 — so rolling upgrades fail
/// loudly at the first RPC instead of silently merging wrong numbers.
/// Checked before any other field, so a peer of another version is
/// refused as one whatever fields its version sends.
Status CheckApiVersion(const json::Value& message, std::string_view what) {
  if (!message.is_object()) {
    return Status::InvalidArgument(StrCat(what, " must be a JSON object"));
  }
  // The last one, as with every other field of a message.
  const json::Value* field = nullptr;
  for (const auto& [key, value] : message.members()) {
    if (key == "api_version") field = &value;
  }
  if (field == nullptr) {
    return Status::FailedPrecondition(
        "shard message carries no api_version (peer predates the "
        "versioned shard RPC)");
  }
  NL_ASSIGN_OR_RETURN(const uint64_t version, AsU64(*field, "api_version"));
  if (version != kShardApiVersion) {
    return Status::FailedPrecondition(
        StrCat("shard api_version mismatch: peer speaks ", version,
               ", this binary speaks ", kShardApiVersion));
  }
  return Status::OK();
}

json::Value ShardQueryToJson(const ShardQuery& query) {
  json::Value out = json::Value::Object();
  json::Value stems = json::Value::Array();
  for (const auto& [stem, qtf] : query.text_stems) {
    json::Value pair = json::Value::Array();
    pair.Append(json::Value::Str(stem));
    pair.Append(json::Value::Uint(qtf));
    stems.Append(std::move(pair));
  }
  out.Set("text_stems", std::move(stems));
  json::Value nodes = json::Value::Array();
  for (const auto& [node, weight] : query.node_terms) {
    json::Value pair = json::Value::Array();
    pair.Append(json::Value::Uint(node));
    pair.Append(json::Value::Uint(weight));
    nodes.Append(std::move(pair));
  }
  out.Set("node_terms", std::move(nodes));
  out.Set("use_bow", json::Value::Bool(query.use[kBow]));
  out.Set("use_bon", json::Value::Bool(query.use[kBon]));
  out.Set("kprime", json::Value::Uint(query.kprime));
  out.Set("exhaustive", json::Value::Bool(query.exhaustive));
  // Time window (v2). Bounds ride only when real: JSON numbers are
  // doubles, so "unbounded" travels as absence, not as INT64_MAX.
  if (query.has_time_range) {
    out.Set("has_time_range", json::Value::Bool(true));
    if (query.after_ms > 0) {
      out.Set("after_ms",
              json::Value::Uint(static_cast<uint64_t>(query.after_ms)));
    }
    if (query.before_ms != std::numeric_limits<int64_t>::max()) {
      out.Set("before_ms",
              json::Value::Uint(static_cast<uint64_t>(query.before_ms)));
    }
  }
  return out;
}

Result<ShardQuery> ShardQueryFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("\"query\" must be a JSON object");
  }
  ShardQuery query;
  for (const auto& [key, field] : value.members()) {
    if (key == "text_stems") {
      if (!field.is_array()) {
        return Status::InvalidArgument("\"text_stems\" must be an array");
      }
      for (const json::Value& item : field.items()) {
        if (!item.is_array() || item.size() != 2) {
          return Status::InvalidArgument(
              "\"text_stems\" entries must be [stem, count] pairs");
        }
        NL_ASSIGN_OR_RETURN(std::string stem,
                            AsStringStrict(item.at(0), key));
        NL_ASSIGN_OR_RETURN(const uint32_t qtf, AsU32(item.at(1), key));
        query.text_stems.push_back({std::move(stem), qtf});
      }
    } else if (key == "node_terms") {
      if (!field.is_array()) {
        return Status::InvalidArgument("\"node_terms\" must be an array");
      }
      for (const json::Value& item : field.items()) {
        if (!item.is_array() || item.size() != 2) {
          return Status::InvalidArgument(
              "\"node_terms\" entries must be [node, weight] pairs");
        }
        NL_ASSIGN_OR_RETURN(const uint32_t node, AsU32(item.at(0), key));
        NL_ASSIGN_OR_RETURN(const uint32_t weight, AsU32(item.at(1), key));
        query.node_terms.push_back({node, weight});
      }
    } else if (key == "use_bow") {
      NL_ASSIGN_OR_RETURN(query.use[kBow], AsBoolStrict(field, key));
    } else if (key == "use_bon") {
      NL_ASSIGN_OR_RETURN(query.use[kBon], AsBoolStrict(field, key));
    } else if (key == "kprime") {
      NL_ASSIGN_OR_RETURN(query.kprime, AsU64(field, key));
    } else if (key == "exhaustive") {
      NL_ASSIGN_OR_RETURN(query.exhaustive, AsBoolStrict(field, key));
    } else if (key == "has_time_range") {
      NL_ASSIGN_OR_RETURN(query.has_time_range, AsBoolStrict(field, key));
    } else if (key == "after_ms") {
      NL_ASSIGN_OR_RETURN(query.after_ms, AsEpochMs(field, key));
    } else if (key == "before_ms") {
      NL_ASSIGN_OR_RETURN(query.before_ms, AsEpochMs(field, key));
    } else {
      return Status::InvalidArgument(
          StrCat("unknown shard query field: \"", key, "\""));
    }
  }
  return query;
}

/// The per-side fields travel under v5's flat names: "text_*" / "bow_*"
/// for the BOW side, "node_*" / "bon_*" for BON.
json::Value ShardStatsToJson(const ShardStats& stats) {
  const ShardSideStats& text = stats.side[kBow];
  const ShardSideStats& node = stats.side[kBon];
  json::Value out = json::Value::Object();
  out.Set("num_docs", json::Value::Uint(stats.num_docs));
  out.Set("text_total_length", json::Value::Uint(text.total_length));
  out.Set("node_total_length", json::Value::Uint(node.total_length));
  out.Set("text_min_doc_length", json::Value::Uint(text.min_doc_length));
  out.Set("node_min_doc_length", json::Value::Uint(node.min_doc_length));
  out.Set("text_df", U64VectorToJson(text.df));
  out.Set("node_df", U64VectorToJson(node.df));
  out.Set("text_max_tf", U32VectorToJson(text.max_tf));
  out.Set("node_max_tf", U32VectorToJson(node.max_tf));
  out.Set("has_timestamps", json::Value::Bool(stats.has_timestamps));
  out.Set("now_ms", json::Value::Uint(static_cast<uint64_t>(stats.now_ms)));
  return out;
}

Result<ShardStats> ShardStatsFromJson(const json::Value& value,
                                      std::string_view name) {
  if (!value.is_object()) {
    return Status::InvalidArgument(
        StrCat("\"", name, "\" must be a JSON object"));
  }
  ShardStats stats;
  ShardSideStats& text = stats.side[kBow];
  ShardSideStats& node = stats.side[kBon];
  for (const auto& [key, field] : value.members()) {
    if (key == "num_docs") {
      NL_ASSIGN_OR_RETURN(stats.num_docs, AsU64(field, key));
    } else if (key == "text_total_length") {
      NL_ASSIGN_OR_RETURN(text.total_length, AsU64(field, key));
    } else if (key == "node_total_length") {
      NL_ASSIGN_OR_RETURN(node.total_length, AsU64(field, key));
    } else if (key == "text_min_doc_length") {
      NL_ASSIGN_OR_RETURN(text.min_doc_length, AsU32(field, key));
    } else if (key == "node_min_doc_length") {
      NL_ASSIGN_OR_RETURN(node.min_doc_length, AsU32(field, key));
    } else if (key == "text_df") {
      NL_ASSIGN_OR_RETURN(text.df, U64VectorFromJson(field, key));
    } else if (key == "node_df") {
      NL_ASSIGN_OR_RETURN(node.df, U64VectorFromJson(field, key));
    } else if (key == "text_max_tf") {
      NL_ASSIGN_OR_RETURN(text.max_tf, U32VectorFromJson(field, key));
    } else if (key == "node_max_tf") {
      NL_ASSIGN_OR_RETURN(node.max_tf, U32VectorFromJson(field, key));
    } else if (key == "has_timestamps") {
      NL_ASSIGN_OR_RETURN(stats.has_timestamps, AsBoolStrict(field, key));
    } else if (key == "now_ms") {
      NL_ASSIGN_OR_RETURN(stats.now_ms, AsEpochMs(field, key));
    } else {
      return Status::InvalidArgument(
          StrCat("unknown \"", name, "\" field: \"", key, "\""));
    }
  }
  return stats;
}

/// Statistics arriving from a peer must be positional with the query's
/// terms, one entry per term of each side it scores and none otherwise:
/// SEARCH and MergeShardPlan index them by term.
Status CheckAligned(const ShardQuery& query, const ShardStats& stats) {
  const size_t terms[2] = {query.text_stems.size(), query.node_terms.size()};
  for (const Side side : kSides) {
    const size_t expected = query.use[side] ? terms[side] : 0;
    const ShardSideStats& in = stats.side[side];
    if (in.df.size() != expected || in.max_tf.size() != expected) {
      return Status::InvalidArgument(StrCat(
          "shard statistics hold ", in.df.size(), "/", in.max_tf.size(), " ",
          kSideName[side], " entries for a query of ", expected, " ",
          kSideName[side], " terms"));
    }
  }
  return Status::OK();
}

}  // namespace

json::Value ShardPlanRequestToJson(const ShardQuery& query) {
  json::Value out = json::Value::Object();
  out.Set("api_version", json::Value::Uint(kShardApiVersion));
  out.Set("query", ShardQueryToJson(query));
  return out;
}

Result<ShardQuery> ShardPlanRequestFromJson(const json::Value& value) {
  NL_RETURN_IF_ERROR(CheckApiVersion(value, "shard plan request"));
  ShardQuery query;
  bool have_query = false;
  for (const auto& [key, field] : value.members()) {
    if (key == "api_version") {
      // Checked above.
    } else if (key == "query") {
      NL_ASSIGN_OR_RETURN(query, ShardQueryFromJson(field));
      have_query = true;
    } else {
      return Status::InvalidArgument(
          StrCat("unknown shard plan request field: \"", key, "\""));
    }
  }
  if (!have_query) {
    return Status::InvalidArgument("shard plan request needs a \"query\"");
  }
  return query;
}

json::Value ShardPlanResponseToJson(const ShardPlan& plan) {
  json::Value out = json::Value::Object();
  out.Set("api_version", json::Value::Uint(kShardApiVersion));
  out.Set("epoch", json::Value::Uint(plan.epoch));
  out.Set("stats", ShardStatsToJson(plan.stats));
  return out;
}

Result<ShardPlan> ShardPlanResponseFromJson(const json::Value& value,
                                            const ShardQuery& query) {
  NL_RETURN_IF_ERROR(CheckApiVersion(value, "shard plan response"));
  ShardPlan plan;
  for (const auto& [key, field] : value.members()) {
    if (key == "api_version") {
      // Checked above.
    } else if (key == "epoch") {
      NL_ASSIGN_OR_RETURN(plan.epoch, AsU64(field, key));
    } else if (key == "stats") {
      NL_ASSIGN_OR_RETURN(plan.stats, ShardStatsFromJson(field, key));
    } else {
      return Status::InvalidArgument(
          StrCat("unknown shard plan response field: \"", key, "\""));
    }
  }
  NL_RETURN_IF_ERROR(CheckAligned(query, plan.stats));
  return plan;
}

json::Value ShardSearchRequestToJson(uint64_t expected_epoch,
                                     const ShardQuery& query,
                                     const ShardStats& global) {
  json::Value out = json::Value::Object();
  out.Set("api_version", json::Value::Uint(kShardApiVersion));
  out.Set("expected_epoch", json::Value::Uint(expected_epoch));
  out.Set("query", ShardQueryToJson(query));
  out.Set("global", ShardStatsToJson(global));
  return out;
}

Status ShardSearchRequestFromJson(const json::Value& value,
                                  uint64_t* expected_epoch, ShardQuery* query,
                                  ShardStats* global) {
  NL_RETURN_IF_ERROR(CheckApiVersion(value, "shard search request"));
  bool have_query = false;
  bool have_global = false;
  for (const auto& [key, field] : value.members()) {
    if (key == "api_version") {
      // Checked above.
    } else if (key == "expected_epoch") {
      NL_ASSIGN_OR_RETURN(*expected_epoch, AsU64(field, key));
    } else if (key == "query") {
      NL_ASSIGN_OR_RETURN(*query, ShardQueryFromJson(field));
      have_query = true;
    } else if (key == "global") {
      NL_ASSIGN_OR_RETURN(*global, ShardStatsFromJson(field, key));
      have_global = true;
    } else {
      return Status::InvalidArgument(
          StrCat("unknown shard search request field: \"", key, "\""));
    }
  }
  if (!have_query || !have_global) {
    return Status::InvalidArgument(
        "shard search request needs \"query\" and \"global\"");
  }
  return CheckAligned(*query, *global);
}

json::Value ShardSearchResponseToJson(const ShardSearchResult& result) {
  json::Value out = json::Value::Object();
  out.Set("api_version", json::Value::Uint(kShardApiVersion));
  out.Set("epoch", json::Value::Uint(result.epoch));
  out.Set("snapshot_docs", json::Value::Uint(result.snapshot_docs));
  out.Set("bow_max", json::Value::Number(result.side[kBow].max));
  out.Set("bon_max", json::Value::Number(result.side[kBon].max));
  out.Set("bow_floor", json::Value::Number(result.side[kBow].floor));
  out.Set("bon_floor", json::Value::Number(result.side[kBon].floor));
  out.Set("bow_scored", json::Value::Uint(result.side[kBow].scored));
  out.Set("bon_scored", json::Value::Uint(result.side[kBon].scored));
  json::Value candidates = json::Value::Array();
  for (const ShardCandidate& c : result.candidates) {
    json::Value quad = json::Value::Array();
    quad.Append(json::Value::Uint(c.doc));
    for (const double score : c.score) quad.Append(json::Value::Number(score));
    quad.Append(json::Value::Uint(static_cast<uint64_t>(c.ts)));
    candidates.Append(std::move(quad));
  }
  out.Set("candidates", std::move(candidates));
  return out;
}

Result<ShardSearchResult> ShardSearchResponseFromJson(
    const json::Value& value) {
  NL_RETURN_IF_ERROR(CheckApiVersion(value, "shard search response"));
  ShardSearchResult result;
  for (const auto& [key, field] : value.members()) {
    if (key == "api_version") {
      // Checked above.
    } else if (key == "epoch") {
      NL_ASSIGN_OR_RETURN(result.epoch, AsU64(field, key));
    } else if (key == "snapshot_docs") {
      NL_ASSIGN_OR_RETURN(result.snapshot_docs, AsU64(field, key));
    } else if (key == "bow_max") {
      NL_ASSIGN_OR_RETURN(result.side[kBow].max, AsNumberStrict(field, key));
    } else if (key == "bon_max") {
      NL_ASSIGN_OR_RETURN(result.side[kBon].max, AsNumberStrict(field, key));
    } else if (key == "bow_floor") {
      NL_ASSIGN_OR_RETURN(result.side[kBow].floor, AsNumberStrict(field, key));
    } else if (key == "bon_floor") {
      NL_ASSIGN_OR_RETURN(result.side[kBon].floor, AsNumberStrict(field, key));
    } else if (key == "bow_scored") {
      NL_ASSIGN_OR_RETURN(result.side[kBow].scored, AsU64(field, key));
    } else if (key == "bon_scored") {
      NL_ASSIGN_OR_RETURN(result.side[kBon].scored, AsU64(field, key));
    } else if (key == "candidates") {
      if (!field.is_array()) {
        return Status::InvalidArgument("\"candidates\" must be an array");
      }
      result.candidates.reserve(field.size());
      for (const json::Value& item : field.items()) {
        if (!item.is_array() || item.size() != 4) {
          return Status::InvalidArgument(
              "\"candidates\" entries must be [doc, bow, bon, ts] "
              "quadruples");
        }
        ShardCandidate c;
        NL_ASSIGN_OR_RETURN(c.doc, AsU32(item.at(0), key));
        NL_ASSIGN_OR_RETURN(c.score[kBow], AsNumberStrict(item.at(1), key));
        NL_ASSIGN_OR_RETURN(c.score[kBon], AsNumberStrict(item.at(2), key));
        NL_ASSIGN_OR_RETURN(c.ts, AsEpochMs(item.at(3), key));
        result.candidates.push_back(c);
      }
    } else {
      return Status::InvalidArgument(
          StrCat("unknown shard search response field: \"", key, "\""));
    }
  }
  return result;
}

}  // namespace net
}  // namespace newslink
