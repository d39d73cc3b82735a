#include "net/search_service.h"

#include <chrono>
#include <mutex>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "net/api_json.h"
#include "net/status_http.h"

namespace newslink {
namespace net {

SearchService::SearchService(newslink::NewsLinkEngine* engine,
                             corpus::Corpus* corpus,
                             const kg::KnowledgeGraph* graph,
                             SearchServiceOptions options)
    : engine_(engine), corpus_(corpus), graph_(graph), options_(options) {
  metrics::Registry* registry = engine_->mutable_metrics();
  rejected_ = registry->GetCounter(
      kSearchRejected, "searches refused by admission control");
  ingested_ = registry->GetCounter(kDocumentsIngested,
                                   "documents ingested over HTTP");
  current_epoch_ = registry->GetGauge(newslink::kCurrentEpoch,
                                      "latest published epoch");
}

void SearchService::RegisterRoutes(HttpServer* server) {
  server->Handle("POST", "/v1/search",
                 [this](const HttpRequest& r) { return HandleSearch(r); });
  server->Handle("POST", "/v1/documents", [this](const HttpRequest& r) {
    return HandleAddDocument(r);
  });
  if (explore_ != nullptr) {
    server->Handle("POST", "/v1/explore",
                   [this](const HttpRequest& r) { return HandleExplore(r); });
  }
  server->Handle("GET", "/metrics",
                 [this](const HttpRequest& r) { return HandleMetrics(r); });
  server->Handle("GET", "/healthz",
                 [this](const HttpRequest& r) { return HandleHealth(r); });
  server->Handle("GET", "/v1/stats",
                 [this](const HttpRequest& r) { return HandleStats(r); });
  server->Handle("POST", "/v1/shard/plan", [this](const HttpRequest& r) {
    return HandleShardPlan(r);
  });
  server->Handle("POST", "/v1/shard/search", [this](const HttpRequest& r) {
    return HandleShardSearch(r);
  });
}

HttpResponse SearchService::HandleShardPlan(const HttpRequest& request) const {
  Result<json::Value> body = DecodeEnvelope(request.body);
  if (!body.ok()) return ErrorResponse(body.status());
  Result<ShardQuery> query = ShardPlanRequestFromJson(*body);
  if (!query.ok()) return ErrorResponse(query.status());
  return JsonOk(
      ShardPlanResponseToJson(engine_->PlanShard(*query, engine_->PinEpoch())));
}

HttpResponse SearchService::HandleShardSearch(
    const HttpRequest& request) const {
  Result<json::Value> body = DecodeEnvelope(request.body);
  if (!body.ok()) return ErrorResponse(body.status());
  uint64_t expected_epoch = 0;
  ShardQuery query;
  ShardStats global;
  const Status decoded =
      ShardSearchRequestFromJson(*body, &expected_epoch, &query, &global);
  if (!decoded.ok()) return ErrorResponse(decoded);

  // Both phases must read one epoch: if ingestion published since the
  // plan, answer 409 so the coordinator re-plans with fresh statistics
  // instead of scoring this shard against another epoch's collection.
  const newslink::ShardEpochPin pin = engine_->PinEpoch();
  if (pin.epoch() != expected_epoch) {
    return ErrorResponse(Status::FailedPrecondition(
        StrCat("shard epoch moved: plan saw ", expected_epoch,
               ", current is ", pin.epoch())));
  }
  return JsonOk(
      ShardSearchResponseToJson(engine_->SearchShard(query, global, pin)));
}

HttpResponse SearchService::HandleSearch(const HttpRequest& request) {
  // Decode before admitting: malformed requests should cost a 400, not an
  // admission slot.
  Result<SearchEnvelope> envelope =
      DecodeSearchEnvelope(request.body, options_.max_batch);
  if (!envelope.ok()) return ErrorResponse(envelope.status());
  const bool batched = envelope->batched;
  std::vector<baselines::SearchRequest>& requests = envelope->requests;

  // Admission: one slot per HTTP request, batch or not.
  if (inflight_searches_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_inflight_searches) {
    inflight_searches_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_->Inc();
    return ErrorResponseAt(503, "search admission limit reached");
  }

  std::vector<baselines::SearchResponse> responses =
      batched ? engine_->SearchBatch(requests)
              : std::vector<baselines::SearchResponse>{
                    engine_->Search(requests.front())};
  inflight_searches_.fetch_sub(1, std::memory_order_acq_rel);

  // Corpus reads (titles) happen under the shared lock; every doc_index in
  // a response is < its snapshot_docs <= corpus size (ingest appends the
  // corpus before publishing the epoch).
  std::shared_lock<std::shared_mutex> lock(corpus_mu_);
  if (batched) {
    json::Value out = json::Value::Array();
    for (const baselines::SearchResponse& response : responses) {
      out.Append(SearchResponseToJson(response, corpus_, graph_));
    }
    return JsonOk(out);
  }
  return JsonOk(SearchResponseToJson(responses.front(), corpus_, graph_));
}

HttpResponse SearchService::HandleExplore(const HttpRequest& request) {
  if (explore_ == nullptr) {
    return ErrorResponse(
        Status::FailedPrecondition("exploration is not enabled"));
  }
  Result<json::Value> body = DecodeEnvelope(request.body);
  if (!body.ok()) return ErrorResponse(body.status());
  Result<ExploreRpcRequest> decoded = ExploreRequestFromJson(*body);
  if (!decoded.ok()) return ErrorResponse(decoded.status());

  Result<newslink::ExploreResult> result = [&]() {
    if (!decoded->query.empty()) {
      baselines::SearchRequest search;
      search.query = decoded->query;
      search.k = decoded->k;  // 0 = the explore engine's default
      search.beta = decoded->beta;
      search.deadline_seconds = decoded->deadline_seconds;
      // The session explores the time-windowed result set: the filter
      // rides the underlying search, so every bucket and drill-down view
      // is cut from window-admitted documents only.
      search.time_range = decoded->time_range;
      return explore_->StartSession(search);
    }
    if (decoded->has_drill) {
      return explore_->DrillDown(decoded->session, decoded->drill);
    }
    if (decoded->up) return explore_->RollUp(decoded->session);
    return explore_->View(decoded->session);
  }();
  if (!result.ok()) return ErrorResponse(result.status());

  // Titles render under the shared corpus lock; every cached doc_index is
  // < its session's snapshot_docs <= corpus size, however much ingestion
  // has happened since the session pinned its epoch.
  std::shared_lock<std::shared_mutex> lock(corpus_mu_);
  return JsonOk(ExploreResultToJson(*result, corpus_, graph_));
}

HttpResponse SearchService::HandleAddDocument(const HttpRequest& request) {
  Result<json::Value> body = DecodeEnvelope(request.body);
  if (!body.ok()) return ErrorResponse(body.status());
  Result<corpus::Document> decoded = DocumentFromJson(*body);
  if (!decoded.ok()) return ErrorResponse(decoded.status());
  corpus::Document doc = std::move(*decoded);

  size_t doc_index = 0;
  {
    // Exclusive: the corpus append must be visible before the engine
    // publishes the epoch that can return this doc_index.
    std::unique_lock<std::shared_mutex> lock(corpus_mu_);
    if (doc.id.empty()) doc.id = StrCat("live-", corpus_->size());
    // A streamed document without an explicit publication time is "news
    // breaking now": stamp the ingestion wall clock so recency ranking and
    // time-range search see it immediately.
    if (doc.timestamp_ms == 0) {
      doc.timestamp_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count();
    }
    corpus_->Add(doc);
    doc_index = engine_->AddDocument(doc);
  }
  ingested_->Inc();

  json::Value out = json::Value::Object();
  out.Set("doc_index", json::Value::Uint(doc_index));
  out.Set("doc_id", json::Value::Str(doc.id));
  out.Set("epoch",
          json::Value::Uint(static_cast<uint64_t>(current_epoch_->Value())));
  return JsonOk(out, 201);
}

HttpResponse SearchService::HandleMetrics(const HttpRequest&) const {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = engine_->Metrics().RenderPrometheus();
  return response;
}

HttpResponse SearchService::HandleHealth(const HttpRequest&) const {
  json::Value out = json::Value::Object();
  out.Set("status", json::Value::Str("ok"));
  out.Set("engine", json::Value::Str(engine_->name()));
  return JsonOk(out);
}

HttpResponse SearchService::HandleStats(const HttpRequest&) const {
  json::Value out = json::Value::Object();
  out.Set("engine", json::Value::Str(engine_->name()));
  {
    std::shared_lock<std::shared_mutex> lock(corpus_mu_);
    out.Set("docs", json::Value::Uint(corpus_->size()));
  }
  out.Set("epoch",
          json::Value::Uint(static_cast<uint64_t>(current_epoch_->Value())));
  // The registry renders itself to JSON text; re-parse so it nests as a
  // real object instead of an escaped string.
  Result<json::Value> registry_json =
      json::Parse(engine_->Metrics().RenderJson());
  if (registry_json.ok()) out.Set("metrics", std::move(*registry_json));
  return JsonOk(out);
}

}  // namespace net
}  // namespace newslink
