#include "net/coordinator_service.h"

#include <atomic>
#include <utility>

#include "common/string_util.h"
#include "net/api_json.h"
#include "net/search_service.h"
#include "net/status_http.h"

namespace newslink {
namespace net {

CoordinatorService::CoordinatorService(
    const newslink::NewsLinkEngine* prep, NewsLinkConfig config,
    std::vector<std::unique_ptr<ShardClient>> shards,
    CoordinatorOptions options)
    : prep_(prep),
      shards_(std::move(shards)),
      options_(options),
      pipeline_(prep_->mutable_metrics(), config),
      degraded_(prep_->mutable_metrics()->GetCounter(
          kCoordinatorDegraded, "responses merged over a partial shard set")),
      shard_errors_(prep_->mutable_metrics()->GetCounter(
          kCoordinatorShardErrors, "shard RPCs that failed or timed out")),
      rejected_(prep_->mutable_metrics()->GetCounter(
          kSearchRejected, "searches refused by admission control")) {
  NL_CHECK(!shards_.empty()) << "coordinator needs at least one shard";
  for (const std::unique_ptr<ShardClient>& shard : shards_) {
    backends_.push_back(shard.get());
  }
}

std::string CoordinatorService::name() const {
  return StrCat("Coordinator[", shards_.size(), " shards]");
}

void CoordinatorService::RegisterRoutes(HttpServer* server) {
  server->Handle("POST", "/v1/search",
                 [this](const HttpRequest& r) { return HandleSearch(r); });
  server->Handle("GET", "/metrics",
                 [this](const HttpRequest& r) { return HandleMetrics(r); });
  server->Handle("GET", "/healthz",
                 [this](const HttpRequest& r) { return HandleHealth(r); });
  server->Handle("GET", "/v1/stats",
                 [this](const HttpRequest& r) { return HandleStats(r); });
}

PipelineView CoordinatorService::View() const {
  PipelineView view;
  view.prep = prep_;
  view.backends = backends_;
  return view;
}

void CoordinatorService::CountDegraded(
    const baselines::SearchResponse& response) const {
  if (!response.degraded) return;
  degraded_->Inc();
  shard_errors_->Inc(response.shards_total - response.shards_answered);
}

baselines::SearchResponse CoordinatorService::Search(
    const baselines::SearchRequest& request) const {
  baselines::SearchResponse response = pipeline_.Search(request, View());
  CountDegraded(response);
  return response;
}

HttpResponse CoordinatorService::HandleSearch(const HttpRequest& request) {
  Result<SearchEnvelope> envelope =
      DecodeSearchEnvelope(request.body, options_.max_batch);
  if (!envelope.ok()) return ErrorResponse(envelope.status());
  const bool batched = envelope->batched;
  std::vector<baselines::SearchRequest>& requests = envelope->requests;
  for (const baselines::SearchRequest& r : requests) {
    if (r.explain) {
      return ErrorResponse(Status::InvalidArgument(
          "\"explain\" is not available on a coordinator (document "
          "embeddings live on the shards; query a shard directly)"));
    }
  }

  if (inflight_searches_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_inflight_searches) {
    inflight_searches_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_->Inc();
    return ErrorResponseAt(503, "search admission limit reached");
  }
  const std::vector<baselines::SearchResponse> responses =
      pipeline_.SearchBatch(requests, View());
  inflight_searches_.fetch_sub(1, std::memory_order_acq_rel);
  for (const baselines::SearchResponse& response : responses) {
    CountDegraded(response);
  }

  // No corpus or graph here: hits carry indices and scores only.
  if (batched) {
    json::Value out = json::Value::Array();
    for (const baselines::SearchResponse& response : responses) {
      out.Append(SearchResponseToJson(response, nullptr, nullptr));
    }
    return JsonOk(out);
  }
  return JsonOk(SearchResponseToJson(responses.front(), nullptr, nullptr));
}

HttpResponse CoordinatorService::HandleStats(const HttpRequest&) const {
  json::Value out = json::Value::Object();
  out.Set("engine", json::Value::Str(name()));
  out.Set("shards_total",
          json::Value::Uint(static_cast<uint64_t>(shards_.size())));
  json::Value shard_blocks = json::Value::Array();
  for (const std::unique_ptr<ShardClient>& shard : shards_) {
    shard_blocks.Append(shard->HealthJson());
  }
  out.Set("shards", std::move(shard_blocks));
  Result<json::Value> registry_json =
      json::Parse(prep_->Metrics().RenderJson());
  if (registry_json.ok()) out.Set("metrics", std::move(*registry_json));
  return JsonOk(out);
}

HttpResponse CoordinatorService::HandleHealth(const HttpRequest&) const {
  json::Value out = json::Value::Object();
  out.Set("status", json::Value::Str("ok"));
  out.Set("engine", json::Value::Str(name()));
  return JsonOk(out);
}

HttpResponse CoordinatorService::HandleMetrics(const HttpRequest&) const {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = prep_->Metrics().RenderPrometheus();
  return response;
}

}  // namespace net
}  // namespace newslink
