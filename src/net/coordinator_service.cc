#include "net/coordinator_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "net/api_json.h"
#include "net/search_service.h"
#include "net/status_http.h"

namespace newslink {
namespace net {

namespace {

/// One shard server as a pipeline backend, holding the round-robin slice
/// of its shard index (ShardRows, shard_api.h).
class RemoteShardBackend final : public ShardBackend {
 public:
  RemoteShardBackend(const ShardClient* client, size_t num_shards,
                     double shard_deadline_seconds)
      : client_(client),
        rows_(ShardRows::RoundRobin(client->shard(), num_shards)),
        shard_deadline_seconds_(shard_deadline_seconds) {}

  /// No pin: the plan reports the shard's epoch and the search echoes it.
  ShardEpochPin Pin() const override { return ShardEpochPin(); }

  Result<ShardPlan> Plan(const ShardQuery& query, const ShardEpochPin&,
                         double budget_seconds) const override {
    NL_ASSIGN_OR_RETURN(const double wire, WireBudget(budget_seconds));
    NL_ASSIGN_OR_RETURN(ShardPlanRpcResponse plan,
                        client_->Plan(query, wire));
    return std::move(plan.plan);
  }

  Result<ShardSearchResult> Search(const ShardQuery& query,
                                   const ShardGlobalStats& global,
                                   const ShardEpochPin&, uint64_t plan_epoch,
                                   double budget_seconds) const override {
    NL_ASSIGN_OR_RETURN(const double wire, WireBudget(budget_seconds));
    NL_ASSIGN_OR_RETURN(ShardSearchRpcResponse result,
                        client_->Search(query, global, plan_epoch, wire));
    return std::move(result.result);
  }

  const embed::DocumentEmbedding* DocEmbedding(uint32_t) const override {
    return nullptr;  // document embeddings live on the shards
  }

  uint32_t GlobalRow(uint32_t local_row) const override {
    return rows_.GlobalRow(local_row);
  }

 private:
  /// The RPC's wire deadline (0 = none): what is left of the request's
  /// deadline, capped at the per-shard deployment setting. A spent request
  /// deadline skips the call.
  Result<double> WireBudget(double budget_seconds) const {
    if (budget_seconds <= 0.0) {
      return Status::Timeout("request deadline exhausted");
    }
    double wire = budget_seconds;
    if (shard_deadline_seconds_ > 0.0) {
      wire = std::min(wire, shard_deadline_seconds_);
    }
    return std::isinf(wire) ? 0.0 : wire;
  }

  const ShardClient* client_;
  const ShardRows rows_;
  const double shard_deadline_seconds_;
};

}  // namespace

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
    backends_.push_back(std::make_unique<RemoteShardBackend>(
        shard.get(), shards_.size(), options_.shard_deadline_seconds));
    backend_ptrs_.push_back(backends_.back().get());
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
  view.backends = backend_ptrs_;
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
