#include "net/shard_client.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "net/api_json.h"
#include "net/status_http.h"

namespace newslink {
namespace net {

template <typename Reply, typename Decode>
Result<Reply> ShardClient::Call(const char* path, const json::Value& body,
                                double budget_seconds,
                                const Decode& decode) const {
  // A spent request deadline skips the call; the RPC gets what is left of
  // it, capped at the per-shard deployment setting (0 on the wire = none).
  if (budget_seconds <= 0.0) {
    return Status::Timeout("request deadline exhausted");
  }
  double wire = budget_seconds;
  if (deadline_seconds_ > 0.0) wire = std::min(wire, deadline_seconds_);
  HttpClientOptions options;
  options.deadline_seconds = std::isinf(wire) ? 0.0 : wire;

  Result<Reply> reply = [&]() -> Result<Reply> {
    NL_ASSIGN_OR_RETURN(HttpClientResponse http,
                        http_.Post(path, body.Dump(), options));
    Result<json::Value> parsed = json::Parse(http.body);
    if (!parsed.ok()) {
      return Status::IOError(
          StrCat("unparseable response body: ", parsed.status().message()));
    }
    if (http.status == 200) return decode(*parsed);
    // The server's {"error": {"code", "message"}} body round-trips back
    // into the Status the handler returned (409 → FailedPrecondition).
    if (const json::Value* err = parsed->Find("error")) {
      const json::Value* code = err->Find("code");
      const json::Value* message = err->Find("message");
      if (code != nullptr && code->is_string() && message != nullptr &&
          message->is_string()) {
        return StatusFromWire(code->AsString(), message->AsString());
      }
    }
    return Status::Internal(StrCat("shard answered HTTP ", http.status));
  }();

  std::lock_guard<std::mutex> lock(mu_);
  healthy_ = reply.ok();
  if (reply.ok()) {
    epoch_ = reply->epoch;
    last_error_.clear();
  } else {
    last_error_ = reply.status().ToString();
  }
  return reply;
}

Result<ShardPlan> ShardClient::Plan(const ShardQuery& query,
                                    const ShardEpochPin& /*pin*/,
                                    double budget_seconds) const {
  return Call<ShardPlan>(
      "/v1/shard/plan", ShardPlanRequestToJson(query), budget_seconds,
      [&query](const json::Value& v) {
        return ShardPlanResponseFromJson(v, query);
      });
}

Result<ShardSearchResult> ShardClient::Search(const ShardQuery& query,
                                              const ShardStats& global,
                                              const ShardEpochPin& /*pin*/,
                                              uint64_t plan_epoch,
                                              double budget_seconds) const {
  return Call<ShardSearchResult>(
      "/v1/shard/search", ShardSearchRequestToJson(plan_epoch, query, global),
      budget_seconds, ShardSearchResponseFromJson);
}

json::Value ShardClient::HealthJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value out = json::Value::Object();
  // A round-robin slice's offset is its shard index.
  out.Set("shard", json::Value::Uint(rows_.offset));
  out.Set("address", json::Value::Str(StrCat(http_.host(), ":", http_.port())));
  out.Set("healthy", json::Value::Bool(healthy_));
  out.Set("epoch", json::Value::Uint(epoch_));
  out.Set("connection_reuses", json::Value::Uint(http_.connection_reuses()));
  out.Set("connection_reconnects",
          json::Value::Uint(http_.connection_reconnects()));
  if (!last_error_.empty()) {
    out.Set("last_error", json::Value::Str(last_error_));
  }
  return out;
}

}  // namespace net
}  // namespace newslink
