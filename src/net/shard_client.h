// One shard server as a query-pipeline backend (DESIGN.md Sec. 12.4): the
// PLAN and SEARCH phases over a keep-alive net/HttpClient and the api_json
// shard codecs. The client also keeps the shard's last-known health
// (reachable? which epoch? what failed?) so /v1/stats can report
// per-shard state without extra probes.

#ifndef NEWSLINK_NET_SHARD_CLIENT_H_
#define NEWSLINK_NET_SHARD_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

#include "common/json.h"
#include "common/result.h"
#include "net/http_client.h"
#include "newslink/query_pipeline.h"
#include "newslink/shard_api.h"

namespace newslink {
namespace net {

/// \brief The remote ShardBackend: shard `shard` of `num_shards`
/// round-robin slices (ShardRows::RoundRobin), served at host:port.
///
/// RPCs ride the owned HttpClient's keep-alive connection pool (stale
/// connections are retried once on a fresh one; see net/http_client.h) and
/// the health bookkeeping is thread-safe, so the query pipeline may fan
/// Plan/Search out over its pool while /v1/stats reads HealthJson().
class ShardClient final : public ShardBackend {
 public:
  /// The per-RPC cap of `newslink_cli serve --shards` (--shard-deadline).
  static constexpr double kDefaultDeadlineSeconds = 0.25;

  /// Every RPC's wire deadline is what is left of the request's deadline,
  /// capped at `deadline_seconds` (0 = no cap); a shard that misses it is
  /// dropped from the merge.
  ShardClient(size_t shard, size_t num_shards, std::string host,
              uint16_t port, double deadline_seconds)
      : rows_(ShardRows::RoundRobin(shard, num_shards)),
        deadline_seconds_(deadline_seconds),
        http_(std::move(host), port) {}

  /// No pin: the plan reports the shard's epoch and the search echoes it.
  ShardEpochPin Pin() const override { return ShardEpochPin(); }

  /// Phase 1 over POST /v1/shard/plan.
  Result<ShardPlan> Plan(const ShardQuery& query, const ShardEpochPin& pin,
                         double budget_seconds) const override;

  /// Phase 2 over POST /v1/shard/search. A shard whose epoch moved past
  /// `plan_epoch` answers 409, which surfaces here as FailedPrecondition.
  Result<ShardSearchResult> Search(const ShardQuery& query,
                                   const ShardStats& global,
                                   const ShardEpochPin& pin,
                                   uint64_t plan_epoch,
                                   double budget_seconds) const override;

  /// Document embeddings live on the shards.
  const embed::DocumentEmbedding* DocEmbedding(uint32_t) const override {
    return nullptr;
  }

  uint32_t GlobalRow(uint32_t local_row) const override {
    return rows_.GlobalRow(local_row);
  }

  /// Last-known state as a /v1/stats block:
  ///   {"shard", "address", "healthy", "epoch", "connection_reuses",
  ///    "connection_reconnects", "last_error"?}
  /// "healthy" reflects the most recent call (true after any success,
  /// false after any failure or before the first call completes).
  json::Value HealthJson() const;

 private:
  /// POST `body` to `path` within the wire budget, map a non-200 answer
  /// back to its Status, decode a 200 body with `decode`, and record the
  /// outcome.
  template <typename Reply, typename Decode>
  Result<Reply> Call(const char* path, const json::Value& body,
                     double budget_seconds, const Decode& decode) const;

  const ShardRows rows_;
  const double deadline_seconds_;
  mutable HttpClient http_;

  mutable std::mutex mu_;
  mutable bool healthy_ = false;
  mutable uint64_t epoch_ = 0;
  mutable std::string last_error_;
};

}  // namespace net
}  // namespace newslink

#endif  // NEWSLINK_NET_SHARD_CLIENT_H_
