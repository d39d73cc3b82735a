// The scatter-gather coordinator (DESIGN.md Sec. 12): serves the public
// /v1 search API by fanning every query out to N shard servers over the
// /v1/shard RPC surface — the query pipeline (newslink/query_pipeline.h)
// over N remote backends, the code every in-process composition runs.
//
//   POST /v1/search  single or batched SearchRequest → SearchResponse;
//                    `explain` is rejected loudly (document embeddings
//                    live on the shards, not here)
//   GET  /v1/stats   per-shard health / epoch / last-error blocks
//   GET  /metrics    Prometheus exposition (coordinator counters)
//   GET  /healthz    liveness probe
//
// Query flow: the coordinator runs NLP + NE once (it holds the knowledge
// graph and config, but no corpus), PLANs every shard, merges the
// per-shard statistics, then SEARCHes every shard with the collection-wide
// view. A shard that answers 409 (its epoch moved between the two phases)
// triggers ONE full re-plan round; a shard that is down or misses its
// deadline budget (the request's remaining deadline, capped at the
// client's --shard-deadline) is dropped from the merge — the response
// still answers 200 with `degraded: true` and shards_answered <
// shards_total.
//
// Documents are assumed round-robin partitioned by global corpus row
// (`newslink_cli serve --shard-index i --shard-count n`), so shard s's
// local row l is global row l*n + s (each ShardClient maps its own rows)
// — which keeps the merged tie order identical to a single engine over
// the union.

#ifndef NEWSLINK_NET_COORDINATOR_SERVICE_H_
#define NEWSLINK_NET_COORDINATOR_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "baselines/search_engine.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/shard_client.h"
#include "newslink/newslink_engine.h"
#include "newslink/query_pipeline.h"

namespace newslink {
namespace net {

/// Coordinator registry series (registered on the prep engine's registry
/// so one /metrics scrape covers NLP, RPC, and service counters).
inline constexpr std::string_view kCoordinatorDegraded =
    "coordinator_degraded_responses_total";
inline constexpr std::string_view kCoordinatorShardErrors =
    "coordinator_shard_rpc_errors_total";

struct CoordinatorOptions {
  /// Concurrent /v1/search requests admitted; excess get 503.
  size_t max_inflight_searches = 64;
  /// Maximum requests in one batched /v1/search array body.
  size_t max_batch = 64;
};

/// \brief Serves /v1/search by scatter-gather over shard servers.
///
/// `prep` is a NewsLinkEngine with the knowledge graph loaded but no
/// corpus — it runs the per-query NLP/NE stages, resolves the request
/// knobs against its config, and builds the shard-portable query. It must
/// outlive the service; the service must outlive the HttpServer it
/// registered routes on. `config` sets the slow-query log. `shards[s]` is
/// shard s of shards.size().
class CoordinatorService {
 public:
  CoordinatorService(const newslink::NewsLinkEngine* prep,
                     NewsLinkConfig config,
                     std::vector<std::unique_ptr<ShardClient>> shards,
                     CoordinatorOptions options = {});

  /// Register every endpoint on `server` (call before server->Start()).
  void RegisterRoutes(HttpServer* server);

  /// One scatter-gather query (public so tests can drive the merge
  /// without a coordinator-side socket). `request.explain` must be false.
  baselines::SearchResponse Search(
      const baselines::SearchRequest& request) const;

  /// Recent queries over config.slow_query_threshold_seconds.
  const SlowQueryLog& slow_query_log() const {
    return pipeline_.slow_query_log();
  }

  std::string name() const;
  size_t num_shards() const { return shards_.size(); }

  // Handlers are public so tests can drive the service without a socket.
  HttpResponse HandleSearch(const HttpRequest& request);
  HttpResponse HandleStats(const HttpRequest& request) const;
  HttpResponse HandleHealth(const HttpRequest& request) const;
  HttpResponse HandleMetrics(const HttpRequest& request) const;

 private:
  /// The pipeline's view: prep_ plus the shard clients.
  PipelineView View() const;
  /// Coordinator series for one response, on top of the pipeline's own.
  void CountDegraded(const baselines::SearchResponse& response) const;

  const newslink::NewsLinkEngine* prep_;
  const std::vector<std::unique_ptr<ShardClient>> shards_;
  const CoordinatorOptions options_;
  /// shards_ as the pipeline's backends.
  std::vector<const ShardBackend*> backends_;
  /// Registered on the prep engine's registry; its pool (sized to the
  /// shard count) runs one query's round trips concurrently.
  QueryPipeline pipeline_;

  std::atomic<size_t> inflight_searches_{0};
  metrics::Counter* degraded_;
  metrics::Counter* shard_errors_;
  metrics::Counter* rejected_;
};

}  // namespace net
}  // namespace newslink

#endif  // NEWSLINK_NET_COORDINATOR_SERVICE_H_
