// QueryPipeline: the one query path of every NewsLink engine composition
// (DESIGN.md Sec. 16). The paper's pipeline — NLP → NE → NS (Fig. 2),
// plus explanations — runs once per query over a set of pinned shard
// backends:
//
//   nlp      segment the query once (text::SegmentedDocument)
//   ne       embed that segmentation (skipped at β = 0 or past deadline)
//   ns       build the shard-portable query, PLAN every backend, merge the
//            collection statistics, SEARCH every backend, fuse + merge
//            (shard_merge.h) over global corpus rows
//   explain  relationship paths per hit (skipped past deadline)
//
// A single NewsLinkEngine is a one-backend scatter, ShardedEngine N local
// backends, TieredEngine two (base + today), and the HTTP coordinator N
// remote ones. Every decision lives here once: the deadline check at each
// stage boundary, the ties-on-global-rows merge, the recency "now" (the
// request's now_ms, else the newest pinned snapshot's publish instant),
// and the instrumentation (stage histograms, engine_* series, slow-query
// log, one span per backend under "ns", shards_total / shards_answered /
// degraded).

#ifndef NEWSLINK_NEWSLINK_QUERY_PIPELINE_H_
#define NEWSLINK_NEWSLINK_QUERY_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "baselines/search_engine.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/slow_query_log.h"
#include "common/thread_pool.h"
#include "embed/document_embedding.h"
#include "newslink/shard_api.h"

namespace newslink {

class NewsLinkEngine;
struct NewsLinkConfig;

/// Registry series the pipeline maintains in its composition's registry,
/// next to the engine_* series of baselines::SearchEngine. Per-query
/// component latency histograms (seconds) are fed from the query's span
/// tree — the Fig. 7 / Table VIII breakdowns read these.
inline constexpr std::string_view kQueryNlpSeconds = "query_nlp_seconds";
inline constexpr std::string_view kQueryNeSeconds = "query_ne_seconds";
inline constexpr std::string_view kQueryNsSeconds = "query_ns_seconds";
inline constexpr std::string_view kQueryExplainSeconds =
    "query_explain_seconds";
inline constexpr std::string_view kSlowQueries = "slow_queries_total";

/// \brief One document partition a query scatters to.
///
/// Two implementations: LocalShardBackend (an in-process NewsLinkEngine)
/// and net::ShardClient (a shard server over HTTP), whose RPC format this
/// interface hides.
class ShardBackend {
 public:
  ShardBackend() = default;
  virtual ~ShardBackend() = default;

  /// Pin the current epoch so Plan and Search read one snapshot. Remote
  /// backends return an empty pin: their plan reports the epoch and the
  /// search echoes it (a moved epoch fails with FailedPrecondition).
  virtual ShardEpochPin Pin() const = 0;

  /// Phase 1 (shard_api.h). `budget_seconds` is what is left of the
  /// request's deadline (+infinity = none); local backends never fail.
  virtual Result<ShardPlan> Plan(const ShardQuery& query,
                                 const ShardEpochPin& pin,
                                 double budget_seconds) const = 0;

  /// Phase 2 against the planned epoch (`pin`, or `plan_epoch` remotely).
  virtual Result<ShardSearchResult> Search(const ShardQuery& query,
                                           const ShardStats& global,
                                           const ShardEpochPin& pin,
                                           uint64_t plan_epoch,
                                           double budget_seconds) const = 0;

  /// Embedding of the backend's document `local_row`, for explanations;
  /// null when the backend holds none (remote shards).
  virtual const embed::DocumentEmbedding* DocEmbedding(
      uint32_t local_row) const = 0;

  /// The global corpus row of the backend's `local_row`.
  virtual uint32_t GlobalRow(uint32_t local_row) const = 0;

 protected:
  ShardBackend(const ShardBackend&) = default;
  ShardBackend& operator=(const ShardBackend&) = default;
  ShardBackend(ShardBackend&&) = default;
  ShardBackend& operator=(ShardBackend&&) = default;
};

/// \brief An in-process backend: one NewsLinkEngine, whose corpus rows map
/// to global rows through `rows`.
class LocalShardBackend final : public ShardBackend {
 public:
  explicit LocalShardBackend(const NewsLinkEngine* engine,
                             ShardRows rows = {})
      : engine_(engine), rows_(rows) {}

  ShardEpochPin Pin() const override;
  Result<ShardPlan> Plan(const ShardQuery& query, const ShardEpochPin& pin,
                         double budget_seconds) const override;
  Result<ShardSearchResult> Search(const ShardQuery& query,
                                   const ShardStats& global,
                                   const ShardEpochPin& pin,
                                   uint64_t plan_epoch,
                                   double budget_seconds) const override;
  const embed::DocumentEmbedding* DocEmbedding(
      uint32_t local_row) const override;
  uint32_t GlobalRow(uint32_t local_row) const override {
    return rows_.GlobalRow(local_row);
  }

 private:
  const NewsLinkEngine* engine_;
  ShardRows rows_;
};

/// \brief What one query (or one batch) runs against.
struct PipelineView {
  /// Runs NLP/NE, resolves the request knobs against its config, and
  /// builds the shard-portable query. Every backend serves the same KG and
  /// config, so any one engine of the composition will do.
  const NewsLinkEngine* prep = nullptr;
  std::span<const ShardBackend* const> backends;
  /// Keeps `prep` and the backends alive for the query (e.g. a tier pair
  /// that a concurrent compaction retires); may be null.
  std::shared_ptr<const void> keep_alive;
  /// Added to the response epoch (monotone across tier compactions).
  uint64_t epoch_base = 0;
};

/// \brief The query path shared by every composition.
class QueryPipeline {
 public:
  /// Registers the stage series in `registry` (which must outlive the
  /// pipeline). `config` supplies the slow-query log settings.
  QueryPipeline(metrics::Registry* registry, const NewsLinkConfig& config);

  /// One query: pins every backend, then runs the stages.
  baselines::SearchResponse Search(const baselines::SearchRequest& request,
                                   const PipelineView& view) const;

  /// Many queries, responses aligned with `requests`. Every backend is
  /// pinned ONCE for the whole batch, so all responses answer from one
  /// corpus view.
  std::vector<baselines::SearchResponse> SearchBatch(
      std::span<const baselines::SearchRequest> requests,
      const PipelineView& view) const;

  /// Recent queries over config.slow_query_threshold_seconds, each with
  /// its full span tree.
  const SlowQueryLog& slow_query_log() const { return slow_log_; }

 private:
  baselines::SearchResponse Run(const baselines::SearchRequest& request,
                                const PipelineView& view,
                                const std::vector<ShardEpochPin>& pins) const;

  /// fn(i) for every backend: inline for one backend (no thread handoff
  /// on the single-engine path), on the pool otherwise.
  void ForEachBackend(size_t n, const std::function<void(size_t)>& fn) const;

  /// The pool, one thread per hardware thread, built on first use and
  /// reused by every later fan-out and batch.
  ThreadPool& Pool() const;

  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ThreadPool> pool_;

  metrics::Counter* queries_;
  metrics::Counter* slow_queries_;
  metrics::Histogram* query_seconds_;
  metrics::Histogram* nlp_seconds_;
  metrics::Histogram* ne_seconds_;
  metrics::Histogram* ns_seconds_;
  metrics::Histogram* explain_seconds_;
  mutable SlowQueryLog slow_log_;
};

/// \brief A baselines::SearchEngine whose Search and SearchBatch are the
/// query pipeline over the backends its View() names.
class PipelineEngine : public baselines::SearchEngine {
 public:
  baselines::SearchResponse Search(
      const baselines::SearchRequest& request) const final {
    return pipeline_.Search(request, View());
  }
  /// Many queries against one pin of every backend
  /// (QueryPipeline::SearchBatch).
  std::vector<baselines::SearchResponse> SearchBatch(
      std::span<const baselines::SearchRequest> requests) const {
    return pipeline_.SearchBatch(requests, View());
  }

  const SlowQueryLog& slow_query_log() const {
    return pipeline_.slow_query_log();
  }

 protected:
  explicit PipelineEngine(const NewsLinkConfig& config)
      : pipeline_(registry(), config) {}

  /// The composition's current prep engine and backends.
  virtual PipelineView View() const = 0;

 private:
  QueryPipeline pipeline_;
};

}  // namespace newslink

#endif  // NEWSLINK_NEWSLINK_QUERY_PIPELINE_H_
