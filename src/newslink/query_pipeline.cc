#include "newslink/query_pipeline.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "embed/path_explainer.h"
#include "newslink/newslink_engine.h"
#include "newslink/shard_merge.h"

namespace newslink {

// --- LocalShardBackend ---------------------------------------------------

ShardEpochPin LocalShardBackend::Pin() const { return engine_->PinEpoch(); }

Result<ShardPlan> LocalShardBackend::Plan(const ShardQuery& query,
                                          const ShardEpochPin& pin,
                                          double /*budget_seconds*/) const {
  return engine_->PlanShard(query, pin);
}

Result<ShardSearchResult> LocalShardBackend::Search(
    const ShardQuery& query, const ShardStats& global,
    const ShardEpochPin& pin, uint64_t /*plan_epoch*/,
    double /*budget_seconds*/) const {
  return engine_->SearchShard(query, global, pin);
}

const embed::DocumentEmbedding* LocalShardBackend::DocEmbedding(
    uint32_t local_row) const {
  return &engine_->doc_embedding(local_row);
}

// --- QueryPipeline --------------------------------------------------------

namespace {

std::vector<ShardEpochPin> PinAll(const PipelineView& view) {
  std::vector<ShardEpochPin> pins;
  pins.reserve(view.backends.size());
  for (const ShardBackend* backend : view.backends) {
    pins.push_back(backend->Pin());
  }
  return pins;
}

/// A positive floor claims a per-side list of k' entries; an answer that
/// covers the whole shard (exhaustive, or k' >= its documents) is final.
Status CheckDepth(const ShardQuery& query, ShardSearchResult* result) {
  for (const ShardSideResult& side : result->side) {
    if (side.floor > 0.0 && result->candidates.size() < query.kprime) {
      return Status::IOError(StrCat("shard reported a floor with ",
                                    result->candidates.size(),
                                    " candidates at k' = ", query.kprime));
    }
  }
  if (query.exhaustive || query.kprime >= result->snapshot_docs) {
    for (ShardSideResult& side : result->side) side.floor = 0.0;
  }
  return Status::OK();
}

}  // namespace

QueryPipeline::QueryPipeline(metrics::Registry* registry,
                             const NewsLinkConfig& config)
    : queries_(registry->GetCounter(baselines::kEngineQueries)),
      slow_queries_(registry->GetCounter(
          kSlowQueries, "queries over the slow-query threshold")),
      query_seconds_(registry->GetHistogram(baselines::kEngineQuerySeconds)),
      nlp_seconds_(registry->GetHistogram(kQueryNlpSeconds, {},
                                          "per-query NLP stage, seconds")),
      ne_seconds_(registry->GetHistogram(kQueryNeSeconds, {},
                                         "per-query NE stage, seconds")),
      ns_seconds_(registry->GetHistogram(kQueryNsSeconds, {},
                                         "per-query NS stage, seconds")),
      explain_seconds_(registry->GetHistogram(
          kQueryExplainSeconds, {}, "per-query explanation stage, seconds")),
      slow_log_(config.slow_query_threshold_seconds,
                config.slow_query_log_capacity) {}

void QueryPipeline::ForEachBackend(
    size_t n, const std::function<void(size_t)>& fn) const {
  if (n == 1) {
    fn(0);
    return;
  }
  Pool().ParallelFor(n, fn);
}

ThreadPool& QueryPipeline::Pool() const {
  std::call_once(pool_once_,
                 [this] { pool_ = std::make_unique<ThreadPool>(); });
  return *pool_;
}

baselines::SearchResponse QueryPipeline::Search(
    const baselines::SearchRequest& request, const PipelineView& view) const {
  return Run(request, view, PinAll(view));
}

std::vector<baselines::SearchResponse> QueryPipeline::SearchBatch(
    std::span<const baselines::SearchRequest> requests,
    const PipelineView& view) const {
  std::vector<baselines::SearchResponse> responses(requests.size());
  if (requests.empty()) return responses;
  const std::vector<ShardEpochPin> pins = PinAll(view);
  const auto run = [&](size_t i) {
    responses[i] = Run(requests[i], view, pins);
  };
  // ParallelFor is reentrant: a query's own backend fan-out runs inline
  // when it is called from one of the pool's workers.
  Pool().ParallelFor(requests.size(), run);
  return responses;
}

baselines::SearchResponse QueryPipeline::Run(
    const baselines::SearchRequest& request, const PipelineView& view,
    const std::vector<ShardEpochPin>& pins) const {
  const NewsLinkEngine& prep = *view.prep;
  const NewsLinkConfig& config = prep.config();
  const std::span<const ShardBackend* const> backends = view.backends;
  const size_t n = backends.size();
  const double beta = request.beta.value_or(config.beta);

  // Per-request deadline (best-effort degradation), checked at every stage
  // boundary, never mid-stage: once it passes, the optional stages (query
  // NE, explain) are skipped and the response flags it. Backend calls get
  // what remains (local backends always answer; remote ones give up).
  WallTimer deadline_timer;
  const double deadline = request.deadline_seconds.value_or(0.0);
  const auto remaining = [&deadline_timer, deadline]() {
    return deadline > 0.0 ? deadline - deadline_timer.ElapsedSeconds()
                          : std::numeric_limits<double>::infinity();
  };

  // The query's span tree: one "search" root with a child per stage.
  // Everything downstream — SearchResponse::timings, the stage
  // histograms, the slow-query log — derives from this one tree.
  Trace trace;
  // Anchor for the per-backend spans spliced under "ns" after Finish (a
  // Trace is single-threaded; backend calls may run on pool workers).
  WallTimer trace_timer;
  const size_t root_handle = trace.Begin("search");

  baselines::SearchResponse response;
  response.shards_total = n;

  // --- NLP once, then NE from that segmentation -------------------------
  text::SegmentedDocument segmented;
  {
    ScopedSpan span(&trace, "nlp");
    segmented = prep.SegmentText(request.query);
    trace.Note("segments", std::to_string(segmented.segments.size()));
  }
  embed::DocumentEmbedding query_embedding;
  {
    ScopedSpan span(&trace, "ne");
    // Explanations need a query embedding even at beta == 0.
    if (!(beta > 0.0 || request.explain)) {
      trace.Note("skipped", "beta=0");
    } else if (remaining() <= 0.0) {
      // Degrade to text-only retrieval rather than blowing the budget.
      response.deadline_exceeded = true;
      trace.Note("skipped", "deadline");
    } else {
      query_embedding = prep.EmbedSegmented(segmented, &trace);
    }
  }

  // --- NS: two-phase scatter-gather (shard_api.h) ------------------------
  std::vector<std::optional<ShardSearchResult>> results(n);
  std::vector<Status> errors(n);
  std::vector<double> span_start(n, 0.0);
  std::vector<double> span_seconds(n, 0.0);
  {
    ScopedSpan span(&trace, "ns");
    const ShardQuery query = prep.PrepareShardQuery(request, query_embedding);
    if (query.has_time_range) {
      trace.Note("time_range",
                 StrCat("[", query.after_ms, ",", query.before_ms, ")"));
    }

    // Fuse (Eq. 3) and merge over global corpus rows — ties break toward
    // the smaller global row in every composition. Recency decays against
    // the request's "now", else the newest pinned snapshot's.
    ShardFuseParams fuse;
    fuse.beta = beta;
    fuse.k = request.k;
    fuse.recency_half_life_s = request.recency_half_life_seconds.value_or(
        config.recency_half_life_seconds);

    // SEARCH every planned backend at the first round's k', merge, and
    // SEARCH again every backend ShardsToDeepen names — at twice its k', or
    // exhaustively while the k-th score is 0, which no shorter depth
    // settles — all against the planned epoch, until it names none
    // (DESIGN.md Sec. 7). A deeper SEARCH that fails leaves the backend
    // at its last answer. A backend whose epoch moved since PLAN (remote
    // only: local pins hold one epoch) fails its search with
    // FailedPrecondition. The whole query restarts once from PLAN, because
    // the new statistics change the collection-wide view every other
    // backend scored with.
    std::vector<ir::ScoredDoc> merged;
    uint64_t scored[2] = {0, 0};  // documents scored per side
    size_t deepened = 0;
    for (int round = 0; round < 2; ++round) {
      std::vector<std::optional<ShardPlan>> plans(n);
      ForEachBackend(n, [&](size_t s) {
        Result<ShardPlan> plan = backends[s]->Plan(query, pins[s], remaining());
        errors[s] = plan.status();
        if (plan.ok()) plans[s] = std::move(*plan);
      });
      ShardStats global;
      std::vector<size_t> targets;
      for (size_t s = 0; s < n; ++s) {
        if (!plans[s].has_value()) continue;
        MergeShardPlan(plans[s]->stats, &global);
        targets.push_back(s);
      }
      fuse.now_ms = request.now_ms.value_or(global.now_ms);
      fuse.has_timestamps = global.has_timestamps;

      std::vector<ShardQuery> at_depth(n, query);
      std::atomic<bool> epoch_moved{false};
      while (!targets.empty()) {
        ForEachBackend(targets.size(), [&](size_t t) {
          const size_t s = targets[t];
          if (span_seconds[s] == 0.0) {
            span_start[s] = trace_timer.ElapsedSeconds();
          }
          WallTimer timer;
          Result<ShardSearchResult> result = backends[s]->Search(
              at_depth[s], global, pins[s], plans[s]->epoch, remaining());
          span_seconds[s] += timer.ElapsedSeconds();
          errors[s] =
              result.ok() ? CheckDepth(at_depth[s], &*result) : result.status();
          if (errors[s].ok()) {
            results[s] = std::move(*result);
            return;
          }
          if (errors[s].IsFailedPrecondition()) {
            epoch_moved.store(true, std::memory_order_relaxed);
          }
          if (results[s].has_value()) {  // not asked again
            for (ShardSideResult& side : results[s]->side) side.floor = 0.0;
          }
        });
        if (round == 0 && epoch_moved.load(std::memory_order_relaxed)) break;
        std::vector<const ShardSearchResult*> answered(n, nullptr);
        for (size_t s = 0; s < n; ++s) {
          if (results[s].has_value()) answered[s] = &*results[s];
        }
        for (const size_t s : targets) {
          if (!errors[s].ok()) continue;
          for (const Side side : kSides) {
            scored[side] += answered[s]->side[side].scored;
          }
        }
        merged = MergeShardCandidates(
            fuse, answered, [backends](size_t s, uint32_t local) {
              return backends[s]->GlobalRow(local);
            });
        targets = ShardsToDeepen(fuse, answered, merged);
        const bool to_exhaustion = merged.empty() ||
                                   merged.size() < fuse.k ||
                                   merged.back().score <= 0.0;
        for (const size_t s : targets) {
          at_depth[s].kprime *= 2;
          at_depth[s].exhaustive |= to_exhaustion;
        }
      }
      deepened = std::count_if(
          at_depth.begin(), at_depth.end(),
          [&query](const ShardQuery& q) { return q.kprime > query.kprime; });
      if (round == 1 || !epoch_moved.load(std::memory_order_relaxed)) break;
      // Results scored against the stale merge must not mix with the
      // retry's — drop everything and re-plan at the new epochs.
      for (std::optional<ShardSearchResult>& r : results) r.reset();
      merged.clear();
      std::fill(std::begin(scored), std::end(scored), 0);
    }
    response.hits.reserve(merged.size());
    for (const ir::ScoredDoc& scored : merged) {
      baselines::SearchHit hit;
      hit.doc_index = scored.doc;
      hit.score = scored.score;
      response.hits.push_back(std::move(hit));
    }
    trace.Note("bow_scored", std::to_string(scored[kBow]));
    trace.Note("bon_scored", std::to_string(scored[kBon]));
    trace.Note("deepened", std::to_string(deepened));
  }

  response.epoch = view.epoch_base;
  for (size_t s = 0; s < n; ++s) {
    if (errors[s].IsTimeout()) response.deadline_exceeded = true;
    // Skipped, or kept at an answer it could not deepen.
    if (!errors[s].ok()) response.degraded = true;
    if (!results[s].has_value()) continue;
    ++response.shards_answered;
    response.epoch += results[s]->epoch;
    response.snapshot_docs += results[s]->snapshot_docs;
  }

  // --- Explanations over global rows -------------------------------------
  if (request.explain && remaining() <= 0.0) {
    response.deadline_exceeded = true;
    trace.Note("explain_skipped", "deadline");
  } else if (request.explain) {
    ScopedSpan span(&trace, "explain");
    const embed::PathExplainer explainer(prep.graph());
    // Each hit's backend and local row, found among the merged candidates.
    std::unordered_map<size_t, baselines::SearchHit*> hit_of_row;
    for (baselines::SearchHit& hit : response.hits) {
      hit_of_row.emplace(hit.doc_index, &hit);
    }
    for (size_t s = 0; s < n; ++s) {
      if (!results[s].has_value()) continue;
      for (const ShardCandidate& c : results[s]->candidates) {
        const auto it = hit_of_row.find(backends[s]->GlobalRow(c.doc));
        if (it == hit_of_row.end()) continue;
        const embed::DocumentEmbedding* doc = backends[s]->DocEmbedding(c.doc);
        if (doc == nullptr) continue;
        it->second->paths = explainer.Explain(query_embedding, *doc,
                                              request.max_paths_per_result);
      }
    }
  }

  if (response.deadline_exceeded) trace.Note("deadline_exceeded", "true");
  trace.End(root_handle);
  TraceSpan root = trace.Finish();

  // One span per backend under "ns", timed where the call ran.
  // SpanBreakdown only reads the root's direct children, so the stage
  // buckets are unaffected.
  for (TraceSpan& child : root.children) {
    if (child.name != "ns") continue;
    for (size_t s = 0; s < n; ++s) {
      TraceSpan backend_span;
      backend_span.name = StrCat("shard", s);
      backend_span.start_seconds = span_start[s];
      backend_span.duration_seconds = span_seconds[s];
      if (results[s].has_value()) {
        backend_span.notes.push_back(
            {"epoch", std::to_string(results[s]->epoch)});
        backend_span.notes.push_back(
            {"candidates", std::to_string(results[s]->candidates.size())});
      }
      if (!errors[s].ok()) {
        backend_span.notes.push_back({"error", errors[s].ToString()});
      }
      child.children.push_back(std::move(backend_span));
    }
    break;
  }

  // Cumulative series + the response's own view, all from the one tree.
  queries_->Inc();
  query_seconds_->Observe(root.duration_seconds);
  for (const TraceSpan& child : root.children) {
    if (child.name == "nlp") {
      nlp_seconds_->Observe(child.duration_seconds);
    } else if (child.name == "ne") {
      ne_seconds_->Observe(child.duration_seconds);
    } else if (child.name == "ns") {
      ns_seconds_->Observe(child.duration_seconds);
    } else if (child.name == "explain") {
      explain_seconds_->Observe(child.duration_seconds);
    }
  }
  response.timings = SpanBreakdown(root);

  if (slow_log_.ShouldRecord(root.duration_seconds)) {
    slow_queries_->Inc();
    SlowQueryRecord record;
    record.query = request.query;
    record.seconds = root.duration_seconds;
    record.epoch = response.epoch;
    record.trace = root;  // copy: the response may still want the tree
    slow_log_.Record(std::move(record));
  }
  if (request.trace) response.trace = std::move(root);
  return response;
}

}  // namespace newslink
