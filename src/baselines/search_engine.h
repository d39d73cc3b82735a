// Common interface of every competitor in the paper's Table IV plus
// NewsLink itself: index a corpus, then answer top-k text queries.
//
// The one query entry point is the request-scoped Search(SearchRequest):
// all per-query knobs (k, fusion β, recency, explanations, tracing,
// deadline) travel in the request, so one engine instance can serve
// differently-parameterized queries from many threads at once — engines
// never need mutable query-path setters, and there is no separate
// (query, k) overload anymore.
//
// Indexing is fallible: Index returns Status, so corpus and model failures
// surface to the caller instead of being logged and swallowed.
//
// Observability (DESIGN.md Sec. 8): every engine owns a metrics::Registry,
// reachable read-only via Metrics() and writable via mutable_metrics() (the
// serving layer registers its request/error/latency series there, so one
// /metrics scrape covers engine and server alike).

#ifndef NEWSLINK_BASELINES_SEARCH_ENGINE_H_
#define NEWSLINK_BASELINES_SEARCH_ENGINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/trace.h"
#include "corpus/corpus.h"
#include "embed/path_explainer.h"

namespace newslink {
namespace baselines {

/// Registry series shared by every engine (the ranking adapter feeds them).
inline constexpr std::string_view kEngineQueries = "engine_queries_total";
inline constexpr std::string_view kEngineQuerySeconds = "engine_query_seconds";

struct SearchResult {
  size_t doc_index = 0;  // position in the indexed corpus
  double score = 0.0;
};

/// \brief A publication-time window on search results (DESIGN.md Sec. 15).
///
/// Boundary semantics are half-open: a document matches when
/// `after_ms <= timestamp_ms < before_ms` — inclusive `after`, exclusive
/// `before` — so adjacent windows tile a stream without overlap or gap.
/// The defaults admit every representable timestamp.
struct TimeRange {
  int64_t after_ms = 0;
  int64_t before_ms = std::numeric_limits<int64_t>::max();

  bool Contains(int64_t timestamp_ms) const {
    return timestamp_ms >= after_ms && timestamp_ms < before_ms;
  }
  bool operator==(const TimeRange& o) const {
    return after_ms == o.after_ms && before_ms == o.before_ms;
  }
};

/// \brief One query with its per-request parameter overrides.
///
/// Every optional field falls back to the engine's configured default when
/// unset, so `SearchRequest{q, k}` carries exactly the legacy two-argument
/// semantics. Engines that have no notion of a given knob (e.g. β on a
/// pure-text baseline) ignore it.
struct SearchRequest {
  std::string query;
  size_t k = 10;

  /// Fusion weight β of Equation 3 (NewsLink engines only).
  std::optional<double> beta = std::nullopt;
  /// Score every posting on both sides instead of pruned retrieval: the
  /// exactness oracle of the fused search.
  bool exhaustive_fusion = false;

  /// Recency half-life, seconds (DESIGN.md Sec. 15): the fused Eq. 3 score
  /// is multiplied by 2^(-age / half_life), age measured against the
  /// snapshot's pinned "now". +infinity sends every decay factor to
  /// exactly 1.0 (scores bit-identical to no recency); unset falls back to
  /// the engine's configured default; <= 0 disables decay outright.
  /// Engines whose corpus carries no timestamps ignore it.
  std::optional<double> recency_half_life_seconds = std::nullopt;
  /// Publication-time pre-filter, pushed down into posting traversal
  /// (documents outside the window are never scored). Unset = no filter.
  std::optional<TimeRange> time_range = std::nullopt;
  /// Override of the decay reference instant (epoch ms). NOT exposed on
  /// the wire — the serving layer always uses the snapshot's pinned now —
  /// but tests and benches set it for deterministic decay values.
  std::optional<int64_t> now_ms = std::nullopt;

  /// Attach relationship-path explanations to each hit.
  bool explain = false;
  /// Explanation paths per hit (only read when `explain` is set).
  size_t max_paths_per_result = 5;

  /// Return this query's span tree on SearchResponse::trace. The tree is
  /// always collected (span begin/end is nanoseconds against millisecond
  /// stages); this flag only controls whether it survives onto the response.
  bool trace = false;

  /// Wall-clock budget for this query, seconds. Engines honor it through
  /// their stage-level budget/timeout plumbing: once the deadline passes,
  /// optional stages (NE fusion, explanations) are skipped and the trace
  /// carries a "deadline_exceeded" note. Unset = no deadline.
  std::optional<double> deadline_seconds = std::nullopt;
};

/// \brief A hit: document, fused score, optional explanation paths.
struct SearchHit {
  size_t doc_index = 0;
  double score = 0.0;
  /// Relationship paths between query and document entities; filled only
  /// when the request asked for explanations.
  std::vector<embed::RelationshipPath> paths = {};
};

/// \brief Hits plus per-query observability.
struct SearchResponse {
  std::vector<SearchHit> hits;
  /// This query's own component time breakdown, derived from the span tree
  /// (one bucket per direct child of the root span: nlp/ne/ns buckets for
  /// NewsLink engines; a single bucket for uninstrumented baselines).
  TimeBreakdown timings;
  /// The published index epoch this query ran against (0 for engines
  /// without snapshot isolation).
  uint64_t epoch = 0;
  /// Number of documents visible in that epoch: every hit's doc_index is
  /// < snapshot_docs even while ingestion runs concurrently.
  size_t snapshot_docs = 0;
  /// True when the request's deadline cut the query short (degraded
  /// results: skipped stages, missing explanations).
  bool deadline_exceeded = false;
  /// The query's span tree; filled only when SearchRequest::trace is set.
  TraceSpan trace;

  // Scatter-gather fields, filled by every NewsLink composition (a single
  // engine is a one-shard scatter); zero for the plain baselines, whose
  // JSON then omits them.
  /// Shards this query fanned out to (0 = not a NewsLink engine).
  size_t shards_total = 0;
  /// Shards that answered within their budget. < shards_total means the
  /// hits cover only part of the corpus.
  size_t shards_answered = 0;
  /// True when any shard was skipped (down or past its deadline budget)
  /// or could not be searched deep enough: the response is a best-effort
  /// merge over what the shards answered.
  bool degraded = false;
};

/// \brief A top-k document search engine.
///
/// Non-copyable: the engine owns its metrics registry (atomics + mutex),
/// and instrument pointers handed to members must stay stable. The registry
/// is declared here, in the base, so derived members (snapshots, caches)
/// that reference instruments are destroyed before it.
class SearchEngine {
 public:
  SearchEngine()
      : queries_(registry_.GetCounter(kEngineQueries, "Search calls")),
        query_seconds_(registry_.GetHistogram(
            kEngineQuerySeconds, {}, "end-to-end query latency, seconds")) {}

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;
  virtual ~SearchEngine() = default;

  /// Display name for evaluation tables ("Lucene", "DOC2VEC", ...).
  virtual std::string name() const = 0;

  /// Build the index over `corpus`. Called exactly once on an empty
  /// engine; indexing twice is FailedPrecondition, and corpus or model
  /// failures come back as a Status instead of being logged.
  virtual Status Index(const corpus::Corpus& corpus) = 0;

  /// Request-scoped search: THE query entry point every harness, bench,
  /// and server drives every engine through. Thread-safe: any number of
  /// threads may call it concurrently.
  virtual SearchResponse Search(const SearchRequest& request) const = 0;

  /// The consolidated view over every counter/gauge/histogram this engine
  /// (and its components) maintains.
  const metrics::Registry& Metrics() const { return registry_; }

  /// Writable registry handle for components that serve this engine and
  /// want their series in the same scrape (the HTTP serving layer). The
  /// registry outlives every instrument pointer it hands out.
  metrics::Registry* mutable_metrics() const { return &registry_; }

 protected:
  /// Derived engines register their own series here.
  metrics::Registry* registry() const { return &registry_; }

  /// Adapter for plain ranking engines: wraps a (request → results)
  /// function in the shared instrumentation — one "search" span, the
  /// engine_* series, timings/trace on the response. Baselines implement
  /// Search(request) as a one-liner over this.
  SearchResponse RankedSearch(
      const SearchRequest& request,
      const std::function<std::vector<SearchResult>(const SearchRequest&)>&
          rank) const;

 private:
  mutable metrics::Registry registry_;
  metrics::Counter* queries_;
  metrics::Histogram* query_seconds_;
};

}  // namespace baselines
}  // namespace newslink

#endif  // NEWSLINK_BASELINES_SEARCH_ENGINE_H_
