// Document-level subgraph embeddings (paper Secs. V-VI): a document's
// embedding is the union of the G* of every entity group in its maximal
// entity co-occurrence set. Node frequencies across the segment graphs feed
// the Bag-Of-Node model of the NS component.

#ifndef NEWSLINK_EMBED_DOCUMENT_EMBEDDING_H_
#define NEWSLINK_EMBED_DOCUMENT_EMBEDDING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "embed/ancestor_graph.h"
#include "embed/lcag_cache.h"
#include "embed/lcag_search.h"
#include "embed/lcag_sketch.h"
#include "embed/tree_embedder.h"
#include "kg/label_index.h"

namespace newslink {
namespace embed {

/// Registry series names used by the NE component.
inline constexpr std::string_view kEmbedderSegments = "embedder_segments_total";
inline constexpr std::string_view kEmbedderEmbedded = "embedder_embedded_total";
inline constexpr std::string_view kEmbedderTimeouts = "embedder_timeouts_total";
inline constexpr std::string_view kEmbedderBudgetExhausted =
    "embedder_budget_exhausted_total";
inline constexpr std::string_view kEmbedderSketchHits =
    "lcag_sketch_hits_total";
inline constexpr std::string_view kEmbedderSketchFallbacks =
    "lcag_sketch_fallbacks_total";
/// The fallbacks split by SketchMiss reason; the three sum to
/// kEmbedderSketchFallbacks.
inline constexpr std::string_view kEmbedderSketchFallbacksIneligible =
    "lcag_sketch_fallbacks_ineligible_total";
inline constexpr std::string_view kEmbedderSketchFallbacksTruncatedBall =
    "lcag_sketch_fallbacks_truncated_ball_total";
inline constexpr std::string_view kEmbedderSketchFallbacksNoCommonAncestor =
    "lcag_sketch_fallbacks_no_common_ancestor_total";

/// \brief Per-call outcome of one EmbedSegment (feeds trace-span notes).
struct SegmentEmbedOutcome {
  bool found = false;
  bool cache_hit = false;
  bool timed_out = false;
  bool budget_exhausted = false;
  bool sketch_hit = false;
  size_t expansions = 0;  // settle events (0 on a cache or sketch hit)
};

/// \brief Strategy interface: how one entity group becomes a subgraph.
///
/// Implementations: LcagSegmentEmbedder (the paper's model) and
/// TreeSegmentEmbedder (the TreeEmb baseline of Table VII). EmbedSegment
/// must be safe to call from many threads concurrently; both the index-time
/// ParallelFor workers and concurrent query threads share one instance.
/// Cumulative counters live in a metrics::Registry (the embedder_* and
/// lcag_cache_* series) rather than bespoke stats structs.
class SegmentEmbedder {
 public:
  virtual ~SegmentEmbedder() = default;

  /// Embed one entity group. Returns false when no connected subgraph was
  /// found (unmatched labels or timeout) — the segment is then skipped, as
  /// the paper drops documents without embeddings (Sec. VII-A). `outcome`,
  /// when non-null, receives this call's per-segment observability.
  virtual bool EmbedSegment(const std::vector<std::string>& labels,
                            AncestorGraph* out,
                            SegmentEmbedOutcome* outcome = nullptr) const = 0;

  /// Human-readable name for reports ("NewsLink", "TreeEmb").
  virtual std::string name() const = 0;
};

/// \brief G*-based embedder (the NewsLink NE component).
///
/// Owns the LCAG result cache: identical entity groups (common across news
/// documents and repeated queries) skip Algorithms 1-3 entirely.
class LcagSegmentEmbedder : public SegmentEmbedder {
 public:
  /// `registry`, when given, receives the embedder_* counters and the
  /// cache's lcag_cache_* series (and must outlive the embedder); nullptr
  /// gives the embedder a private registry reachable via Metrics().
  LcagSegmentEmbedder(const kg::KnowledgeGraph* graph,
                      const kg::LabelIndex* index, LcagOptions options = {},
                      size_t cache_capacity = 4096,
                      metrics::Registry* registry = nullptr);

  bool EmbedSegment(const std::vector<std::string>& labels, AncestorGraph* out,
                    SegmentEmbedOutcome* outcome = nullptr) const override;
  std::string name() const override { return "NewsLink"; }

  /// Install (or clear, with nullptr) the distance-sketch fast path. The
  /// sketch depends only on the immutable KG, so installation is valid for
  /// the embedder's lifetime; shared_ptr keeps it alive across concurrent
  /// EmbedSegment calls while the engine swaps it in.
  void SetSketch(std::shared_ptr<const LcagSketchIndex> sketch);

  /// The installed sketch; nullptr when the fast path is off.
  std::shared_ptr<const LcagSketchIndex> sketch() const;

  /// The registry holding this embedder's (and its cache's) series.
  const metrics::Registry& Metrics() const { return *registry_; }

  const LcagCache& cache() const { return cache_; }

 private:
  std::unique_ptr<metrics::Registry> owned_registry_;  // when none was passed
  metrics::Registry* registry_;
  LcagSearch search_;
  LcagOptions options_;
  mutable LcagCache cache_;
  mutable std::mutex sketch_mu_;
  std::shared_ptr<const LcagSketchIndex> sketch_;
  metrics::Counter* segments_;
  metrics::Counter* embedded_;
  metrics::Counter* timeouts_;
  metrics::Counter* budget_exhausted_;
  metrics::Counter* sketch_hits_;
  metrics::Counter* sketch_fallbacks_;
  metrics::Counter* fallbacks_ineligible_;
  metrics::Counter* fallbacks_truncated_ball_;
  metrics::Counter* fallbacks_no_common_ancestor_;
};

/// \brief Tree-based embedder (the TreeEmb baseline).
class TreeSegmentEmbedder : public SegmentEmbedder {
 public:
  TreeSegmentEmbedder(const kg::KnowledgeGraph* graph,
                      const kg::LabelIndex* index,
                      TreeEmbedOptions options = {})
      : embedder_(graph, index), options_(options) {}

  bool EmbedSegment(const std::vector<std::string>& labels, AncestorGraph* out,
                    SegmentEmbedOutcome* outcome = nullptr) const override;
  std::string name() const override { return "TreeEmb"; }

 private:
  TreeEmbedder embedder_;
  TreeEmbedOptions options_;
};

/// \brief The union embedding of a document.
struct DocumentEmbedding {
  /// One G* per embedded entity group (kept for explanations).
  std::vector<AncestorGraph> segment_graphs;

  /// node -> number of segment graphs containing it, sorted by node id.
  /// This is the BON term-frequency vector of the document.
  std::vector<std::pair<kg::NodeId, uint32_t>> node_counts;

  bool empty() const { return node_counts.empty(); }
  size_t num_distinct_nodes() const { return node_counts.size(); }

  /// Entity nodes: sources (distance-0 nodes) across all segment graphs.
  std::vector<kg::NodeId> SourceNodes() const;

  /// Induced nodes (paper Table I): embedding nodes that are NOT sources,
  /// i.e. context contributed by the KG rather than the text.
  std::vector<kg::NodeId> InducedNodes() const;
};

/// Embed every entity group (the maximal co-occurrence set) of a document
/// and take the union. `trace`, when non-null, receives one "segment" span
/// per entity group, annotated with the group size and the LCAG outcome
/// (cache_hit / timed_out / budget_exhausted).
DocumentEmbedding EmbedDocument(
    const SegmentEmbedder& embedder,
    const std::vector<std::vector<std::string>>& entity_groups,
    Trace* trace = nullptr);

}  // namespace embed
}  // namespace newslink

#endif  // NEWSLINK_EMBED_DOCUMENT_EMBEDDING_H_
