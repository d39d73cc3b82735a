#include "embed/document_embedding.h"

#include <algorithm>
#include <map>
#include <set>

namespace newslink {
namespace embed {

LcagSegmentEmbedder::LcagSegmentEmbedder(const kg::KnowledgeGraph* graph,
                                         const kg::LabelIndex* index,
                                         LcagOptions options,
                                         size_t cache_capacity,
                                         metrics::Registry* registry)
    : owned_registry_(registry == nullptr
                          ? std::make_unique<metrics::Registry>()
                          : nullptr),
      registry_(registry == nullptr ? owned_registry_.get() : registry),
      search_(graph, index),
      options_(options),
      cache_(cache_capacity, LcagCache::kDefaultShards, registry_),
      segments_(registry_->GetCounter(kEmbedderSegments,
                                      "EmbedSegment calls")),
      embedded_(registry_->GetCounter(kEmbedderEmbedded,
                                      "segments that produced a subgraph")),
      timeouts_(registry_->GetCounter(kEmbedderTimeouts,
                                      "LCAG wall-clock timeouts")),
      budget_exhausted_(registry_->GetCounter(
          kEmbedderBudgetExhausted, "LCAG max_expansions truncations")),
      sketch_hits_(registry_->GetCounter(
          kEmbedderSketchHits, "LCAG searches answered from sketches")),
      sketch_fallbacks_(registry_->GetCounter(
          kEmbedderSketchFallbacks,
          "sketch-enabled searches that ran the full search")),
      fallbacks_ineligible_(registry_->GetCounter(
          kEmbedderSketchFallbacksIneligible,
          "sketch fallbacks: fewer than two labels or a reduced budget")),
      fallbacks_truncated_ball_(registry_->GetCounter(
          kEmbedderSketchFallbacksTruncatedBall,
          "sketch fallbacks: a source ball was truncated")),
      fallbacks_no_common_ancestor_(registry_->GetCounter(
          kEmbedderSketchFallbacksNoCommonAncestor,
          "sketch fallbacks: no common ancestor within the radius")) {}

void LcagSegmentEmbedder::SetSketch(
    std::shared_ptr<const LcagSketchIndex> sketch) {
  std::lock_guard<std::mutex> lock(sketch_mu_);
  sketch_ = std::move(sketch);
}

std::shared_ptr<const LcagSketchIndex> LcagSegmentEmbedder::sketch() const {
  std::lock_guard<std::mutex> lock(sketch_mu_);
  return sketch_;
}

bool LcagSegmentEmbedder::EmbedSegment(const std::vector<std::string>& labels,
                                       AncestorGraph* out,
                                       SegmentEmbedOutcome* outcome) const {
  const std::shared_ptr<const LcagSketchIndex> sketch = this->sketch();
  LcagSearchContext ctx;
  ctx.cache = cache_.enabled() ? &cache_ : nullptr;
  ctx.sketch = sketch.get();
  LcagResult result = search_.Find(labels, options_, ctx);
  segments_->Inc();
  if (result.timed_out) timeouts_->Inc();
  if (result.budget_exhausted) budget_exhausted_->Inc();
  if (sketch != nullptr && !result.cache_hit) {
    // Fast-path hit rate: how many sketch-enabled searches skipped the
    // graph search entirely (cache hits are counted by the cache itself).
    if (result.sketch_hit) {
      sketch_hits_->Inc();
    } else {
      sketch_fallbacks_->Inc();
      switch (result.sketch_miss) {
        case SketchMiss::kTruncatedBall:
          fallbacks_truncated_ball_->Inc();
          break;
        case SketchMiss::kNoCommonAncestor:
          fallbacks_no_common_ancestor_->Inc();
          break;
        case SketchMiss::kNone:
        case SketchMiss::kIneligible:
          fallbacks_ineligible_->Inc();
          break;
      }
    }
  }
  if (outcome != nullptr) {
    outcome->found = result.found;
    outcome->cache_hit = result.cache_hit;
    outcome->timed_out = result.timed_out;
    outcome->budget_exhausted = result.budget_exhausted;
    outcome->sketch_hit = result.sketch_hit;
    outcome->expansions = result.expansions;
  }
  if (!result.found) return false;
  embedded_->Inc();
  *out = std::move(result.graph);
  return true;
}

bool TreeSegmentEmbedder::EmbedSegment(const std::vector<std::string>& labels,
                                       AncestorGraph* out,
                                       SegmentEmbedOutcome* outcome) const {
  TreeEmbedResult result = embedder_.Find(labels, options_);
  if (outcome != nullptr) {
    // Propagate the full outcome, not just `found`: a truncated tree embed
    // used to report as a clean miss, hiding timeouts from span notes.
    *outcome = {};
    outcome->found = result.found;
    outcome->timed_out = result.timed_out;
    outcome->expansions = result.expansions;
  }
  if (!result.found) return false;
  *out = std::move(result.tree);
  return true;
}

std::vector<kg::NodeId> DocumentEmbedding::SourceNodes() const {
  std::set<kg::NodeId> sources;
  for (const AncestorGraph& g : segment_graphs) {
    sources.insert(g.source_nodes.begin(), g.source_nodes.end());
  }
  return {sources.begin(), sources.end()};
}

std::vector<kg::NodeId> DocumentEmbedding::InducedNodes() const {
  std::set<kg::NodeId> sources;
  for (const AncestorGraph& g : segment_graphs) {
    sources.insert(g.source_nodes.begin(), g.source_nodes.end());
  }
  std::vector<kg::NodeId> induced;
  for (const auto& [node, count] : node_counts) {
    if (!sources.contains(node)) induced.push_back(node);
  }
  return induced;
}

DocumentEmbedding EmbedDocument(
    const SegmentEmbedder& embedder,
    const std::vector<std::vector<std::string>>& entity_groups,
    Trace* trace) {
  DocumentEmbedding out;
  std::map<kg::NodeId, uint32_t> counts;
  for (const std::vector<std::string>& labels : entity_groups) {
    if (labels.empty()) continue;
    AncestorGraph graph;
    SegmentEmbedOutcome outcome;
    bool ok;
    if (trace != nullptr) {
      ScopedSpan span(trace, "segment");
      ok = embedder.EmbedSegment(labels, &graph, &outcome);
      trace->Note("labels", std::to_string(labels.size()));
      if (outcome.cache_hit) trace->Note("cache_hit", "true");
      if (outcome.sketch_hit) trace->Note("sketch_hit", "true");
      if (outcome.timed_out) trace->Note("timed_out", "true");
      if (outcome.budget_exhausted) trace->Note("budget_exhausted", "true");
      if (!ok) trace->Note("found", "false");
    } else {
      ok = embedder.EmbedSegment(labels, &graph, &outcome);
    }
    if (!ok) continue;
    for (kg::NodeId v : graph.nodes) ++counts[v];
    out.segment_graphs.push_back(std::move(graph));
  }
  out.node_counts.assign(counts.begin(), counts.end());
  return out;
}

}  // namespace embed
}  // namespace newslink
