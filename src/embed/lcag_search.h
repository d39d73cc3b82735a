// The Lowest Common Ancestor Graph search (paper Sec. V-B, Algorithms 1-3).
//
// MultiLabelDijkstra is the shared machinery: one multi-source expansion per
// entity label (Alg. 1 lines 1-5), global pops ordered by Equation 2
// (Alg. 2), with shortest-path-DAG predecessor tracking so that ALL shortest
// paths can be materialized (the coverage property). LcagSearch layers
// candidate collection (Alg. 3), the C1/C2 termination test, and the
// compactness sort (Def. 4) on top. TreeEmbedder (tree_embedder.h) reuses
// the same machinery with a Group-Steiner-style objective.

#ifndef NEWSLINK_EMBED_LCAG_SEARCH_H_
#define NEWSLINK_EMBED_LCAG_SEARCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "embed/ancestor_graph.h"
#include "embed/search_scratch.h"
#include "kg/knowledge_graph.h"
#include "kg/label_index.h"

namespace newslink {
namespace embed {

class LcagSketchIndex;

/// \brief Interleaved multi-source Dijkstra over every label at once.
///
/// PopNext() implements Equation 2: it settles the (label, node) pair with
/// the globally smallest tentative distance, guaranteeing the monotonicity
/// of Lemma 3. Predecessor links record every tied shortest path, in the
/// order relaxation found them.
///
/// All state lives in a SearchScratch leased from the calling thread
/// (search_scratch.h). One frontier heap holds every label's entries, keyed
/// by (distance, node, label): its minimum is the pair Eq. 2's scan over
/// per-label frontier tops would pick (smallest distance, then smallest
/// node, then the first label), because each label's own top is that
/// label's minimum under the same key.
class MultiLabelDijkstra {
 public:
  struct PopEvent {
    size_t label_index;
    kg::NodeId node;
    double distance;
  };

  /// `sources[i]` is S(l_i); each source starts at distance 0 (Alg. 1 l.3-5).
  /// Source sets are deduplicated per label: a repeated entity id must not
  /// settle twice (it would inflate SettledCount/total_pops and skew the
  /// C1/C2 termination test).
  MultiLabelDijkstra(const kg::KnowledgeGraph* graph,
                     const std::vector<std::vector<kg::NodeId>>& sources);

  /// Settle the next (label, node) pair. False when all frontiers are empty.
  bool PopNext(PopEvent* event);

  /// D'_min of Alg. 1 line 11: smallest tentative distance over all queue
  /// tops; kInfDistance when every frontier is exhausted.
  double PeekMinDistance();

  size_t num_labels() const { return scratch_->num_labels(); }

  /// D(l_i, v); kInfDistance if v has not been reached from l_i.
  double Distance(size_t label_index, kg::NodeId v) const {
    return scratch_->Distance(label_index, v);
  }

  bool Settled(size_t label_index, kg::NodeId v) const;

  /// Number of labels that have settled v so far ("received" v, Alg. 3).
  int SettledCount(kg::NodeId v) const { return scratch_->SettledCount(v); }

  /// Shortest-path DAG links of v w.r.t. label i (empty for sources), in
  /// the order relaxation appended them.
  SearchScratch::PredRange Predecessors(size_t label_index,
                                        kg::NodeId v) const {
    return scratch_->Preds(scratch_->Find(label_index, v));
  }

  size_t total_pops() const { return total_pops_; }

 private:
  /// Drop stale (already settled / superseded) entries from the heap top.
  void SkimFrontier();

  const kg::KnowledgeGraph* graph_;
  ScratchLease scratch_;
  size_t total_pops_ = 0;
};

/// Options for the G* search (Alg. 1).
struct LcagOptions {
  /// The paper's "while Not Timeout" guard; generous by default because the
  /// C1/C2 conditions terminate long before this on real inputs.
  double timeout_seconds = 5.0;
  /// Hard cap on settle events (safety net for pathological graphs).
  size_t max_expansions = 5'000'000;
  /// Ablation knob: false materializes one path per label instead of all
  /// shortest paths, disabling the coverage property while keeping the
  /// compactness-optimal root.
  bool all_shortest_paths = true;
  /// Ablation knob: true selects the root by depth only (first key of the
  /// compactness order), ignoring the lower-order distances of Def. 4.
  bool depth_only_root = false;
};

/// Why the distance-sketch fast path (lcag_sketch.h) left a search to the
/// full graph search.
enum class SketchMiss : uint8_t {
  kNone,  // the sketch answered, or no sketch was consulted
  /// Fewer than two resolved labels, a sketch of another graph, or an
  /// expansion budget below the default.
  kIneligible,
  /// A source ball hit `max_ball_nodes` before covering the radius.
  kTruncatedBall,
  /// No node lies within `radius` of every label.
  kNoCommonAncestor,
};

/// Statistics and outcome of one G* search.
struct LcagResult {
  bool found = false;
  bool timed_out = false;
  /// True when the `max_expansions` budget stopped the search before the
  /// C1/C2 conditions (or graph exhaustion) did. Unlike `timed_out` this is
  /// deterministic, so truncated results are still cacheable — but callers
  /// (and engine stats) can tell the result may be non-optimal.
  bool budget_exhausted = false;
  /// True when this result was served from an LcagCache instead of running
  /// Algorithms 1-3 (query-path observability: the NE span notes it).
  bool cache_hit = false;
  /// True when this result was answered from the LcagSketchIndex fast path
  /// (lcag_sketch.h) instead of a graph search. The answer (root,
  /// distances, DAG, tie order) is bit-identical to the full search's;
  /// `expansions` / `candidates_collected` are observability stats and
  /// differ (the sketch path performs no settle events).
  bool sketch_hit = false;
  /// Why a sketch-enabled search fell back to the full search; kNone on a
  /// sketch hit or when no sketch was given.
  SketchMiss sketch_miss = SketchMiss::kNone;
  AncestorGraph graph;
  /// Labels that resolved to at least one KG node (others are dropped, as
  /// in the paper's exact-matching pipeline).
  std::vector<std::string> resolved_labels;
  size_t expansions = 0;  // settle events
  size_t candidates_collected = 0;
};

class LcagCache;

/// Optional accelerators threaded through LcagSearch::Find. Both are
/// result-invariant — they change how fast Algorithms 1-3 run, never what
/// they return — which is why neither participates in the cache key.
struct LcagSearchContext {
  /// Canonical-key result cache (lcag_cache.h); null skips caching.
  LcagCache* cache = nullptr;
  /// Distance sketches (lcag_sketch.h); null (or a sketch miss) runs the
  /// full search.
  const LcagSketchIndex* sketch = nullptr;
};

/// \brief Algorithm 1: find the Lowest Common Ancestor Graph for a label set.
class LcagSearch {
 public:
  /// Both pointers must outlive the searcher.
  LcagSearch(const kg::KnowledgeGraph* graph, const kg::LabelIndex* index)
      : graph_(graph), index_(index) {}

  /// Find G* for the labels of one news segment. `ctx.cache`, when set, is
  /// consulted first (keyed by the canonicalized resolved source sets + the
  /// result-determining options); the canonical key is label-order
  /// independent, so permuted label sets share one entry and a cached
  /// lookup returns its labels in canonical, not caller, order.
  /// `ctx.sketch`, when set, answers provably exact groups without a graph
  /// search. With an empty `ctx` this is the sequential oracle.
  LcagResult Find(const std::vector<std::string>& labels,
                  const LcagOptions& options = {},
                  const LcagSearchContext& ctx = {}) const;

  /// Reference implementation for testing: settles the *entire* graph from
  /// every label and scans all common ancestors. Exponentially safer, much
  /// slower; Theorem 1 says Find() must agree with this on the compactness
  /// vector of the returned root.
  LcagResult FindExhaustive(const std::vector<std::string>& labels) const;

 private:
  std::vector<std::vector<kg::NodeId>> ResolveSources(
      const std::vector<std::string>& labels,
      std::vector<std::string>* resolved) const;

  /// The core of Algorithm 1, after label resolution. `sources[i]` is the
  /// (already resolved) S(l_i) of `resolved_labels[i]`; `sketch` may be
  /// null.
  LcagResult FindResolved(std::vector<std::vector<kg::NodeId>> sources,
                          std::vector<std::string> resolved_labels,
                          const LcagOptions& options,
                          const LcagSketchIndex* sketch) const;

  const kg::KnowledgeGraph* graph_;
  const kg::LabelIndex* index_;
};

/// Materialize G_root with ALL shortest paths per label (paper Def. 3):
/// walks each label's predecessor DAG backwards from the root. Nodes and
/// edges are deduplicated and sorted for determinism.
AncestorGraph MaterializeAllPaths(const MultiLabelDijkstra& dijkstra,
                                  kg::NodeId root,
                                  const std::vector<std::string>& labels);

/// Materialize a tree: ONE (lexicographically smallest) shortest path per
/// label. Used by TreeEmbedder; also the ablation "G* without coverage".
AncestorGraph MaterializeSinglePaths(const MultiLabelDijkstra& dijkstra,
                                     kg::NodeId root,
                                     const std::vector<std::string>& labels);

}  // namespace embed
}  // namespace newslink

#endif  // NEWSLINK_EMBED_LCAG_SEARCH_H_
