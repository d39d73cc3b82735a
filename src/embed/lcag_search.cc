#include "embed/lcag_search.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "common/logging.h"
#include "common/timer.h"
#include "embed/lcag_cache.h"
#include "embed/lcag_sketch.h"

namespace newslink {
namespace embed {

// ---------------------------------------------------------------------------
// MultiLabelDijkstra
// ---------------------------------------------------------------------------

MultiLabelDijkstra::MultiLabelDijkstra(
    const kg::KnowledgeGraph* graph,
    const std::vector<std::vector<kg::NodeId>>& sources)
    : graph_(graph) {
  scratch_->Begin(graph_->num_nodes(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    for (kg::NodeId v : sources[i]) {
      // Dedupe: entity groups can repeat an id (e.g. the same label
      // resolved twice in one segment). A duplicate source must not enter
      // the frontier twice — the second pop would settle the node again,
      // double-counting it in SettledCount()/total_pops() and skewing the
      // C1/C2 test.
      SearchScratch::Slot& slot = scratch_->Touch(i, v);
      if (slot.distance == 0.0) continue;
      slot.distance = 0.0;
      scratch_->PushFrontier({0.0, v, static_cast<uint32_t>(i)});
    }
  }
}

void MultiLabelDijkstra::SkimFrontier() {
  while (!scratch_->FrontierEmpty()) {
    const FrontierEntry& top = scratch_->FrontierTop();
    const SearchScratch::Slot* slot = scratch_->Find(top.label, top.node);
    NL_DCHECK(slot != nullptr);
    // Stale if already settled or superseded by a shorter tentative path.
    if (!slot->settled && top.distance <= slot->distance) return;
    scratch_->PopFrontier();
  }
}

double MultiLabelDijkstra::PeekMinDistance() {
  SkimFrontier();
  return scratch_->FrontierEmpty() ? kInfDistance
                                   : scratch_->FrontierTop().distance;
}

bool MultiLabelDijkstra::PopNext(PopEvent* event) {
  // Equation 2: the heap minimum is the argmin over all labels' tops.
  SkimFrontier();
  SearchScratch& scratch = *scratch_;
  if (scratch.FrontierEmpty()) return false;
  const FrontierEntry best = scratch.PopFrontier();

  SearchScratch::Slot* settled = scratch.Find(best.label, best.node);
  NL_DCHECK(settled != nullptr && !settled->settled);
  settled->settled = true;

  // Relax neighbours in the bi-directed view (Alg. 2 lines 4-8).
  for (const kg::Arc& arc : graph_->OutArcs(best.node)) {
    const double nd = best.distance + arc.weight;
    SearchScratch::Slot& nb = scratch.Touch(best.label, arc.dst);
    if (nb.settled) continue;  // weights are positive: cannot improve
    const PredLink link{best.node, arc.predicate, arc.weight, arc.forward};
    if (nd < nb.distance) {
      nb.distance = nd;
      scratch.ResetPreds(&nb, link);
      scratch.PushFrontier({nd, arc.dst, best.label});
    } else if (nd == nb.distance) {
      // A tied shortest path: extend the DAG (coverage property).
      scratch.AppendPred(&nb, link);
    }
  }
  scratch.CountSettled(best.node);
  ++total_pops_;

  event->label_index = best.label;
  event->node = best.node;
  event->distance = best.distance;
  return true;
}

bool MultiLabelDijkstra::Settled(size_t label_index, kg::NodeId v) const {
  const SearchScratch::Slot* slot = scratch_->Find(label_index, v);
  return slot != nullptr && slot->settled;
}

// ---------------------------------------------------------------------------
// Materialization
// ---------------------------------------------------------------------------

namespace {

using EdgeKey = std::tuple<kg::NodeId, kg::NodeId, kg::PredicateId, bool>;

}  // namespace

AncestorGraph MaterializeAllPaths(const MultiLabelDijkstra& dijkstra,
                                  kg::NodeId root,
                                  const std::vector<std::string>& labels) {
  AncestorGraph out;
  std::set<kg::NodeId> node_set;
  std::map<EdgeKey, float> edge_weights;
  node_set.insert(root);

  for (size_t li = 0; li < dijkstra.num_labels(); ++li) {
    // Walk the label's shortest-path DAG backwards from the root; every
    // predecessor link lies on some shortest path (Def. 3 keeps them all).
    std::vector<kg::NodeId> stack = {root};
    std::set<kg::NodeId> visited = {root};
    while (!stack.empty()) {
      const kg::NodeId v = stack.back();
      stack.pop_back();
      for (const PredLink& p : dijkstra.Predecessors(li, v)) {
        edge_weights.emplace(EdgeKey{p.from, v, p.predicate, p.forward},
                             p.weight);
        node_set.insert(p.from);
        if (visited.insert(p.from).second) stack.push_back(p.from);
      }
    }
  }

  out.root = root;
  out.labels = labels;
  for (size_t i = 0; i < dijkstra.num_labels(); ++i) {
    out.label_distances.push_back(dijkstra.Distance(i, root));
  }
  out.nodes.assign(node_set.begin(), node_set.end());
  for (kg::NodeId v : out.nodes) {
    for (size_t i = 0; i < dijkstra.num_labels(); ++i) {
      if (dijkstra.Distance(i, v) == 0.0) {
        out.source_nodes.push_back(v);
        break;
      }
    }
  }
  for (const auto& [key, weight] : edge_weights) {
    const auto& [from, to, pred, forward] = key;
    out.edges.push_back(PathEdge{from, to, pred, weight, forward});
  }
  return out;
}

AncestorGraph MaterializeSinglePaths(const MultiLabelDijkstra& dijkstra,
                                     kg::NodeId root,
                                     const std::vector<std::string>& labels) {
  AncestorGraph out;
  std::set<kg::NodeId> node_set;
  std::set<EdgeKey> edge_set;
  node_set.insert(root);

  for (size_t li = 0; li < dijkstra.num_labels(); ++li) {
    if (dijkstra.Distance(li, root) == kInfDistance) continue;
    // Follow the lexicographically smallest predecessor chain.
    kg::NodeId v = root;
    while (true) {
      // The first appended link among those with the smallest `from`.
      const PredLink* best = nullptr;
      for (const PredLink& p : dijkstra.Predecessors(li, v)) {
        if (best == nullptr || p.from < best->from) best = &p;
      }
      if (best == nullptr) break;  // reached a source (distance 0)
      edge_set.insert(EdgeKey{best->from, v, best->predicate, best->forward});
      node_set.insert(best->from);
      v = best->from;
    }
  }

  out.root = root;
  out.labels = labels;
  for (size_t i = 0; i < dijkstra.num_labels(); ++i) {
    out.label_distances.push_back(dijkstra.Distance(i, root));
  }
  out.nodes.assign(node_set.begin(), node_set.end());
  for (kg::NodeId v : out.nodes) {
    for (size_t i = 0; i < dijkstra.num_labels(); ++i) {
      if (dijkstra.Distance(i, v) == 0.0) {
        out.source_nodes.push_back(v);
        break;
      }
    }
  }
  for (const EdgeKey& key : edge_set) {
    const auto& [from, to, pred, forward] = key;
    out.edges.push_back(PathEdge{from, to, pred, /*weight=*/1.0f, forward});
  }
  return out;
}

// ---------------------------------------------------------------------------
// LcagSearch
// ---------------------------------------------------------------------------

std::vector<std::vector<kg::NodeId>> LcagSearch::ResolveSources(
    const std::vector<std::string>& labels,
    std::vector<std::string>* resolved) const {
  std::vector<std::vector<kg::NodeId>> sources;
  for (const std::string& label : labels) {
    std::span<const kg::NodeId> nodes = index_->Lookup(label);
    if (nodes.empty()) continue;  // unmatched label: dropped (Sec. IV)
    sources.emplace_back(nodes.begin(), nodes.end());
    resolved->push_back(label);
  }
  return sources;
}

LcagResult LcagSearch::Find(const std::vector<std::string>& labels,
                            const LcagOptions& options,
                            const LcagSearchContext& ctx) const {
  std::vector<std::string> resolved;
  std::vector<std::vector<kg::NodeId>> sources =
      ResolveSources(labels, &resolved);
  // Only the m >= 2 case runs Algorithms 1-3 (the expensive search worth
  // caching); empty / single-label groups are answered directly.
  if (ctx.cache == nullptr || sources.size() < 2) {
    return FindResolved(std::move(sources), std::move(resolved), options,
                        ctx.sketch);
  }

  // Canonicalize: sort node ids within each source set, then sort the
  // (label, set) pairs, so permutations of the same entity group share one
  // cache entry. The search itself is order-insensitive up to the label
  // ordering of the output vectors.
  for (std::vector<kg::NodeId>& s : sources) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  std::vector<size_t> order(sources.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (resolved[a] != resolved[b]) return resolved[a] < resolved[b];
    return sources[a] < sources[b];
  });
  std::vector<std::vector<kg::NodeId>> canon_sources(sources.size());
  std::vector<std::string> canon_labels(sources.size());
  for (size_t i = 0; i < order.size(); ++i) {
    canon_sources[i] = std::move(sources[order[i]]);
    canon_labels[i] = std::move(resolved[order[i]]);
  }

  // The key covers exactly the result-determining inputs: the canonical
  // source sets and the options that change what is returned
  // (max_expansions — a truncated small-budget result must never serve a
  // larger budget — plus the two ablation knobs). The sketch is a
  // result-invariant accelerator and stays out.
  const std::string key = LcagCacheKey(canon_sources, canon_labels, options);
  LcagResult result;
  if (ctx.cache->Lookup(key, &result)) return result;
  result = FindResolved(std::move(canon_sources), std::move(canon_labels),
                        options, ctx.sketch);
  // Wall-clock timeouts are non-deterministic; never serve them from cache.
  if (!result.timed_out) ctx.cache->Insert(key, result);
  return result;
}

LcagResult LcagSearch::FindResolved(
    std::vector<std::vector<kg::NodeId>> sources,
    std::vector<std::string> resolved_labels,
    const LcagOptions& options, const LcagSketchIndex* sketch) const {
  LcagResult result;
  result.resolved_labels = std::move(resolved_labels);
  // Sketch fast path: answer from precomputed distance balls when the
  // sketch can prove exactness (lcag_sketch.h); a miss records its reason
  // and falls through to the full search untouched.
  if (sketch != nullptr) {
    result.sketch_miss = TrySketchLcag(*graph_, *sketch, sources,
                                       result.resolved_labels, options,
                                       &result);
    if (result.sketch_hit) return result;
  }
  if (sources.empty()) return result;

  const size_t m = sources.size();
  if (m == 1) {
    // A single entity: G* degenerates to the source set itself (depth 0).
    // With no co-occurring entity there is no context to pick one sense of
    // an ambiguous label, so every node of S(l) is kept.
    std::vector<kg::NodeId> nodes = sources[0];
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    result.found = true;
    result.graph.root = nodes[0];
    result.graph.labels = result.resolved_labels;
    result.graph.label_distances = {0.0};
    result.graph.nodes = nodes;
    result.graph.source_nodes = std::move(nodes);
    return result;
  }

  MultiLabelDijkstra dijkstra(graph_, std::move(sources));

  struct Candidate {
    kg::NodeId root;
    std::vector<double> sorted_distances;  // descending
  };
  std::vector<Candidate> candidates;
  double min_depth = kInfDistance;

  WallTimer timer;
  MultiLabelDijkstra::PopEvent event;
  while (dijkstra.PopNext(&event)) {
    ++result.expansions;
    // Alg. 3: the frontier becomes a candidate root once every label has
    // settled it (so its distance vector is exact).
    if (dijkstra.SettledCount(event.node) == static_cast<int>(m)) {
      std::vector<double> dists(m);
      for (size_t i = 0; i < m; ++i) {
        dists[i] = dijkstra.Distance(i, event.node);
      }
      std::vector<double> sorted = SortedDescending(dists);
      min_depth = std::min(min_depth, sorted[0]);
      candidates.push_back(Candidate{event.node, std::move(sorted)});
    }

    // Termination: C1 (a candidate exists) and C2 (the next frontier
    // distance strictly exceeds min_depth, so no better root can appear;
    // ties continue so equal-depth candidates are still collected).
    if (!candidates.empty()) {
      const double next = dijkstra.PeekMinDistance();
      if (min_depth < next) break;
    }

    if (result.expansions >= options.max_expansions) {
      result.budget_exhausted = true;
      break;
    }
    if ((result.expansions & 0xFF) == 0 &&
        timer.ElapsedSeconds() > options.timeout_seconds) {
      result.timed_out = true;
      break;
    }
  }

  result.candidates_collected = candidates.size();
  if (candidates.empty()) return result;

  // Compactness sorting (Alg. 1 line 14): the minimum under Def. 4 (or, in
  // the depth-only ablation, under the first key alone).
  const Candidate* best = &candidates[0];
  for (const Candidate& c : candidates) {
    bool better;
    if (options.depth_only_root) {
      better = c.sorted_distances[0] < best->sorted_distances[0] ||
               (c.sorted_distances[0] == best->sorted_distances[0] &&
                c.root < best->root);
    } else {
      better = c.sorted_distances < best->sorted_distances ||
               (c.sorted_distances == best->sorted_distances &&
                c.root < best->root);
    }
    if (better) best = &c;
  }

  result.found = true;
  result.graph =
      options.all_shortest_paths
          ? MaterializeAllPaths(dijkstra, best->root, result.resolved_labels)
          : MaterializeSinglePaths(dijkstra, best->root,
                                   result.resolved_labels);
  return result;
}

LcagResult LcagSearch::FindExhaustive(
    const std::vector<std::string>& labels) const {
  LcagResult result;
  std::vector<std::vector<kg::NodeId>> sources =
      ResolveSources(labels, &result.resolved_labels);
  if (sources.empty()) return result;
  const size_t m = sources.size();

  MultiLabelDijkstra dijkstra(graph_, std::move(sources));
  MultiLabelDijkstra::PopEvent event;
  while (dijkstra.PopNext(&event)) ++result.expansions;

  kg::NodeId best_root = kg::kInvalidNode;
  std::vector<double> best_sorted;
  for (kg::NodeId v = 0; v < graph_->num_nodes(); ++v) {
    if (dijkstra.SettledCount(v) != static_cast<int>(m)) continue;
    std::vector<double> dists(m);
    for (size_t i = 0; i < m; ++i) dists[i] = dijkstra.Distance(i, v);
    std::vector<double> sorted = SortedDescending(dists);
    ++result.candidates_collected;
    if (best_root == kg::kInvalidNode || sorted < best_sorted) {
      best_root = v;
      best_sorted = std::move(sorted);
    }
  }
  if (best_root == kg::kInvalidNode) return result;

  result.found = true;
  result.graph =
      MaterializeAllPaths(dijkstra, best_root, result.resolved_labels);
  return result;
}

}  // namespace embed
}  // namespace newslink
