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
    std::vector<std::vector<kg::NodeId>> sources)
    : graph_(graph) {
  states_.resize(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    // Dedupe: entity groups can repeat an id (e.g. the same label resolved
    // twice in one segment). A duplicate source must not enter the frontier
    // twice — the second pop would settle the node again, double-counting
    // it in SettledCount()/total_pops() and skewing the C1/C2 test.
    std::vector<kg::NodeId>& src = sources[i];
    std::sort(src.begin(), src.end());
    src.erase(std::unique(src.begin(), src.end()), src.end());
    for (kg::NodeId v : src) {
      NodeState& st = states_[i].nodes[v];
      st.distance = 0.0;
      states_[i].frontier.push(QueueEntry{0.0, v});
    }
  }
}

void MultiLabelDijkstra::SkimFrontier(LabelState* state) {
  while (!state->frontier.empty()) {
    const QueueEntry& top = state->frontier.top();
    auto it = state->nodes.find(top.node);
    NL_DCHECK(it != state->nodes.end());
    // Stale if already settled or superseded by a shorter tentative path.
    if (it->second.settled || top.distance > it->second.distance) {
      state->frontier.pop();
      continue;
    }
    return;
  }
}

double MultiLabelDijkstra::PeekMinDistance() {
  double best = kInfDistance;
  for (LabelState& state : states_) {
    SkimFrontier(&state);
    if (!state.frontier.empty()) {
      best = std::min(best, state.frontier.top().distance);
    }
  }
  return best;
}

bool MultiLabelDijkstra::PopNext(PopEvent* event) {
  // Equation 2: argmin over all frontier tops.
  size_t best_label = states_.size();
  double best_distance = kInfDistance;
  kg::NodeId best_node = kg::kInvalidNode;
  for (size_t i = 0; i < states_.size(); ++i) {
    SkimFrontier(&states_[i]);
    if (states_[i].frontier.empty()) continue;
    const QueueEntry& top = states_[i].frontier.top();
    if (top.distance < best_distance ||
        (top.distance == best_distance && top.node < best_node)) {
      best_label = i;
      best_distance = top.distance;
      best_node = top.node;
    }
  }
  if (best_label == states_.size()) return false;

  LabelState& state = states_[best_label];
  state.frontier.pop();
  NodeState& st = state.nodes[best_node];
  NL_DCHECK(!st.settled);
  st.settled = true;

  // Relax neighbours in the bi-directed view (Alg. 2 lines 4-8).
  for (const kg::Arc& arc : graph_->OutArcs(best_node)) {
    const double nd = best_distance + arc.weight;
    NodeState& nb = state.nodes[arc.dst];
    if (nb.settled) continue;  // weights are positive: cannot improve
    if (nd < nb.distance) {
      nb.distance = nd;
      nb.preds.clear();
      nb.preds.push_back(
          PredLink{best_node, arc.predicate, arc.weight, arc.forward});
      state.frontier.push(QueueEntry{nd, arc.dst});
    } else if (nd == nb.distance) {
      // A tied shortest path: extend the DAG (coverage property).
      nb.preds.push_back(
          PredLink{best_node, arc.predicate, arc.weight, arc.forward});
    }
  }
  ++settled_count_[best_node];
  ++total_pops_;

  event->label_index = best_label;
  event->node = best_node;
  event->distance = best_distance;
  return true;
}

double MultiLabelDijkstra::Distance(size_t label_index, kg::NodeId v) const {
  const auto& nodes = states_[label_index].nodes;
  auto it = nodes.find(v);
  return it == nodes.end() ? kInfDistance : it->second.distance;
}

bool MultiLabelDijkstra::Settled(size_t label_index, kg::NodeId v) const {
  const auto& nodes = states_[label_index].nodes;
  auto it = nodes.find(v);
  return it != nodes.end() && it->second.settled;
}

int MultiLabelDijkstra::SettledCount(kg::NodeId v) const {
  auto it = settled_count_.find(v);
  return it == settled_count_.end() ? 0 : it->second;
}

const std::vector<PredLink>& MultiLabelDijkstra::Predecessors(
    size_t label_index, kg::NodeId v) const {
  static const std::vector<PredLink> kEmpty;
  const auto& nodes = states_[label_index].nodes;
  auto it = nodes.find(v);
  return it == nodes.end() ? kEmpty : it->second.preds;
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
      const std::vector<PredLink>& preds = dijkstra.Predecessors(li, v);
      if (preds.empty()) break;  // reached a source (distance 0)
      const PredLink* best = &preds[0];
      for (const PredLink& p : preds) {
        if (p.from < best->from) best = &p;
      }
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

  // Sketch fast path: answer from precomputed distance balls when the
  // sketch can prove exactness (lcag_sketch.h); a miss falls through to
  // the full search untouched.
  if (sketch != nullptr &&
      TrySketchLcag(*graph_, *sketch, sources, result.resolved_labels,
                    options, &result)) {
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
