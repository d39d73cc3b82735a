#include "embed/lcag_sketch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "common/thread_pool.h"
#include "embed/search_scratch.h"

namespace newslink {
namespace embed {

namespace {

struct BallEntry {
  kg::NodeId node;
  double distance;
};

struct BallResult {
  std::vector<BallEntry> entries;  // sorted by node id
  bool truncated = false;
};

/// Truncated Dijkstra from `origin`: every node within `radius` with its
/// exact distance, unless more than `max_ball` nodes settle first. Pruning
/// relaxations beyond the radius is exact: with positive weights the
/// prefix distances along any shortest path are non-decreasing, so a node
/// within the radius is reachable through prefixes within the radius.
BallResult BuildBall(const kg::KnowledgeGraph& graph, kg::NodeId origin,
                     double radius, uint32_t max_ball) {
  BallResult out;
  ScratchLease lease;
  SearchScratch& scratch = *lease;
  scratch.Begin(graph.num_nodes(), 1);
  scratch.Touch(0, origin).distance = 0.0;
  scratch.PushFrontier({0.0, origin, 0});

  while (!scratch.FrontierEmpty()) {
    const FrontierEntry top = scratch.FrontierTop();
    SearchScratch::Slot* rec = scratch.Find(0, top.node);
    if (rec->settled || top.distance > rec->distance) {
      scratch.PopFrontier();  // stale
      continue;
    }
    if (top.distance > radius) break;  // ball complete within the radius
    if (out.entries.size() >= max_ball) {
      // A valid in-radius entry remains but the cap is hit: this ball can
      // no longer prove completeness, so mark it unusable.
      out.truncated = true;
      break;
    }
    scratch.PopFrontier();
    rec->settled = true;
    out.entries.push_back(BallEntry{top.node, top.distance});
    for (const kg::Arc& arc : graph.OutArcs(top.node)) {
      const double nd = top.distance + arc.weight;
      if (nd > radius) continue;
      SearchScratch::Slot& nb = scratch.Touch(0, arc.dst);
      if (nb.settled || nd >= nb.distance) continue;
      nb.distance = nd;
      scratch.PushFrontier({nd, arc.dst, 0});
    }
  }

  std::sort(out.entries.begin(), out.entries.end(),
            [](const BallEntry& a, const BallEntry& b) {
              return a.node < b.node;
            });
  return out;
}

}  // namespace

LcagSketchIndex LcagSketchIndex::Build(const kg::KnowledgeGraph& graph,
                                       const LcagSketchOptions& options,
                                       ThreadPool* pool) {
  const size_t n = graph.num_nodes();
  std::vector<BallResult> balls(n);
  auto build_one = [&](size_t v) {
    balls[v] = BuildBall(graph, static_cast<kg::NodeId>(v), options.radius,
                         options.max_ball_nodes);
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, build_one);
  } else {
    for (size_t v = 0; v < n; ++v) build_one(v);
  }

  LcagSketchIndex index;
  index.radius_ = options.radius;
  index.max_ball_ = options.max_ball_nodes;
  index.offsets_.reserve(n + 1);
  index.offsets_.push_back(0);
  index.truncated_.reserve(n);
  size_t total = 0;
  for (const BallResult& ball : balls) total += ball.entries.size();
  index.entry_nodes_.reserve(total);
  index.entry_distances_.reserve(total);
  for (const BallResult& ball : balls) {
    for (const BallEntry& e : ball.entries) {
      index.entry_nodes_.push_back(e.node);
      index.entry_distances_.push_back(e.distance);
    }
    index.offsets_.push_back(index.entry_nodes_.size());
    index.truncated_.push_back(ball.truncated ? 1 : 0);
  }
  return index;
}

void LcagSketchIndex::Serialize(ByteWriter* out) const {
  out->WriteU32(static_cast<uint32_t>(num_nodes()));
  out->WriteDouble(radius_);
  out->WriteU32(max_ball_);
  for (size_t v = 0; v < num_nodes(); ++v) {
    const size_t begin = offsets_[v];
    const size_t end = offsets_[v + 1];
    out->WriteU8(truncated_[v]);
    out->WriteVarint(static_cast<uint32_t>(end - begin));
    kg::NodeId prev = 0;
    for (size_t i = begin; i < end; ++i) {
      // Balls are sorted by node id, so deltas are small and non-negative.
      out->WriteVarint(entry_nodes_[i] - prev);
      out->WriteDouble(entry_distances_[i]);
      prev = entry_nodes_[i];
    }
  }
}

Status LcagSketchIndex::Deserialize(ByteReader* reader, LcagSketchIndex* out) {
  uint32_t num_nodes = 0;
  NL_RETURN_IF_ERROR(reader->ReadU32(&num_nodes));
  NL_RETURN_IF_ERROR(reader->CheckCount(num_nodes, 2));

  LcagSketchIndex index;
  NL_RETURN_IF_ERROR(reader->ReadDouble(&index.radius_));
  NL_RETURN_IF_ERROR(reader->ReadU32(&index.max_ball_));
  index.offsets_.reserve(num_nodes + 1);
  index.offsets_.push_back(0);
  index.truncated_.reserve(num_nodes);
  for (uint32_t v = 0; v < num_nodes; ++v) {
    uint8_t truncated = 0;
    NL_RETURN_IF_ERROR(reader->ReadU8(&truncated));
    if (truncated > 1) {
      return Status::IOError("lcag_sketch: invalid truncation flag");
    }
    uint32_t ball_size = 0;
    NL_RETURN_IF_ERROR(reader->ReadVarint(&ball_size));
    NL_RETURN_IF_ERROR(reader->CheckCount(ball_size, 9));
    kg::NodeId prev = 0;
    for (uint32_t i = 0; i < ball_size; ++i) {
      uint32_t delta = 0;
      NL_RETURN_IF_ERROR(reader->ReadVarint(&delta));
      double distance = 0.0;
      NL_RETURN_IF_ERROR(reader->ReadDouble(&distance));
      const uint64_t node = static_cast<uint64_t>(prev) + delta;
      // Deltas must keep node ids strictly increasing (after the first)
      // and inside the graph; distances exact shortest paths are finite
      // and non-negative.
      if (node >= num_nodes || (i > 0 && delta == 0)) {
        return Status::IOError("lcag_sketch: ball node ids out of order");
      }
      // std::signbit additionally rejects -0.0, which no correctly built
      // ball contains (and which would break byte-identical re-saves).
      if (!(distance >= 0.0) || std::signbit(distance) ||
          distance > index.radius_) {
        return Status::IOError("lcag_sketch: ball distance out of range");
      }
      index.entry_nodes_.push_back(static_cast<kg::NodeId>(node));
      index.entry_distances_.push_back(distance);
      prev = static_cast<kg::NodeId>(node);
    }
    index.offsets_.push_back(index.entry_nodes_.size());
    index.truncated_.push_back(truncated);
  }
  *out = std::move(index);
  return Status::OK();
}

namespace {

using EdgeKey = std::tuple<kg::NodeId, kg::NodeId, kg::PredicateId, bool>;

/// Merge the source balls of label `label` into D(l, .) = min over sources,
/// kept in `scratch`. False when any ball is truncated (the merged
/// distances could under-cover).
bool MergeLabel(const LcagSketchIndex& sketch,
                const std::vector<kg::NodeId>& sources, size_t label,
                SearchScratch* scratch) {
  for (kg::NodeId s : sources) {
    const LcagSketchIndex::BallView ball = sketch.Ball(s);
    if (ball.truncated) return false;
    for (size_t i = 0; i < ball.nodes.size(); ++i) {
      SearchScratch::Slot& slot = scratch->Touch(label, ball.nodes[i]);
      slot.distance = std::min(slot.distance, ball.distances[i]);
    }
  }
  return true;
}

/// The predecessor set of `v` w.r.t. one label, reconstructed from the
/// merged distances. Exactly the links MultiLabelDijkstra's relaxation
/// would have recorded: the bi-directed CSR stores, for every arc u->v,
/// its reverse twin at v, so enumerating OutArcs(v) and flipping `forward`
/// enumerates the in-arcs — and the tightness predicate
/// D(l,u) + w == D(l,v) uses the same float operations relaxation uses.
template <typename Fn>
void ForEachPred(const kg::KnowledgeGraph& graph, const SearchScratch& dists,
                 size_t label, kg::NodeId v, double dv, Fn&& fn) {
  for (const kg::Arc& arc : graph.OutArcs(v)) {
    const double du = dists.Distance(label, arc.dst);
    if (du == kInfDistance) continue;
    if (du + arc.weight == dv) {
      fn(PredLink{arc.dst, arc.predicate, arc.weight, !arc.forward});
    }
  }
}

/// Mirror of MaterializeAllPaths over sketch distances.
AncestorGraph SketchMaterializeAllPaths(
    const kg::KnowledgeGraph& graph, const SearchScratch& dists,
    kg::NodeId root, const std::vector<std::string>& labels) {
  AncestorGraph out;
  std::set<kg::NodeId> node_set;
  std::map<EdgeKey, float> edge_weights;
  node_set.insert(root);

  for (size_t li = 0; li < dists.num_labels(); ++li) {
    std::vector<kg::NodeId> stack = {root};
    std::set<kg::NodeId> visited = {root};
    while (!stack.empty()) {
      const kg::NodeId v = stack.back();
      stack.pop_back();
      const double dv = dists.Distance(li, v);
      ForEachPred(graph, dists, li, v, dv, [&](const PredLink& p) {
        edge_weights.emplace(EdgeKey{p.from, v, p.predicate, p.forward},
                             p.weight);
        node_set.insert(p.from);
        if (visited.insert(p.from).second) stack.push_back(p.from);
      });
    }
  }

  out.root = root;
  out.labels = labels;
  for (size_t li = 0; li < dists.num_labels(); ++li) {
    out.label_distances.push_back(dists.Distance(li, root));
  }
  out.nodes.assign(node_set.begin(), node_set.end());
  for (kg::NodeId v : out.nodes) {
    for (size_t li = 0; li < dists.num_labels(); ++li) {
      if (dists.Distance(li, v) == 0.0) {
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

/// Mirror of MaterializeSinglePaths. The sequential code keeps, among the
/// predecessors with the smallest `from`, the FIRST one appended — which is
/// the first tight arc in OutArcs(min_from) order, since all of one node's
/// links are appended during its single settle event.
AncestorGraph SketchMaterializeSinglePaths(
    const kg::KnowledgeGraph& graph, const SearchScratch& dists,
    kg::NodeId root, const std::vector<std::string>& labels) {
  AncestorGraph out;
  std::set<kg::NodeId> node_set;
  std::set<EdgeKey> edge_set;
  node_set.insert(root);

  for (size_t li = 0; li < dists.num_labels(); ++li) {
    if (dists.Distance(li, root) == kInfDistance) continue;
    kg::NodeId v = root;
    while (true) {
      const double dv = dists.Distance(li, v);
      kg::NodeId best_from = kg::kInvalidNode;
      ForEachPred(graph, dists, li, v, dv, [&](const PredLink& p) {
        best_from = std::min(best_from, p.from);
      });
      if (best_from == kg::kInvalidNode) break;  // reached a source
      const double du = dists.Distance(li, best_from);
      bool stepped = false;
      for (const kg::Arc& arc : graph.OutArcs(best_from)) {
        if (arc.dst != v) continue;
        if (du + arc.weight != dv) continue;  // first tight arc wins
        edge_set.insert(EdgeKey{best_from, v, arc.predicate, arc.forward});
        node_set.insert(best_from);
        v = best_from;
        stepped = true;
        break;
      }
      if (!stepped) break;  // defensive; the tight twin must exist
    }
  }

  out.root = root;
  out.labels = labels;
  for (size_t li = 0; li < dists.num_labels(); ++li) {
    out.label_distances.push_back(dists.Distance(li, root));
  }
  out.nodes.assign(node_set.begin(), node_set.end());
  for (kg::NodeId v : out.nodes) {
    for (size_t li = 0; li < dists.num_labels(); ++li) {
      if (dists.Distance(li, v) == 0.0) {
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

}  // namespace

SketchMiss TrySketchLcag(const kg::KnowledgeGraph& graph,
                         const LcagSketchIndex& sketch,
                         const std::vector<std::vector<kg::NodeId>>& sources,
                         const std::vector<std::string>& resolved_labels,
                         const LcagOptions& options, LcagResult* result) {
  if (sources.size() < 2) return SketchMiss::kIneligible;
  if (sketch.num_nodes() != graph.num_nodes()) return SketchMiss::kIneligible;
  // A shrunken expansion budget can truncate the full search into a
  // deliberately suboptimal answer; the sketch path cannot reproduce that
  // truncation, so it only serves searches with at least the default
  // budget (where Algorithms 1-3 run to C1/C2 termination).
  if (options.max_expansions < LcagOptions{}.max_expansions) {
    return SketchMiss::kIneligible;
  }

  const size_t m = sources.size();
  ScratchLease lease;
  SearchScratch& dists = *lease;
  dists.Begin(graph.num_nodes(), m);
  for (size_t i = 0; i < m; ++i) {
    if (!MergeLabel(sketch, sources[i], i, &dists)) {
      return SketchMiss::kTruncatedBall;
    }
  }

  // Candidate roots: common ancestors whose every label distance fits the
  // radius. If the best of them has depth d*, every node the full search
  // could prefer has all distances <= d* <= radius, hence is also here —
  // so a non-empty intersection yields the global compactness optimum.
  struct Candidate {
    kg::NodeId root;
    std::vector<double> sorted_distances;
  };
  Candidate best;
  best.root = kg::kInvalidNode;
  size_t candidates = 0;
  std::vector<double> raw(m);
  for (const kg::NodeId v : dists.touched()) {
    bool common = true;
    for (size_t i = 0; i < m && common; ++i) {
      raw[i] = dists.Distance(i, v);
      common = raw[i] != kInfDistance;
    }
    if (!common) continue;
    ++candidates;
    std::vector<double> sorted = SortedDescending(raw);
    bool better;
    if (best.root == kg::kInvalidNode) {
      better = true;
    } else if (options.depth_only_root) {
      better = sorted[0] < best.sorted_distances[0] ||
               (sorted[0] == best.sorted_distances[0] && v < best.root);
    } else {
      better = sorted < best.sorted_distances ||
               (sorted == best.sorted_distances && v < best.root);
    }
    if (better) {
      best.root = v;
      best.sorted_distances = std::move(sorted);
    }
  }
  if (best.root == kg::kInvalidNode) return SketchMiss::kNoCommonAncestor;

  result->found = true;
  result->sketch_hit = true;
  result->candidates_collected = candidates;
  result->graph = options.all_shortest_paths
                      ? SketchMaterializeAllPaths(graph, dists, best.root,
                                                  resolved_labels)
                      : SketchMaterializeSinglePaths(graph, dists, best.root,
                                                     resolved_labels);
  return SketchMiss::kNone;
}

}  // namespace embed
}  // namespace newslink
