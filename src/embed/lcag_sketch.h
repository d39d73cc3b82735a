// Precomputed distance sketches for the NE hot path (ROADMAP item 3):
// per-node truncated-Dijkstra balls over the KG, built once at index time,
// so most entity groups answer LCAG extraction (Algs. 1-3) by intersecting
// sketches instead of running a multi-source graph search.
//
// Exactness contract. Ball(v) holds EVERY node within `radius` of v with
// its exact shortest distance (unless the ball hit `max_ball_nodes`, which
// sets the truncated flag and disqualifies v from the fast path). Distances
// accumulate source-outward prefix sums exactly like MultiLabelDijkstra's
// relaxation, so the merged per-label minima are bit-identical to the
// values the full search would settle — which is what lets TrySketchLcag
// return results (root, distance vector, predecessor DAG, tie order) that
// are indistinguishable from LcagSearch::Find's. Any group the sketch
// cannot prove exact (a truncated source ball, or no common ancestor
// inside the radius) falls back to the full search; the fast path never
// guesses.
//
// The index depends only on the immutable KnowledgeGraph — never on the
// corpus or the engine epoch — so one build stays valid for the engine's
// lifetime and is persisted as the "lcag_sketch" snapshot section
// (format v3, DESIGN.md Sec. 14).

#ifndef NEWSLINK_EMBED_LCAG_SKETCH_H_
#define NEWSLINK_EMBED_LCAG_SKETCH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "embed/lcag_search.h"
#include "kg/knowledge_graph.h"

namespace newslink {

class ThreadPool;

namespace embed {

/// Build-time knobs (NewsLinkConfig::lcag_sketch; `build-index --sketches`).
struct LcagSketchOptions {
  /// Build sketches at index time and use them on the query path.
  bool enabled = false;
  /// Ball cutoff: every node within this shortest-path distance is kept.
  /// LCAGs deeper than the radius fall back to the full search.
  double radius = 3.0;
  /// Cap on settled nodes per ball; a ball that hits the cap before
  /// exhausting the radius is marked truncated and never used (exactness
  /// beats coverage). Bounds build memory on hub-dominated graphs.
  uint32_t max_ball_nodes = 1024;
};

/// \brief Immutable per-node distance-sketch index over one KnowledgeGraph.
class LcagSketchIndex {
 public:
  /// One ball, parallel spans sorted by ascending node id.
  struct BallView {
    std::span<const kg::NodeId> nodes;
    std::span<const double> distances;
    bool truncated = false;
  };

  LcagSketchIndex() = default;

  /// One truncated Dijkstra per node, parallelized across nodes on `pool`
  /// when given (the build is deterministic either way: per-node balls are
  /// independent and concatenated in node order).
  static LcagSketchIndex Build(const kg::KnowledgeGraph& graph,
                               const LcagSketchOptions& options,
                               ThreadPool* pool = nullptr);

  size_t num_nodes() const { return truncated_.size(); }
  double radius() const { return radius_; }
  uint32_t max_ball_nodes() const { return max_ball_; }
  /// Sum of all ball sizes (memory / stats).
  size_t total_entries() const { return entry_nodes_.size(); }

  BallView Ball(kg::NodeId v) const {
    const size_t begin = offsets_[v];
    const size_t end = offsets_[v + 1];
    return BallView{{entry_nodes_.data() + begin, end - begin},
                    {entry_distances_.data() + begin, end - begin},
                    truncated_[v] != 0};
  }

  /// Deterministic codec for the "lcag_sketch" snapshot section: identical
  /// indexes serialize to identical bytes (byte-identical re-save).
  void Serialize(ByteWriter* out) const;
  /// Bounds-checked inverse; rejects inconsistent offsets/counts.
  static Status Deserialize(ByteReader* reader, LcagSketchIndex* out);

 private:
  double radius_ = 0.0;
  uint32_t max_ball_ = 0;
  std::vector<uint64_t> offsets_;  // size num_nodes + 1
  std::vector<kg::NodeId> entry_nodes_;
  std::vector<double> entry_distances_;
  std::vector<uint8_t> truncated_;  // size num_nodes
};

/// Attempt to answer one resolved LCAG search (label source sets) from
/// sketches alone. Returns SketchMiss::kNone and fills `*result` with an
/// answer bit-identical to LcagSearch::Find's (root, label_distances,
/// nodes, edges, source_nodes, compactness tie order, `sketch_hit` set).
/// Otherwise it returns why exactness cannot be proven — the search is
/// ineligible, a source ball is truncated, or no common ancestor lies
/// within the radius — leaves `*result` untouched, and the caller runs the
/// full search.
SketchMiss TrySketchLcag(const kg::KnowledgeGraph& graph,
                         const LcagSketchIndex& sketch,
                         const std::vector<std::vector<kg::NodeId>>& sources,
                         const std::vector<std::string>& resolved_labels,
                         const LcagOptions& options, LcagResult* result);

}  // namespace embed
}  // namespace newslink

#endif  // NEWSLINK_EMBED_LCAG_SKETCH_H_
