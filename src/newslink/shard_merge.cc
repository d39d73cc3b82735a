#include "newslink/shard_merge.h"

#include <algorithm>
#include <limits>

#include "ir/top_k.h"

namespace newslink {

void MergeShardPlan(const ShardStats& shard, ShardStats* out) {
  const bool first_nonempty = out->num_docs == 0;
  out->num_docs += shard.num_docs;
  for (const Side side : kSides) {
    const ShardSideStats& in = shard.side[side];
    ShardSideStats& merged = out->side[side];
    merged.total_length += in.total_length;
    // Empty shards report min length 0; skipping them keeps the collection
    // floor tight (a looser floor is still correct, just prunes less).
    if (shard.num_docs > 0) {
      merged.min_doc_length =
          first_nonempty ? in.min_doc_length
                         : std::min(merged.min_doc_length, in.min_doc_length);
    }
    if (merged.df.empty()) merged.df.resize(in.df.size(), 0);
    if (merged.max_tf.empty()) merged.max_tf.resize(in.max_tf.size(), 0);
    for (size_t i = 0; i < in.df.size(); ++i) merged.df[i] += in.df[i];
    for (size_t i = 0; i < in.max_tf.size(); ++i) {
      merged.max_tf[i] = std::max(merged.max_tf[i], in.max_tf[i]);
    }
  }
  out->has_timestamps = out->has_timestamps || shard.has_timestamps;
  out->now_ms = std::max(out->now_ms, shard.now_ms);
}

namespace {

/// Eq. 3 on raw side scores over the collection per-side maxima. Per-side
/// lists are best-first, so the max over shard maxima is the union's true
/// maximum; the >0-else-1 guard is applied exactly once, here. The terms
/// of the sides with a positive weight are added in a fixed order, bow
/// first. Nondecreasing in each side's score, in floating point too,
/// which ShardsToDeepen's bound relies on.
struct Fusion {
  Fusion(const ShardFuseParams& params,
         const std::vector<const ShardSearchResult*>& shards) {
    for (const Side side : kSides) {
      weight[side] = SideWeight(params.beta, side);
      for (const ShardSearchResult* shard : shards) {
        if (shard == nullptr) continue;
        max[side] = std::max(max[side], shard->side[side].max);
      }
      max[side] = max[side] > 0.0 ? max[side] : 1.0;
    }
  }

  double operator()(const double (&score)[2]) const {
    double fused = 0.0;
    for (const Side side : kSides) {
      if (weight[side] > 0.0) {
        fused += weight[side] * (score[side] / max[side]);
      }
    }
    return fused;
  }

  double weight[2] = {0.0, 0.0};
  double max[2] = {0.0, 0.0};
};

}  // namespace

std::vector<ir::ScoredDoc> MergeShardCandidates(
    const ShardFuseParams& params,
    const std::vector<const ShardSearchResult*>& shards,
    const std::function<uint32_t(size_t, uint32_t)>& to_global) {
  const Fusion fuse(params, shards);
  // Eq. 3 per candidate, then one heap over global rows. Shards partition
  // the corpus, so no document appears twice.
  const bool decay =
      params.has_timestamps && params.recency_half_life_s > 0.0;
  ir::TopKHeap heap(params.k);
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shards[s] == nullptr) continue;
    for (const ShardCandidate& c : shards[s]->candidates) {
      double fused = fuse(c.score);
      // Fuse first, then multiply by the time decay (DESIGN.md Sec. 15).
      if (decay) {
        fused *= RecencyDecay(c.ts, params.now_ms, params.recency_half_life_s);
      }
      heap.Push(ir::ScoredDoc{to_global(s, c.doc), fused});
    }
  }
  return heap.Take();
}

std::vector<size_t> ShardsToDeepen(
    const ShardFuseParams& params,
    const std::vector<const ShardSearchResult*>& shards,
    const std::vector<ir::ScoredDoc>& merged) {
  std::vector<size_t> deepen;
  if (params.k == 0) return deepen;
  const Fusion fuse(params, shards);
  const double kth = merged.size() < params.k
                         ? -std::numeric_limits<double>::infinity()
                         : merged.back().score;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardSearchResult* shard = shards[s];
    if (shard == nullptr) continue;
    double floor[2];
    bool open = false;
    for (const Side side : kSides) {
      floor[side] = shard->side[side].floor;
      open = open || floor[side] > 0.0;
    }
    if (open && fuse(floor) >= kth) {
      deepen.push_back(s);
    }
  }
  return deepen;
}

}  // namespace newslink
