#include "newslink/shard_merge.h"

#include <algorithm>
#include <limits>

#include "ir/top_k.h"

namespace newslink {

void MergeShardPlan(const ShardStats& shard, ShardStats* out) {
  const bool first_nonempty = out->num_docs == 0;
  out->num_docs += shard.num_docs;
  out->text_total_length += shard.text_total_length;
  out->node_total_length += shard.node_total_length;
  // Empty shards report min length 0; skipping them keeps the collection
  // floor tight (a looser floor is still correct, just prunes less).
  if (shard.num_docs > 0) {
    if (first_nonempty) {
      out->text_min_doc_length = shard.text_min_doc_length;
      out->node_min_doc_length = shard.node_min_doc_length;
    } else {
      out->text_min_doc_length =
          std::min(out->text_min_doc_length, shard.text_min_doc_length);
      out->node_min_doc_length =
          std::min(out->node_min_doc_length, shard.node_min_doc_length);
    }
  }
  auto fold = [](const std::vector<uint64_t>& df,
                 const std::vector<uint32_t>& max_tf,
                 std::vector<uint64_t>* df_out,
                 std::vector<uint32_t>* tf_out) {
    if (df_out->empty()) df_out->resize(df.size(), 0);
    if (tf_out->empty()) tf_out->resize(max_tf.size(), 0);
    for (size_t i = 0; i < df.size(); ++i) (*df_out)[i] += df[i];
    for (size_t i = 0; i < max_tf.size(); ++i) {
      (*tf_out)[i] = std::max((*tf_out)[i], max_tf[i]);
    }
  };
  fold(shard.text_df, shard.text_max_tf, &out->text_df, &out->text_max_tf);
  fold(shard.node_df, shard.node_max_tf, &out->node_df, &out->node_max_tf);
  out->has_timestamps = out->has_timestamps || shard.has_timestamps;
  out->now_ms = std::max(out->now_ms, shard.now_ms);
}

namespace {

/// Eq. 3 on raw side scores over the collection per-side maxima. Per-side
/// lists are best-first, so the max over shard maxima is the union's true
/// maximum; the >0-else-1 guard is applied exactly once, here. The two
/// terms are added in a fixed order, bow first. Nondecreasing in `bow` and
/// `bon`, in floating point too, which ShardsToDeepen's bound relies on.
struct Fusion {
  Fusion(const ShardFuseParams& p,
         const std::vector<const ShardSearchResult*>& shards)
      : params(p) {
    for (const ShardSearchResult* shard : shards) {
      if (shard == nullptr) continue;
      bow_max = std::max(bow_max, shard->bow_max);
      bon_max = std::max(bon_max, shard->bon_max);
    }
    bow_max = bow_max > 0.0 ? bow_max : 1.0;
    bon_max = bon_max > 0.0 ? bon_max : 1.0;
  }

  double operator()(double bow, double bon) const {
    double fused = 0.0;
    if (params.use_bow) fused += (1.0 - params.beta) * (bow / bow_max);
    if (params.use_bon) fused += params.beta * (bon / bon_max);
    return fused;
  }

  const ShardFuseParams& params;
  double bow_max = 0.0;
  double bon_max = 0.0;
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
      double fused = fuse(c.bow, c.bon);
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
    const bool open = shard->bow_floor > 0.0 || shard->bon_floor > 0.0;
    if (open && fuse(shard->bow_floor, shard->bon_floor) >= kth) {
      deepen.push_back(s);
    }
  }
  return deepen;
}

}  // namespace newslink
