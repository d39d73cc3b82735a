// Coordinator-side halves of the shard protocol (shard_api.h): merging
// per-shard plans into collection statistics and fusing per-shard
// candidates into the final top-k. The query pipeline
// (newslink/query_pipeline.h) runs them for every engine composition, so
// all merge with literally the same arithmetic.

#ifndef NEWSLINK_NEWSLINK_SHARD_MERGE_H_
#define NEWSLINK_NEWSLINK_SHARD_MERGE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ir/scorer.h"
#include "newslink/shard_api.h"

namespace newslink {

/// How to fuse (request knobs resolved against the engine config).
struct ShardFuseParams {
  /// Eq. 3's β: the sides fused are those SideWeight(beta, side) > 0.
  double beta = 0.2;
  size_t k = 10;
  /// Recency decay inputs (DESIGN.md Sec. 15). Decay multiplies each
  /// candidate's fused score by RecencyDecay(ts, now_ms, half_life) — but
  /// only when recency_half_life_s > 0 AND has_timestamps (from the merged
  /// plan): a timestamp-free collection must score bit-identically to the
  /// pre-time engine.
  double recency_half_life_s = 0.0;
  int64_t now_ms = 0;
  bool has_timestamps = false;
};

/// Fuse every answering shard's candidates (Eq. 3 with per-side max
/// normalization) and merge into the top-k, tie-broken toward smaller
/// global corpus rows.
///
/// `to_global(shard_index, local_row)` maps a shard's corpus row to the
/// row in the union corpus; `shard_index` indexes `shards`. Entries of
/// `shards` may be null (a shard that failed or missed its deadline —
/// degraded merge over the rest).
std::vector<ir::ScoredDoc> MergeShardCandidates(
    const ShardFuseParams& params,
    const std::vector<const ShardSearchResult*>& shards,
    const std::function<uint32_t(size_t, uint32_t)>& to_global);

/// The answering shards that must be searched deeper before `merged`
/// (MergeShardCandidates over `shards`) is the exhaustive fusion's top k:
/// the Threshold Algorithm's stopping rule (Fagin, Lotem & Naor, PODS
/// 2001). A shard's bound τ is the merge's own fusion (Eq. 3) of its
/// per-side floors: no candidate it has not returned can score above τ
/// (DESIGN.md Sec. 7). A shard with a positive floor is named when τ ≥ the
/// k-th merged score (an unseen tie wins on a smaller global row) or fewer
/// than k documents merged.
std::vector<size_t> ShardsToDeepen(
    const ShardFuseParams& params,
    const std::vector<const ShardSearchResult*>& shards,
    const std::vector<ir::ScoredDoc>& merged);

}  // namespace newslink

#endif  // NEWSLINK_NEWSLINK_SHARD_MERGE_H_
