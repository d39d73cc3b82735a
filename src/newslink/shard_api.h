// The shard-serving protocol of the NewsLink engines (DESIGN.md Sec. 12):
// the data that travels between the query pipeline (query_pipeline.h) and
// the N document-partition shards, whether in-process or over HTTP
// (/v1/shard/plan + /v1/shard/search with net/api_json as the RPC codec).
//
// Distributed search is two-phase so that scores are bit-identical to a
// single index over the union of all shards:
//
//   1. PLAN — every shard reports, against one pinned epoch, its document
//      count, total token lengths, per-query-term document frequencies and
//      the epoch's publish instant, plus the live index's pruning bounds
//      (min doc lengths, term-level max-tf; positional, aligned with the
//      ShardQuery). The coordinator sums/maxes these into the
//      collection-wide statistics.
//   2. SEARCH — every shard retrieves its per-side top-k' *scored with the
//      collection statistics* (ir::CollectionStats), completes the missing
//      side of each candidate by random access, and returns raw candidate
//      scores plus its raw per-side list maxima and floors. The
//      coordinator takes the collection per-side max over shards, fuses
//      (Eq. 3), merges with one ir::TopKHeap over global corpus rows, and
//      searches deeper where the floors could hide a top-k document. Every
//      engine composition runs this protocol (newslink/query_pipeline.h)
//      — a single engine is a one-shard scatter — so they all share one
//      arithmetic.
//
// Epoch safety: both phases must read one immutable snapshot. In-process
// that is a ShardEpochPin; over RPC the plan response carries the shard's
// epoch, the search request echoes it as `expected_epoch`, and a shard
// whose epoch moved answers FailedPrecondition (HTTP 409) so the
// coordinator re-plans instead of mixing statistics across epochs.

#ifndef NEWSLINK_NEWSLINK_SHARD_API_H_
#define NEWSLINK_NEWSLINK_SHARD_API_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/corpus.h"
#include "ir/inverted_index.h"
#include "ir/text_vectorizer.h"

namespace newslink {

/// Version of the shard RPC surface (requests and responses carry it as
/// `api_version`). Bump on ANY wire-visible change to the structs below —
/// mismatched peers must fail loudly (FailedPrecondition → 409), never
/// drift silently. History:
///   1: initial two-phase plan/search protocol.
///   2: time-aware search — ShardQuery carries the resolved time_range /
///      recency knobs, plans report has_timestamps, and every candidate
///      carries its timestamp so the coordinator's decayed merge matches
///      a single time-aware engine (DESIGN.md Sec. 15).
///   3: "now" pinning — plans report their epoch's publish instant
///      (now_ms; the merge decays against the newest), and ShardQuery
///      drops recency_half_life_s / now_ms, which no shard read (decay is
///      applied at merge).
///   4: search results report per-side floors, from which the coordinator
///      decides whether to search a shard deeper (DESIGN.md Sec. 12).
///   5: messages are the structs below with no envelope: plans nest their
///      ShardStats under "stats", search requests carry ShardStats (now_ms
///      included) under "global", and the unread `shard` and
///      `deadline_seconds` fields are gone.
inline constexpr uint64_t kShardApiVersion = 5;

/// A query's first SEARCH round retrieves k' = max(k, kFirstRoundDepth).
inline constexpr uint64_t kFirstRoundDepth = 64;

/// Multiplicative recency decay (DESIGN.md Sec. 15): 2^(-age / half_life),
/// age clamped at 0 (documents "from the future" are treated as current).
/// Defined inline here — the single arithmetic MergeShardCandidates
/// applies for every engine composition. half_life = +infinity yields exactly 1.0 (multiplying by
/// it is an IEEE identity, the basis of the decay-off exactness property).
inline double RecencyDecay(int64_t timestamp_ms, int64_t now_ms,
                           double half_life_seconds) {
  const double age_ms =
      static_cast<double>(std::max<int64_t>(0, now_ms - timestamp_ms));
  return std::exp2(-age_ms / (half_life_seconds * 1000.0));
}

/// \brief Which corpus rows one shard holds: its local row l is global
/// row offset + stride·l.
///
/// The one partition rule of every sharded composition (DESIGN.md
/// Sec. 12.1): N shards are round-robin slices, so corpus row r lives on
/// shard r mod N at local row r div N, and shard s's local row l is global
/// row l·N + s — a closed form, no id maps kept or shipped. A single engine
/// is stride 1, offset 0; a tier appended after b rows is stride 1,
/// offset b.
struct ShardRows {
  uint32_t stride = 1;
  uint32_t offset = 0;

  /// Shard `shard` of `num_shards` round-robin slices.
  static ShardRows RoundRobin(size_t shard, size_t num_shards) {
    return {static_cast<uint32_t>(num_shards), static_cast<uint32_t>(shard)};
  }

  uint32_t GlobalRow(uint32_t local_row) const {
    return offset + stride * local_row;
  }

  /// The rows of `corpus` this shard holds, in local-row order.
  corpus::Corpus Slice(const corpus::Corpus& corpus) const {
    corpus::Corpus slice;
    for (size_t row = offset; row < corpus.size(); row += stride) {
      slice.Add(corpus.doc(row));
    }
    return slice;
  }
};

/// \brief The two retrieval sides of the fused score (Eq. 3): BOW, BM25
/// over the text stems, and BON, BM25 over the G* subgraph nodes of the NE
/// component. Every per-side field below is an array indexed by Side; the
/// v5 wire (net/api_json.h) carries them under flat "text_" / "node_" and
/// "bow_" / "bon_" names.
enum Side : size_t { kBow = 0, kBon = 1 };
inline constexpr Side kSides[] = {kBow, kBon};
/// Each side's short name, the prefix of its metric series.
inline constexpr std::string_view kSideName[2] = {"bow", "bon"};

/// Eq. 3's weight of `side`: 1 − β for BOW, β for BON. A side is scored
/// only when its weight is positive.
inline double SideWeight(double beta, Side side) {
  return side == kBow ? 1.0 - beta : beta;
}

/// \brief A query in shard-portable form: what to retrieve, prepared once
/// by the coordinator (NLP + NER + query embedding run once, not N times).
///
/// Text terms are stems (dictionary-free, canonical stem order); node
/// terms are KG node ids, which are global — every shard serves the same
/// knowledge graph.
struct ShardQuery {
  /// BOW side, canonical stem order (ir::TextVectorizer::StemsForQuery).
  ir::StemCounts text_stems;
  /// BON side: (node id, query weight) sorted by node id — weights already
  /// carry the source-vs-induced boost.
  ir::TermCounts node_terms;
  /// Which sides to score: SideWeight(β, side) > 0.
  bool use[2] = {true, false};
  /// Per-side candidate depth k', doubled by every deeper SEARCH round.
  uint64_t kprime = kFirstRoundDepth;
  /// Exactness oracle: score every posting instead of MaxScore top-k'.
  bool exhaustive = false;

  /// Publication-time pre-filter [after_ms, before_ms) pushed into each
  /// shard's posting traversal when set (v2). Recency decay is not here:
  /// it is applied at merge (ShardFuseParams).
  bool has_time_range = false;
  int64_t after_ms = 0;
  int64_t before_ms = std::numeric_limits<int64_t>::max();
};

/// \brief One side's collection statistics for a query. total_length
/// and df are read from the pinned epoch; min_doc_length and max_tf are
/// the live index's pruning bounds (DESIGN.md Sec. 12.1).
struct ShardSideStats {
  uint64_t total_length = 0;
  uint32_t min_doc_length = 0;  // 0 when empty
  /// Positional, aligned with the side's query terms; empty when the side
  /// is not scored.
  std::vector<uint64_t> df;
  std::vector<uint32_t> max_tf;
};

/// \brief Collection statistics for one query: one shard's (in its PLAN
/// answer) or the collection's (MergeShardPlan over every shard's, sent
/// back with SEARCH). num_docs and has_timestamps are read from the
/// pinned epoch.
struct ShardStats {
  uint64_t num_docs = 0;
  ShardSideStats side[2];
  /// Whether any document carries a real timestamp (the merge only decays
  /// when some shard has one).
  bool has_timestamps = false;
  /// Publish instant of the pinned epoch, epoch ms (v3): the shard's
  /// pinned "now" (DESIGN.md Sec. 15.2). Merged, the newest shard's: the
  /// recency decay reference unless a request pins its own. Shards never
  /// read it.
  int64_t now_ms = 0;
};

/// \brief Phase-1 answer: one shard's statistics for the query, against
/// the epoch it pinned.
struct ShardPlan {
  uint64_t epoch = 0;
  ShardStats stats;
};

/// Fold one shard's statistics into the collection's (counts sum, max-tfs
/// max, min-lengths min over non-empty shards, has_timestamps or, now_ms
/// max).
void MergeShardPlan(const ShardStats& shard, ShardStats* out);

/// \brief One candidate document of one shard, scores raw (unnormalized)
/// and computed with the collection statistics.
struct ShardCandidate {
  /// Corpus row within the shard (the shard's external doc id).
  uint32_t doc = 0;
  /// Raw BM25 score per side (0 on a side that does not match).
  double score[2] = {0.0, 0.0};
  /// Publication timestamp (epoch ms, 0 = unknown): the input the merge's
  /// recency decay needs, so it never has to call back into a shard.
  int64_t ts = 0;
};

/// \brief One side of one shard's phase-2 answer.
struct ShardSideResult {
  /// Raw maximum of the side's list, 0 when it is empty (the coordinator
  /// maxes these over shards, then applies the >0-else-1 guard once).
  double max = 0.0;
  /// Raw score of the last entry of a list of k' entries, else 0 (every
  /// matching document of the side is a candidate); v4.
  double floor = 0.0;
  /// Documents fully scored on the side, fill-ins included.
  uint64_t scored = 0;
};

/// \brief Phase-2 answer: one shard's candidate union. Per-side lists are
/// best-first, so the max of the shards' maxima is the union's.
struct ShardSearchResult {
  uint64_t epoch = 0;
  uint64_t snapshot_docs = 0;
  ShardSideResult side[2];
  std::vector<ShardCandidate> candidates;
};

class NewsLinkEngine;

/// \brief An opaque pin on one published engine epoch.
///
/// PlanShard and SearchShard against the same pin are guaranteed to read
/// the same immutable index state even while AddDocument publishes new
/// epochs concurrently. Copyable; the pinned snapshot is reclaimed when
/// the last pin (and concurrent query) releases it.
class ShardEpochPin {
 public:
  ShardEpochPin() = default;

  uint64_t epoch() const { return epoch_; }
  uint64_t num_docs() const { return num_docs_; }
  bool valid() const { return snapshot_ != nullptr; }

 private:
  friend class NewsLinkEngine;
  std::shared_ptr<const void> snapshot_;
  uint64_t epoch_ = 0;
  uint64_t num_docs_ = 0;
};

}  // namespace newslink

#endif  // NEWSLINK_NEWSLINK_SHARD_API_H_
