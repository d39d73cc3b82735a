// Document-at-a-time top-k retrieval with MaxScore pruning (Turtle & Flood
// 1995) — the dynamic-pruning family behind the threshold-style top-k
// processing the paper cites for the NS component ([49]). Extended to
// Block-Max MaxScore (Ding & Suel 2011): per-block max-tf bounds let the
// essential lists skip whole blocks whose best possible score cannot beat
// the heap threshold. The retriever returns the top-k of exhaustive TAAT
// scoring, bit for bit, while skipping documents that cannot make the
// heap.

#ifndef NEWSLINK_IR_MAX_SCORE_H_
#define NEWSLINK_IR_MAX_SCORE_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "ir/inverted_index.h"
#include "ir/scorer.h"

namespace newslink {
namespace ir {

/// \brief BM25 top-k with Block-Max MaxScore dynamic pruning.
class MaxScoreRetriever {
 public:
  explicit MaxScoreRetriever(const InvertedIndex* index,
                             Bm25Params params = {})
      : index_(index), params_(params) {}

  /// Register cumulative retrieval series (`<prefix>_maxscore_calls_total`,
  /// `<prefix>_maxscore_docs_scored_total`,
  /// `<prefix>_maxscore_blocks_skipped_total`) in `registry`. Call once at
  /// setup, before queries run; the registry must outlive the retriever.
  void EnableMetrics(metrics::Registry* registry, std::string_view prefix) {
    calls_ = registry->GetCounter(std::string(prefix) + "_maxscore_calls_total",
                                  "TopK invocations");
    docs_scored_counter_ = registry->GetCounter(
        std::string(prefix) + "_maxscore_docs_scored_total",
        "documents fully scored (pruning skips the rest)");
    blocks_skipped_counter_ = registry->GetCounter(
        std::string(prefix) + "_maxscore_blocks_skipped_total",
        "posting blocks skipped without decoding (block-max pruning)");
  }

  /// Top-k documents for the query within `snapshot`: exactly
  /// SelectTopK(Bm25Scorer::ScoreAll(query, snapshot), k), documents,
  /// order and scores bit for bit. Every document that is scored is
  /// scored through the Bm25Query kernel, contributions summed in query
  /// order; pruning only decides which documents those are, with a margin
  /// that absorbs the rounding of its bound-order estimates (see TopK's
  /// body). Exact ties order by doc id.
  ///
  /// Safe to call from many threads concurrently, including while a writer
  /// appends documents: the per-term upper bounds, idf, and avgdl are all
  /// derived from the snapshot, never from live index statistics, so a
  /// concurrent append can neither loosen nor tighten this query's bounds.
  /// (Block-max bounds are monotone under append — the max over a grown
  /// list only rises — so they stay valid upper bounds for the snapshot's
  /// prefix too.) `docs_scored` / `blocks_skipped`, when non-null, receive
  /// this call's counts (the per-thread-accurate way to read the pruning
  /// instrumentation).
  ///
  /// With non-null `collection` (the shard-serving hook), N / avgdl / df /
  /// min-doc-length / term-level max-tf come from it instead of the local
  /// index, so the returned scores equal ScoreAll(query, snapshot,
  /// collection) — the shard's documents scored as members of the whole
  /// collection. Collection-wide max_tf >= the local maximum and a
  /// collection-wide minimum doc length <= the local one only loosen the
  /// pruning bounds, so the result is still exact. Block-level maxima stay
  /// local (they bound local postings, which is all skipping needs).
  ///
  /// With non-null `filter`, rejected candidates are dropped during the
  /// document-at-a-time traversal: their essential cursors advance without
  /// any scoring, `docs_scored` does not count them, and the result equals
  /// the top-k of the accepted documents only. Bound-based skipping stays
  /// valid — the filter only removes candidates, never raises a score.
  std::vector<ScoredDoc> TopK(const TermCounts& query, size_t k,
                              const IndexSnapshot& snapshot,
                              size_t* docs_scored = nullptr,
                              size_t* blocks_skipped = nullptr,
                              const CollectionStats* collection = nullptr,
                              const DocFilter* filter = nullptr) const;
  std::vector<ScoredDoc> TopK(const TermCounts& query, size_t k,
                              size_t* docs_scored = nullptr,
                              size_t* blocks_skipped = nullptr) const {
    return TopK(query, k, index_->Capture(), docs_scored, blocks_skipped);
  }

  /// Number of documents fully scored by the most recent TopK call on any
  /// thread (single-threaded instrumentation; under concurrency use the
  /// `docs_scored` out-parameter instead).
  size_t last_docs_scored() const {
    return last_docs_scored_.load(std::memory_order_relaxed);
  }

  /// Posting blocks skipped without decoding by the most recent TopK call
  /// (same single-threaded caveat as last_docs_scored).
  size_t last_blocks_skipped() const {
    return last_blocks_skipped_.load(std::memory_order_relaxed);
  }

 private:
  const InvertedIndex* index_;
  Bm25Params params_;
  mutable std::atomic<size_t> last_docs_scored_{0};
  mutable std::atomic<size_t> last_blocks_skipped_{0};
  metrics::Counter* calls_ = nullptr;  // null until EnableMetrics
  metrics::Counter* docs_scored_counter_ = nullptr;
  metrics::Counter* blocks_skipped_counter_ = nullptr;
};

}  // namespace ir
}  // namespace newslink

#endif  // NEWSLINK_IR_MAX_SCORE_H_
