// Relevance scoring over an InvertedIndex: BM25 (Robertson & Zaragoza 2009,
// the paper's term weighting, with Lucene 7.x default parameters).
//
// Every scoring method is parameterized by an ir::IndexSnapshot so that all
// collection statistics (N, df, avgdl, norms) come from one published epoch
// — a query never mixes statistics from before and after a concurrent
// append. The snapshot-free overloads capture the current extents on entry
// and exist for single-phase engines (index once, then query).

#ifndef NEWSLINK_IR_SCORER_H_
#define NEWSLINK_IR_SCORER_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "ir/inverted_index.h"

namespace newslink {
namespace ir {

struct ScoredDoc {
  DocId doc = kInvalidDoc;
  double score = 0.0;

  bool operator==(const ScoredDoc& o) const {
    return doc == o.doc && score == o.score;
  }
};

struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

/// \brief Document admission predicate pushed down into retrieval (the
/// time_range filter of DESIGN.md Sec. 15 travels through this).
///
/// A plain function pointer + context instead of std::function or a
/// virtual: the posting-traversal loops are the hottest code in the
/// engine, and a direct call through a stable pointer keeps them
/// branch-predictable. `accept` takes doc ids in the INDEX's id space
/// (internal ids when the engine reordered documents) and must be a pure
/// function of snapshot-bounded state for the duration of the query.
/// Rejected documents are skipped during traversal — never scored, never
/// counted in docs_scored — so filtering prunes work instead of
/// truncating an unfiltered top-k.
struct DocFilter {
  bool (*accept)(const void* ctx, DocId doc) = nullptr;
  const void* ctx = nullptr;

  bool Accept(DocId doc) const {
    return accept == nullptr || accept(ctx, doc);
  }
};

/// \brief Collection-level statistics to score with *instead of* the
/// snapshot's own.
///
/// The distributed-search hook: a shard holding one partition of a corpus
/// scores its documents with the statistics of the whole collection (union
/// of shards) so that per-document BM25 values are bit-identical to a
/// single index over the union. Document-level inputs (tf, doc length)
/// still come from the local index — only N, avgdl, df, and the pruning
/// bounds' inputs are replaced.
///
/// `df` (and `max_tf`, when used for bounds) are aligned *by query
/// position*: entry i describes the i-th entry of the TermCounts passed
/// alongside, because local term ids differ per shard and cannot key a
/// shared table.
struct CollectionStats {
  uint64_t num_docs = 0;
  uint64_t total_length = 0;
  /// Smallest document length in the collection (bounds input; a global
  /// minimum is <= any local one, so bounds stay valid upper bounds).
  uint32_t min_doc_length = 0;
  /// Collection document frequency of query entry i.
  std::vector<uint64_t> df;
  /// Collection-wide maximum tf of query entry i (0 = unknown; bounds then
  /// fall back to the loose (k1+1) cap).
  std::vector<uint32_t> max_tf;

  /// Mirrors IndexSnapshot::avg_doc_length() arithmetic exactly.
  double avg_doc_length() const {
    return num_docs == 0 ? 0.0
                         : static_cast<double>(total_length) /
                               static_cast<double>(num_docs);
  }
};

/// \brief One query's BM25 terms prepared against one snapshot: the single
/// place the BM25 scoring decision is made.
///
/// Every query term with postings in the snapshot is kept, in query order,
/// with its weight qtf * idf (df from `collection` when given, else from
/// the snapshot). The kernel also owns the document length norm
/// k1 * (1 - b + b * dl / avgdl), a term's contribution
/// weight * tf * (k1 + 1) / (tf + norm), and the summation rule: **a
/// document's score is the sum of its contributions in query-term order,
/// starting from 0.0.** Bm25Scorer::ScoreAll (the oracle),
/// Bm25Scorer::ScoreDocs (the fill-in) and MaxScoreRetriever::TopK all
/// score through it, so they agree bit for bit.
class Bm25Query {
 public:
  struct Term {
    TermId id = kInvalidTerm;
    /// Position in the TermCounts the kernel was built from (the index
    /// CollectionStats::df / max_tf are aligned by).
    size_t query_index = 0;
    PostingView postings;
    double weight = 0.0;  // qtf * idf
  };

  /// `index` must outlive the kernel; `collection` is only read here.
  Bm25Query(const InvertedIndex& index, const Bm25Params& params,
            const TermCounts& query, const IndexSnapshot& snapshot,
            const CollectionStats* collection);

  /// Query order; terms without postings in the snapshot are dropped
  /// (they match no document).
  const std::vector<Term>& terms() const { return terms_; }

  /// Length norm of a document of `length` tokens. Nondecreasing in
  /// `length`, in floating point too (each operation rounds monotonically).
  double Norm(uint32_t length) const {
    const double dl = static_cast<double>(length);
    return params_.k1 *
           (1.0 - params_.b + params_.b * (avgdl_ > 0 ? dl / avgdl_ : 0.0));
  }
  double DocNorm(DocId doc) const { return Norm(index_->DocLength(doc)); }

  /// The contribution of `term` at frequency `tf` to a document with
  /// length norm `norm`.
  double Contribution(const Term& term, uint32_t tf, double norm) const {
    const double t = static_cast<double>(tf);
    return term.weight * t * k1_plus_1_ / (t + norm);
  }

  /// Upper bound (before rounding) on `term`'s contribution to any
  /// collection document whose tf is at most `max_tf`: the real-valued
  /// contribution rises with tf and falls with the norm, and no document
  /// is shorter than the collection's minimum length. `max_tf == 0` means
  /// unknown and gives the supremum over all tf, weight * (k1 + 1).
  double Bound(const Term& term, uint32_t max_tf) const {
    return max_tf == 0 ? term.weight * k1_plus_1_
                       : Contribution(term, max_tf, norm_min_);
  }

  /// A document's score from its contributions, under the one summation
  /// order: `matched` is a bitset over terms() positions (bit p % 64 of
  /// word p / 64) marking the terms the document matches, and
  /// `contribution[p]` is terms()[p]'s contribution. Walking the set bits
  /// upwards adds them in query order, without sorting.
  static double Sum(std::span<const uint64_t> matched,
                    std::span<const double> contribution) {
    double score = 0.0;
    for (size_t w = 0; w < matched.size(); ++w) {
      for (uint64_t bits = matched[w]; bits != 0; bits &= bits - 1) {
        score += contribution[w * 64 + std::countr_zero(bits)];
      }
    }
    return score;
  }

 private:
  const InvertedIndex* index_;
  Bm25Params params_;
  double k1_plus_1_;
  double avgdl_;
  double norm_min_;  // Norm of the collection's shortest document
  std::vector<Term> terms_;
};

/// \brief Term-at-a-time BM25 scorer.
class Bm25Scorer {
 public:
  explicit Bm25Scorer(const InvertedIndex* index, Bm25Params params = {})
      : index_(index), params_(params) {}

  /// Lucene-style BM25 idf: ln(1 + (N - df + 0.5) / (df + 0.5)); always > 0.
  double Idf(TermId term, const IndexSnapshot& snapshot) const;
  double Idf(TermId term) const { return Idf(term, index_->Capture()); }

  /// The idf formula on raw statistics — the one arithmetic every path
  /// (snapshot-local or CollectionStats-overridden) goes through, so a
  /// shard given the collection's (N, df) reproduces the exact bits.
  static double IdfValue(double num_docs, double df);

  /// Score every snapshot document containing at least one query term:
  /// the exhaustive oracle every pruned path is checked against.
  /// Query term multiplicity contributes linearly, as in Lucene.
  /// With non-null `collection`, N / avgdl / df come from it (df by query
  /// position) instead of the snapshot; postings and doc lengths are still
  /// the snapshot's. With non-null `filter`, rejected documents are
  /// skipped during posting traversal (they never enter an accumulator).
  std::vector<ScoredDoc> ScoreAll(const TermCounts& query,
                                  const IndexSnapshot& snapshot,
                                  const CollectionStats* collection = nullptr,
                                  const DocFilter* filter = nullptr) const;
  std::vector<ScoredDoc> ScoreAll(const TermCounts& query) const {
    return ScoreAll(query, index_->Capture());
  }

  /// BM25 scores of strictly ascending `docs` (each below
  /// snapshot.num_docs): element j equals docs[j]'s ScoreAll score bit for
  /// bit (0 when no term matches). Every list is walked by one forward
  /// cursor across the whole batch — the candidate fill-in after pruned
  /// retrieval. `collection` as in ScoreAll.
  std::vector<double> ScoreDocs(
      const TermCounts& query, std::span<const DocId> docs,
      const IndexSnapshot& snapshot,
      const CollectionStats* collection = nullptr) const;

 private:
  const InvertedIndex* index_;
  Bm25Params params_;
};

}  // namespace ir
}  // namespace newslink

#endif  // NEWSLINK_IR_SCORER_H_
