#include "ir/max_score.h"

#include <algorithm>
#include <limits>

#include "ir/top_k.h"

namespace newslink {
namespace ir {

double MaxScoreRetriever::Norm(DocId doc, double avgdl) const {
  const double dl = static_cast<double>(index_->DocLength(doc));
  return params_.k1 *
         (1.0 - params_.b + params_.b * (avgdl > 0 ? dl / avgdl : 0.0));
}

double MaxScoreRetriever::TfBound(uint32_t max_tf, double norm_min) const {
  // tf * (k1+1) / (tf + c) is nondecreasing in tf for c >= 0, so plugging
  // a lower bound on the norm and the maximum tf bounds every posting from
  // above.
  const double tf = static_cast<double>(max_tf);
  return tf * (params_.k1 + 1.0) / (tf + norm_min);
}

std::vector<ScoredDoc> MaxScoreRetriever::TopK(
    const TermCounts& query, size_t k, const IndexSnapshot& snapshot,
    size_t* docs_scored, size_t* blocks_skipped,
    const CollectionStats* collection, const DocFilter* filter) const {
  size_t scored = 0;
  size_t skipped_blocks = 0;
  const double avgdl =
      collection ? collection->avg_doc_length() : snapshot.avg_doc_length();
  const double num_docs = static_cast<double>(
      collection ? collection->num_docs : snapshot.num_docs);
  // Smallest norm any scored doc can have: norm is increasing in dl, the
  // live MinDocLength() only ever decreases, and Norm() uses this same
  // snapshot avgdl — so this floor is valid even under concurrent append.
  // A collection-wide minimum (shard serving) is <= the local one: bounds
  // merely loosen.
  const double min_dl = static_cast<double>(
      collection ? collection->min_doc_length : index_->MinDocLength());
  const double norm_min = std::max(
      0.0, params_.k1 * (1.0 - params_.b +
                         params_.b * (avgdl > 0 ? min_dl / avgdl : 0.0)));
  const double k1_plus_1 = params_.k1 + 1.0;
  struct Term {
    PostingCursor cursor;
    TermBlockMax blocks;
    double weight;  // qtf * idf
    double bound;   // maximum possible contribution of this term
    // Block-max bound and last doc of the block the cursor is in, valid
    // while cursor.pos() / kPostingBlockSize == block: an essential term
    // refreshes them only when its cursor enters a new block.
    size_t block = std::numeric_limits<size_t>::max();
    double block_bound = 0.0;
    DocId block_last_doc = kInvalidDoc;
  };
  std::vector<Term> terms;
  terms.reserve(query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    const auto& [term, qtf] = query[i];
    const PostingView postings = index_->Postings(term, snapshot);
    if (postings.empty()) continue;
    const double idf =
        collection
            ? Bm25Scorer::IdfValue(num_docs,
                                   static_cast<double>(collection->df[i]))
            : scorer_.Idf(term, snapshot);
    const double weight = qtf * idf;
    // tf * (k1+1) / (tf + norm) < (k1 + 1) for norm > 0; == at norm == 0.
    double bound = weight * k1_plus_1;
    TermBlockMax blocks;
    if (options_.use_block_max) {
      blocks = index_->BlockMax(term);
      // Tighter: the term's max tf caps every posting (the live max is a
      // superset max, hence still valid for this snapshot's prefix). With
      // collection stats the cap is the collection-wide maximum, >= any
      // local tf — looser but keeps the bound ordering identical to a
      // single index over the union.
      const uint32_t tf_cap =
          collection ? collection->max_tf[i] : blocks.max_tf;
      if (tf_cap > 0) {
        bound = weight * TfBound(tf_cap, norm_min);
      }
    }
    terms.push_back(Term{PostingCursor(postings), blocks, weight, bound});
  }
  auto finish = [&](std::vector<ScoredDoc> result) {
    last_docs_scored_.store(scored, std::memory_order_relaxed);
    last_blocks_skipped_.store(skipped_blocks, std::memory_order_relaxed);
    if (docs_scored != nullptr) *docs_scored = scored;
    if (blocks_skipped != nullptr) *blocks_skipped = skipped_blocks;
    if (calls_ != nullptr) {
      calls_->Inc();
      docs_scored_counter_->Inc(scored);
      blocks_skipped_counter_->Inc(skipped_blocks);
    }
    return result;
  };
  if (terms.empty() || k == 0) return finish({});

  // Ascending by bound: terms[0..e) become non-essential as the threshold
  // grows. Stable, so equal-bound terms keep their query order — a shard
  // evaluating a sub-collection with CollectionStats accumulates per-doc
  // contributions in the same sequence as a single index over the union.
  std::stable_sort(terms.begin(), terms.end(),
                   [](const Term& a, const Term& b) {
                     return a.bound < b.bound;
                   });
  std::vector<double> prefix(terms.size() + 1, 0.0);
  for (size_t i = 0; i < terms.size(); ++i) {
    prefix[i + 1] = prefix[i] + terms[i].bound;
  }

  TopKHeap heap(k);
  size_t first_essential = 0;

  while (true) {
    // terms[0..first_essential) cannot alone lift a doc over the threshold.
    // Strict comparison: exact ties must still be scored, because a tying
    // doc with a smaller id displaces the heap's worst entry.
    const double threshold = heap.Threshold();
    while (first_essential < terms.size() &&
           prefix[first_essential + 1] < threshold) {
      ++first_essential;
    }
    if (first_essential >= terms.size()) break;  // nothing can qualify

    // Next candidate: smallest doc id among essential cursors (exhausted
    // cursors sit at kInvalidDoc).
    DocId next = kInvalidDoc;
    for (size_t t = first_essential; t < terms.size(); ++t) {
      next = std::min(next, terms[t].cursor.doc());
    }
    if (next == kInvalidDoc) break;

    // Filter pushdown: a rejected candidate is dropped here, before any
    // scoring — its essential cursors advance past it and `scored` stays
    // untouched, so the docs_scored counters surface the pruning.
    if (filter != nullptr && !filter->Accept(next)) {
      for (size_t t = first_essential; t < terms.size(); ++t) {
        if (terms[t].cursor.doc() == next) terms[t].cursor.Next();
      }
      continue;
    }

    if (options_.use_block_max) {
      // Block-max check: bound the best score any doc in [next, safe_end]
      // could reach, where safe_end is the smallest current-block-end doc
      // across the essential lists (every essential posting for a doc in
      // that range lies inside its list's current block, so the block max
      // caps its tf). If even that bound cannot beat the threshold, jump
      // all essential cursors past safe_end without decoding a thing.
      double upper = prefix[first_essential];
      DocId safe_end = kInvalidDoc;
      for (size_t t = first_essential; t < terms.size(); ++t) {
        Term& term = terms[t];
        if (term.cursor.doc() == kInvalidDoc) continue;
        const size_t block = term.cursor.pos() / kPostingBlockSize;
        if (block != term.block) {
          term.block = block;
          const PostingView& postings = term.cursor.view();
          const size_t n = postings.size();
          if (block < term.blocks.num_blocks) {
            term.block_bound =
                term.weight *
                TfBound(term.blocks.block_max->At(block), norm_min);
            term.block_last_doc =
                postings[std::min((block + 1) * kPostingBlockSize, n) - 1]
                    .doc;
          } else {
            // Open tail block (no published block max): fall back to the
            // term-level bound over the rest of the list.
            term.block_bound = term.bound;
            term.block_last_doc = postings[n - 1].doc;
          }
        }
        upper += term.block_bound;
        safe_end = std::min(safe_end, term.block_last_doc);
      }
      // Strict: a doc tying the threshold must still be scored (it can
      // displace the heap's worst entry), so only skip when even the upper
      // bound falls short. safe_end >= next, so the range is never empty
      // and the skip below always advances the cursor that defined `next`.
      if (upper < threshold) {
        for (size_t t = first_essential; t < terms.size(); ++t) {
          PostingCursor& cursor = terms[t].cursor;
          if (cursor.doc() == kInvalidDoc) continue;
          const size_t old_block = cursor.pos() / kPostingBlockSize;
          cursor.SeekAtLeast(safe_end + 1);
          skipped_blocks += cursor.pos() / kPostingBlockSize - old_block;
        }
        continue;
      }
    }

    // Score essential terms at `next`, advancing their cursors. The length
    // norm depends on the document only, so it is computed once.
    const double norm = Norm(next, avgdl);
    double score = 0.0;
    for (size_t t = first_essential; t < terms.size(); ++t) {
      PostingCursor& cursor = terms[t].cursor;
      if (cursor.doc() == next) {
        const double tf = static_cast<double>(cursor.posting().tf);
        score += terms[t].weight * tf * k1_plus_1 / (tf + norm);
        cursor.Next();
      }
    }

    // Probe non-essential terms, best bound first, pruning when even the
    // remaining bounds cannot reach the threshold. Strict comparison for
    // the same tie-displacement reason as above. Candidates ascend, so
    // each probe gallops forward from where the term's cursor last
    // stopped.
    for (size_t t = first_essential; t-- > 0;) {
      if (score + prefix[t + 1] < threshold) break;
      PostingCursor& cursor = terms[t].cursor;
      cursor.SeekAtLeast(next);
      if (cursor.doc() == next) {
        const double tf = static_cast<double>(cursor.posting().tf);
        score += terms[t].weight * tf * k1_plus_1 / (tf + norm);
      }
    }

    ++scored;
    heap.Push(ScoredDoc{next, score});
  }
  return finish(heap.Take());
}

}  // namespace ir
}  // namespace newslink
