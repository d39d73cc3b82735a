#include "ir/max_score.h"

#include <algorithm>
#include <limits>

#include "ir/top_k.h"

namespace newslink {
namespace ir {

std::vector<ScoredDoc> MaxScoreRetriever::TopK(
    const TermCounts& query, size_t k, const IndexSnapshot& snapshot,
    size_t* docs_scored, size_t* blocks_skipped,
    const CollectionStats* collection, const DocFilter* filter) const {
  size_t scored = 0;
  size_t skipped_blocks = 0;
  const Bm25Query bm25(*index_, params_, query, snapshot, collection);
  struct Term {
    const Bm25Query::Term* bm25;
    uint32_t position;  // in bm25.terms(): where the contribution is summed
    PostingCursor cursor;
    TermBlockMax blocks;
    double bound;  // maximum possible contribution of this term
    // Block-max bound and last doc of the block the cursor is in, valid
    // while cursor.pos() / kPostingBlockSize == block: an essential term
    // refreshes them only when its cursor enters a new block.
    size_t block = std::numeric_limits<size_t>::max();
    double block_bound = 0.0;
    DocId block_last_doc = kInvalidDoc;
  };
  std::vector<Term> terms;
  terms.reserve(bm25.terms().size());
  for (const Bm25Query::Term& term : bm25.terms()) {
    // The term's max tf caps every posting (the live max is a superset
    // max, hence still valid for this snapshot's prefix). With collection
    // stats the cap is the collection-wide maximum, >= any local tf —
    // looser, but the bound ordering is identical to a single index over
    // the union.
    const TermBlockMax blocks = index_->BlockMax(term.id);
    const uint32_t tf_cap =
        collection ? collection->max_tf[term.query_index] : blocks.max_tf;
    terms.push_back(Term{&term, static_cast<uint32_t>(terms.size()),
                         PostingCursor(term.postings), blocks,
                         bm25.Bound(term, tf_cap)});
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
  // grows.
  std::stable_sort(terms.begin(), terms.end(),
                   [](const Term& a, const Term& b) {
                     return a.bound < b.bound;
                   });
  std::vector<double> prefix(terms.size() + 1, 0.0);
  for (size_t i = 0; i < terms.size(); ++i) {
    prefix[i + 1] = prefix[i] + terms[i].bound;
  }

  // The pruning margin. A document is only ever dropped because an upper
  // estimate of its score — contributions added in bound order plus term
  // or block bounds — falls below the threshold, the k-th best score
  // summed in query order. Each contribution and each bound is a real
  // number rounded through four operations (relative error <= 4u,
  // u = 2^-53), the bound's real is >= the contribution's, and an estimate
  // or a canonical sum adds at most n nonnegative terms through at most
  // n - 1 rounded additions. So a document's canonical score is at most
  // its estimate times 1 + (2n + 6)u + O(u^2); a document that reaches its
  // bounds (tf == max_tf at the minimum length) can exceed its estimate in
  // the last bits. Comparing estimates with threshold * (1 - (n + 8)2^-52)
  // (the product rounds by at most u more) never drops a document whose
  // canonical score reaches the threshold.
  const double margin = static_cast<double>(terms.size() + 8) * 0x1p-52;
  std::vector<double> contribution(terms.size(), 0.0);
  std::vector<uint64_t> matched((terms.size() + 63) / 64, 0);

  TopKHeap heap(k);
  size_t first_essential = 0;

  while (true) {
    // terms[0..first_essential) cannot alone lift a doc over the threshold.
    const double bar = heap.Threshold() * (1.0 - margin);
    while (first_essential < terms.size() &&
           prefix[first_essential + 1] < bar) {
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

    // Block-max check: bound the best score any doc in [next, safe_end]
    // could reach, where safe_end is the smallest current-block-end doc
    // across the essential lists (every essential posting for a doc in
    // that range lies inside its list's current block, so the block max
    // caps its tf). If even that bound cannot reach the threshold, jump
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
              bm25.Bound(*term.bm25, term.blocks.block_max->At(block));
          term.block_last_doc =
              postings[std::min((block + 1) * kPostingBlockSize, n) - 1].doc;
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
    // safe_end >= next, so the range is never empty and the skip below
    // always advances the cursor that defined `next`.
    if (upper < bar) {
      for (size_t t = first_essential; t < terms.size(); ++t) {
        PostingCursor& cursor = terms[t].cursor;
        if (cursor.doc() == kInvalidDoc) continue;
        const size_t old_block = cursor.pos() / kPostingBlockSize;
        cursor.SeekAtLeast(safe_end + 1);
        skipped_blocks += cursor.pos() / kPostingBlockSize - old_block;
      }
      continue;
    }

    // Score essential terms at `next`, advancing their cursors. The length
    // norm depends on the document only, so it is computed once.
    const double norm = bm25.DocNorm(next);
    double estimate = 0.0;
    const auto add = [&](const Term& term, uint32_t tf) {
      const double c = bm25.Contribution(*term.bm25, tf, norm);
      contribution[term.position] = c;
      matched[term.position / 64] |= uint64_t{1} << (term.position % 64);
      estimate += c;
    };
    for (size_t t = first_essential; t < terms.size(); ++t) {
      PostingCursor& cursor = terms[t].cursor;
      if (cursor.doc() == next) {
        add(terms[t], cursor.posting().tf);
        cursor.Next();
      }
    }

    // Probe non-essential terms, best bound first, dropping the document
    // once even the remaining bounds cannot reach the threshold.
    // Candidates ascend, so each probe gallops forward from where the
    // term's cursor last stopped.
    bool dropped = false;
    for (size_t t = first_essential; t-- > 0;) {
      if (estimate + prefix[t + 1] < bar) {
        dropped = true;
        break;
      }
      PostingCursor& cursor = terms[t].cursor;
      cursor.SeekAtLeast(next);
      if (cursor.doc() == next) add(terms[t], cursor.posting().tf);
    }

    ++scored;
    if (!dropped) {
      heap.Push(ScoredDoc{next, Bm25Query::Sum(matched, contribution)});
    }
    std::fill(matched.begin(), matched.end(), 0);
  }
  return finish(heap.Take());
}

}  // namespace ir
}  // namespace newslink
