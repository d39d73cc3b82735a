#include "ir/scorer.h"

#include <cmath>
#include <unordered_map>

namespace newslink {
namespace ir {

namespace {

std::vector<ScoredDoc> AccumulatorsToVector(
    const std::unordered_map<DocId, double>& acc) {
  std::vector<ScoredDoc> out;
  out.reserve(acc.size());
  for (const auto& [doc, score] : acc) out.push_back(ScoredDoc{doc, score});
  return out;
}

}  // namespace

double Bm25Scorer::IdfValue(double num_docs, double df) {
  return std::log(1.0 + (num_docs - df + 0.5) / (df + 0.5));
}

double Bm25Scorer::Idf(TermId term, const IndexSnapshot& snapshot) const {
  return IdfValue(static_cast<double>(snapshot.num_docs),
                  static_cast<double>(index_->DocFreq(term, snapshot)));
}

Bm25Query::Bm25Query(const InvertedIndex& index, const Bm25Params& params,
                     const TermCounts& query, const IndexSnapshot& snapshot,
                     const CollectionStats* collection)
    : index_(&index),
      params_(params),
      k1_plus_1_(params.k1 + 1.0),
      avgdl_(collection ? collection->avg_doc_length()
                        : snapshot.avg_doc_length()) {
  // The live MinDocLength() only ever decreases, so it lower-bounds this
  // snapshot's prefix even under concurrent append; a collection-wide
  // minimum (shard serving) is <= the local one. Either way no document
  // has a smaller norm.
  norm_min_ = Norm(collection ? collection->min_doc_length
                              : index.MinDocLength());
  const double n = static_cast<double>(
      collection ? collection->num_docs : snapshot.num_docs);
  terms_.reserve(query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    const auto& [term, qtf] = query[i];
    const PostingView postings = index.Postings(term, snapshot);
    if (postings.empty()) continue;
    const double df = static_cast<double>(
        collection ? collection->df[i] : postings.size());
    terms_.push_back(
        Term{term, i, postings, qtf * Bm25Scorer::IdfValue(n, df)});
  }
}

std::vector<ScoredDoc> Bm25Scorer::ScoreAll(
    const TermCounts& query, const IndexSnapshot& snapshot,
    const CollectionStats* collection, const DocFilter* filter) const {
  const Bm25Query bm25(*index_, params_, query, snapshot, collection);
  // Term at a time in query order: every accumulator receives its
  // document's contributions in the kernel's summation order.
  std::unordered_map<DocId, double> acc;
  for (const Bm25Query::Term& term : bm25.terms()) {
    for (const Posting& p : term.postings) {
      if (filter != nullptr && !filter->Accept(p.doc)) continue;
      acc[p.doc] += bm25.Contribution(term, p.tf, bm25.DocNorm(p.doc));
    }
  }
  return AccumulatorsToVector(acc);
}

std::vector<double> Bm25Scorer::ScoreDocs(
    const TermCounts& query, std::span<const DocId> docs,
    const IndexSnapshot& snapshot, const CollectionStats* collection) const {
  const Bm25Query bm25(*index_, params_, query, snapshot, collection);
  std::vector<PostingCursor> cursors;
  cursors.reserve(bm25.terms().size());
  for (const Bm25Query::Term& term : bm25.terms()) {
    cursors.emplace_back(term.postings);
  }
  std::vector<double> scores(docs.size(), 0.0);
  for (size_t j = 0; j < docs.size(); ++j) {
    const DocId doc = docs[j];
    const double norm = bm25.DocNorm(doc);
    double score = 0.0;
    for (size_t t = 0; t < cursors.size(); ++t) {  // query order
      cursors[t].SeekAtLeast(doc);
      if (cursors[t].doc() != doc) continue;
      score += bm25.Contribution(bm25.terms()[t], cursors[t].posting().tf,
                                 norm);
    }
    scores[j] = score;
  }
  return scores;
}

}  // namespace ir
}  // namespace newslink
