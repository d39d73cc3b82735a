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

TfIdfCosineScorer::TfIdfCosineScorer(const InvertedIndex* index)
    : index_(index) {
  Norms(index_->Capture());  // eager first computation, as before
}

std::shared_ptr<const std::vector<double>> TfIdfCosineScorer::ComputeNorms(
    const IndexSnapshot& snapshot) const {
  auto norms = std::make_shared<std::vector<double>>(snapshot.num_docs, 0.0);
  for (TermId t = 0; t < snapshot.num_terms; ++t) {
    const double idf = Idf(t, snapshot);
    for (const Posting& p : index_->Postings(t, snapshot)) {
      const double w = (1.0 + std::log(static_cast<double>(p.tf))) * idf;
      (*norms)[p.doc] += w * w;
    }
  }
  for (double& n : *norms) n = n > 0 ? std::sqrt(n) : 1.0;
  return norms;
}

std::shared_ptr<const std::vector<double>> TfIdfCosineScorer::Norms(
    const IndexSnapshot& snapshot) const {
  {
    std::lock_guard<std::mutex> lock(norms_mu_);
    if (doc_norms_ != nullptr && doc_norms_->size() == snapshot.num_docs) {
      return doc_norms_;
    }
  }
  // Computed outside the lock: a slow recompute must not serialize queries
  // that already have a matching cache entry.
  auto norms = ComputeNorms(snapshot);
  std::lock_guard<std::mutex> lock(norms_mu_);
  // Keep the cache monotone: only advance it, so one stale reader cannot
  // evict the entry every concurrent fresh reader wants.
  if (doc_norms_ == nullptr || doc_norms_->size() < norms->size()) {
    doc_norms_ = norms;
  }
  return norms;
}

double TfIdfCosineScorer::Idf(TermId term,
                              const IndexSnapshot& snapshot) const {
  const double n = static_cast<double>(snapshot.num_docs);
  const double df = static_cast<double>(index_->DocFreq(term, snapshot));
  if (df == 0.0) return 0.0;
  return std::log(1.0 + n / df);
}

std::vector<ScoredDoc> TfIdfCosineScorer::ScoreAll(
    const TermCounts& query, const IndexSnapshot& snapshot) const {
  const std::shared_ptr<const std::vector<double>> doc_norms = Norms(snapshot);
  // Query norm.
  double qnorm = 0.0;
  for (const auto& [term, qtf] : query) {
    const double w =
        (1.0 + std::log(static_cast<double>(qtf))) * Idf(term, snapshot);
    qnorm += w * w;
  }
  qnorm = qnorm > 0 ? std::sqrt(qnorm) : 1.0;

  std::unordered_map<DocId, double> acc;
  for (const auto& [term, qtf] : query) {
    const double idf = Idf(term, snapshot);
    if (idf == 0.0) continue;
    const double qw = (1.0 + std::log(static_cast<double>(qtf))) * idf;
    for (const Posting& p : index_->Postings(term, snapshot)) {
      const double dw = (1.0 + std::log(static_cast<double>(p.tf))) * idf;
      acc[p.doc] += qw * dw;
    }
  }
  std::vector<ScoredDoc> out;
  out.reserve(acc.size());
  for (const auto& [doc, dot] : acc) {
    out.push_back(ScoredDoc{doc, dot / (qnorm * (*doc_norms)[doc])});
  }
  return out;
}

}  // namespace ir
}  // namespace newslink
