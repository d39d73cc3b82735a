#include "ir/scorer.h"

#include <algorithm>
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

std::vector<ScoredDoc> Bm25Scorer::ScoreAll(
    const TermCounts& query, const IndexSnapshot& snapshot,
    const CollectionStats* collection, const DocFilter* filter) const {
  std::unordered_map<DocId, double> acc;
  const double avgdl =
      collection ? collection->avg_doc_length() : snapshot.avg_doc_length();
  const double n = static_cast<double>(
      collection ? collection->num_docs : snapshot.num_docs);
  for (size_t i = 0; i < query.size(); ++i) {
    const auto& [term, qtf] = query[i];
    const double df = static_cast<double>(
        collection ? collection->df[i] : index_->DocFreq(term, snapshot));
    const double idf = IdfValue(n, df);
    for (const Posting& p : index_->Postings(term, snapshot)) {
      if (filter != nullptr && !filter->Accept(p.doc)) continue;
      const double dl = static_cast<double>(index_->DocLength(p.doc));
      const double norm =
          params_.k1 * (1.0 - params_.b +
                        params_.b * (avgdl > 0 ? dl / avgdl : 0.0));
      const double tf = static_cast<double>(p.tf);
      acc[p.doc] += qtf * idf * tf * (params_.k1 + 1.0) / (tf + norm);
    }
  }
  return AccumulatorsToVector(acc);
}

double Bm25Scorer::ScoreDoc(const TermCounts& query, DocId doc,
                            const IndexSnapshot& snapshot,
                            const CollectionStats* collection) const {
  const double avgdl =
      collection ? collection->avg_doc_length() : snapshot.avg_doc_length();
  const double n = static_cast<double>(
      collection ? collection->num_docs : snapshot.num_docs);
  const double dl = static_cast<double>(index_->DocLength(doc));
  const double norm =
      params_.k1 *
      (1.0 - params_.b + params_.b * (avgdl > 0 ? dl / avgdl : 0.0));
  double score = 0.0;
  for (size_t i = 0; i < query.size(); ++i) {
    const auto& [term, qtf] = query[i];
    const PostingView postings = index_->Postings(term, snapshot);
    const auto it = std::lower_bound(
        postings.begin(), postings.end(), doc,
        [](const Posting& p, DocId d) { return p.doc < d; });
    if (it == postings.end() || it->doc != doc) continue;
    const double df = static_cast<double>(
        collection ? collection->df[i] : index_->DocFreq(term, snapshot));
    const double tf = static_cast<double>(it->tf);
    score += qtf * IdfValue(n, df) * tf * (params_.k1 + 1.0) / (tf + norm);
  }
  return score;
}

std::vector<double> Bm25Scorer::ScoreDocs(
    const TermCounts& query, std::span<const DocId> docs,
    const IndexSnapshot& snapshot, const CollectionStats* collection) const {
  const double avgdl =
      collection ? collection->avg_doc_length() : snapshot.avg_doc_length();
  const double n = static_cast<double>(
      collection ? collection->num_docs : snapshot.num_docs);
  struct Term {
    PostingCursor cursor;
    double weight;  // qtf * idf, the leading factor of ScoreDoc's product
  };
  std::vector<Term> terms;
  terms.reserve(query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    const auto& [term, qtf] = query[i];
    const PostingView postings = index_->Postings(term, snapshot);
    if (postings.empty()) continue;  // matches no document
    const double df = static_cast<double>(
        collection ? collection->df[i] : postings.size());
    terms.push_back(Term{PostingCursor(postings), qtf * IdfValue(n, df)});
  }
  std::vector<double> scores(docs.size(), 0.0);
  for (size_t j = 0; j < docs.size(); ++j) {
    const DocId doc = docs[j];
    const double dl = static_cast<double>(index_->DocLength(doc));
    const double norm =
        params_.k1 *
        (1.0 - params_.b + params_.b * (avgdl > 0 ? dl / avgdl : 0.0));
    double score = 0.0;
    for (Term& t : terms) {  // query order, as ScoreDoc sums
      t.cursor.SeekAtLeast(doc);
      if (t.cursor.doc() != doc) continue;
      const double tf = static_cast<double>(t.cursor.posting().tf);
      score += t.weight * tf * (params_.k1 + 1.0) / (tf + norm);
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
