// News corpus containers and train/validation/test splitting
// (the paper splits 80/10/10, Sec. VII-A).

#ifndef NEWSLINK_CORPUS_CORPUS_H_
#define NEWSLINK_CORPUS_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace newslink {
namespace corpus {

/// \brief One news document.
struct Document {
  std::string id;      // e.g. "cnn-000123"
  std::string title;
  std::string text;    // full body, sentence-per-line style prose
  /// Ground-truth story (event cluster) id from the generator. Evaluation
  /// harness bookkeeping only — engines never see it.
  uint32_t story_id = 0;
  /// Publication instant, milliseconds since the Unix epoch. 0 means
  /// "unknown": such documents never match a time_range filter's lower
  /// bound semantics specially — they simply carry timestamp 0 — and a
  /// corpus whose documents are all unset leaves recency ranking disabled
  /// (DESIGN.md Sec. 15).
  int64_t timestamp_ms = 0;
};

/// \brief An ordered collection of documents.
class Corpus {
 public:
  size_t Add(Document doc) {
    docs_.push_back(std::move(doc));
    return docs_.size() - 1;
  }

  const Document& doc(size_t i) const { return docs_[i]; }
  size_t size() const { return docs_.size(); }
  bool empty() const { return docs_.empty(); }

  const std::vector<Document>& docs() const { return docs_; }

 private:
  std::vector<Document> docs_;
};

/// Fold `doc` into a running corpus fingerprint. Chaining document by
/// document (rather than hashing the whole corpus at once) lets bulk
/// Index() and incremental AddDocument() agree on the same value, so a
/// snapshot taken after live ingestion still carries a verifiable corpus
/// identity.
uint64_t ChainCorpusFingerprint(uint64_t chain, const Document& doc);

/// \brief Index sets of a random split.
struct CorpusSplit {
  std::vector<size_t> train;
  std::vector<size_t> validation;
  std::vector<size_t> test;
};

/// Shuffle [0, n) with `rng` and cut into train/validation/test fractions.
/// test receives the remainder; fractions must sum to <= 1.
CorpusSplit SplitCorpus(size_t n, double train_frac, double validation_frac,
                        Rng* rng);

}  // namespace corpus
}  // namespace newslink

#endif  // NEWSLINK_CORPUS_CORPUS_H_
