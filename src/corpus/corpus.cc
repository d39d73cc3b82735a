#include "corpus/corpus.h"

#include <numeric>

#include "common/binary_io.h"
#include "common/logging.h"

namespace newslink {
namespace corpus {

namespace {

/// Content fingerprint of one document (FNV-1a over id, story, timestamp,
/// title, text).
uint64_t DocumentFingerprint(const Document& doc) {
  Fingerprinter fp;
  fp.Add(doc.id)
      .Add(static_cast<uint64_t>(doc.story_id))
      .Add(static_cast<uint64_t>(doc.timestamp_ms))
      .Add(doc.title)
      .Add(doc.text);
  return fp.Digest();
}

}  // namespace

uint64_t ChainCorpusFingerprint(uint64_t chain, const Document& doc) {
  Fingerprinter fp;
  fp.Add(chain).Add(DocumentFingerprint(doc));
  return fp.Digest();
}

CorpusSplit SplitCorpus(size_t n, double train_frac, double validation_frac,
                        Rng* rng) {
  NL_CHECK(train_frac >= 0 && validation_frac >= 0 &&
           train_frac + validation_frac <= 1.0);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);

  const size_t n_train = static_cast<size_t>(train_frac * n);
  const size_t n_val = static_cast<size_t>(validation_frac * n);

  CorpusSplit split;
  split.train.assign(order.begin(), order.begin() + n_train);
  split.validation.assign(order.begin() + n_train,
                          order.begin() + n_train + n_val);
  split.test.assign(order.begin() + n_train + n_val, order.end());
  return split;
}

}  // namespace corpus
}  // namespace newslink
