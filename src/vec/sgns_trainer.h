// Skip-gram with negative sampling (Mikolov et al. 2013), from scratch:
// the training engine behind the DOC2VEC / SBERT / FastText substitutes
// (DESIGN.md §2). WordVocab handles frequency-based vocabularies and the
// unigram^0.75 negative-sampling table; Word2VecModel trains plain word
// vectors.

#ifndef NEWSLINK_VEC_SGNS_TRAINER_H_
#define NEWSLINK_VEC_SGNS_TRAINER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "vec/dense_vector.h"

namespace newslink {
namespace vec {

/// Lowercase word tokens with stopwords removed — the unit stream every
/// embedding model consumes.
std::vector<std::string> TokenizeForVectors(const std::string& text);

struct SgnsConfig {
  int dim = 48;
  int window = 4;
  int negatives = 4;
  int epochs = 2;
  int min_count = 2;
  double learning_rate = 0.05;
  /// Frequent-word subsampling threshold (0 disables).
  double subsample = 1e-3;
  uint64_t seed = 42;
};

/// \brief Frequency-pruned vocabulary with a negative-sampling table.
class WordVocab {
 public:
  /// Count words over tokenized documents and keep those with
  /// count >= min_count.
  void Build(const std::vector<std::vector<std::string>>& docs,
             int min_count);

  /// Word id, or -1 if out of vocabulary.
  int Find(const std::string& word) const;

  size_t size() const { return words_.size(); }
  const std::string& word(int id) const { return words_[id]; }
  uint64_t count(int id) const { return counts_[id]; }
  uint64_t total_count() const { return total_; }

  /// Sample a word id ~ unigram^0.75 (negative sampling distribution).
  int SampleNegative(Rng* rng) const;

  /// Keep-probability for frequent-word subsampling (word2vec formula).
  double KeepProbability(int id, double subsample) const;

 private:
  std::unordered_map<std::string, int> ids_;
  std::vector<std::string> words_;
  std::vector<uint64_t> counts_;
  std::vector<double> negative_cdf_;
  uint64_t total_ = 0;
};

/// \brief Plain skip-gram word vectors.
class Word2VecModel {
 public:
  /// Build vocab + train. Deterministic given config.seed.
  void Train(const std::vector<std::vector<std::string>>& docs,
             const SgnsConfig& config);

  const WordVocab& vocab() const { return vocab_; }
  int dim() const { return config_.dim; }

  /// Input vector of a word; nullptr when out of vocabulary.
  const float* WordVector(const std::string& word) const;

  /// Mean of in-vocabulary word vectors (zero vector if none).
  Vector AverageVector(const std::vector<std::string>& tokens) const;

  /// SIF-weighted average (Arora et al. 2017): weight a/(a + p(w)).
  Vector SifVector(const std::vector<std::string>& tokens,
                   double a = 1e-3) const;

  /// Access for derived trainers (Doc2Vec shares the output matrix).
  std::vector<float>& input_matrix() { return input_; }
  const std::vector<float>& output_matrix() const { return output_; }
  const std::vector<float>& input_matrix() const { return input_; }
  const SgnsConfig& config() const { return config_; }

 protected:
  friend class Doc2VecModel;

  WordVocab vocab_;
  SgnsConfig config_;
  std::vector<float> input_;   // vocab x dim
  std::vector<float> output_;  // vocab x dim
};

/// Numerically-safe sigmoid.
float Sigmoid(float x);

}  // namespace vec
}  // namespace newslink

#endif  // NEWSLINK_VEC_SGNS_TRAINER_H_
