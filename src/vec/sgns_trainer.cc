#include "vec/sgns_trainer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace newslink {
namespace vec {

std::vector<std::string> TokenizeForVectors(const std::string& text) {
  std::vector<std::string> out;
  for (std::string& w : text::WordTokens(text)) {
    if (w.size() < 2 || text::IsStopword(w)) continue;
    out.push_back(std::move(w));
  }
  return out;
}

float Sigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

void WordVocab::Build(const std::vector<std::vector<std::string>>& docs,
                      int min_count) {
  std::unordered_map<std::string, uint64_t> raw;
  for (const auto& doc : docs) {
    for (const std::string& w : doc) ++raw[w];
  }
  // Deterministic id assignment: sort by (count desc, word asc).
  std::vector<std::pair<std::string, uint64_t>> sorted(raw.begin(), raw.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (auto& [word, count] : sorted) {
    if (count < static_cast<uint64_t>(min_count)) continue;
    ids_.emplace(word, static_cast<int>(words_.size()));
    words_.push_back(word);
    counts_.push_back(count);
    total_ += count;
  }
  // Negative sampling CDF over unigram^0.75.
  negative_cdf_.resize(words_.size());
  double acc = 0.0;
  for (size_t i = 0; i < words_.size(); ++i) {
    acc += std::pow(static_cast<double>(counts_[i]), 0.75);
    negative_cdf_[i] = acc;
  }
}

int WordVocab::Find(const std::string& word) const {
  auto it = ids_.find(word);
  return it == ids_.end() ? -1 : it->second;
}

int WordVocab::SampleNegative(Rng* rng) const {
  NL_DCHECK(!negative_cdf_.empty());
  return static_cast<int>(rng->SampleFromCdf(negative_cdf_));
}

double WordVocab::KeepProbability(int id, double subsample) const {
  if (subsample <= 0.0) return 1.0;
  const double f =
      static_cast<double>(counts_[id]) / static_cast<double>(total_);
  const double p = (std::sqrt(f / subsample) + 1.0) * (subsample / f);
  return std::min(1.0, p);
}

void Word2VecModel::Train(const std::vector<std::vector<std::string>>& docs,
                          const SgnsConfig& config) {
  config_ = config;
  vocab_.Build(docs, config.min_count);
  const size_t v = vocab_.size();
  const size_t dim = static_cast<size_t>(config.dim);

  Rng rng(config.seed);
  input_.resize(v * dim);
  output_.assign(v * dim, 0.0f);
  for (float& x : input_) {
    x = static_cast<float>((rng.UniformDouble() - 0.5) / config.dim);
  }
  if (v == 0) return;

  std::vector<float> grad(dim);
  const float lr = static_cast<float>(config.learning_rate);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& doc : docs) {
      // Map to ids with subsampling.
      std::vector<int> ids;
      ids.reserve(doc.size());
      for (const std::string& w : doc) {
        const int id = vocab_.Find(w);
        if (id < 0) continue;
        if (rng.UniformDouble() >=
            vocab_.KeepProbability(id, config.subsample)) {
          continue;
        }
        ids.push_back(id);
      }
      for (size_t pos = 0; pos < ids.size(); ++pos) {
        const int center = ids[pos];
        const int window = 1 + static_cast<int>(rng.Uniform(config.window));
        const size_t lo = pos >= static_cast<size_t>(window)
                              ? pos - static_cast<size_t>(window)
                              : 0;
        const size_t hi =
            std::min(ids.size(), pos + static_cast<size_t>(window) + 1);
        for (size_t c = lo; c < hi; ++c) {
          if (c == pos) continue;
          const int context = ids[c];
          float* in = input_.data() + static_cast<size_t>(center) * dim;
          std::fill(grad.begin(), grad.end(), 0.0f);
          // Positive sample + negatives.
          for (int n = 0; n <= config.negatives; ++n) {
            int target;
            float label;
            if (n == 0) {
              target = context;
              label = 1.0f;
            } else {
              target = vocab_.SampleNegative(&rng);
              if (target == context) continue;
              label = 0.0f;
            }
            float* outv = output_.data() + static_cast<size_t>(target) * dim;
            const float score =
                Sigmoid(Dot({in, dim}, {outv, dim}));
            const float g = lr * (label - score);
            for (size_t k = 0; k < dim; ++k) {
              grad[k] += g * outv[k];
              outv[k] += g * in[k];
            }
          }
          for (size_t k = 0; k < dim; ++k) in[k] += grad[k];
        }
      }
    }
  }
}

const float* Word2VecModel::WordVector(const std::string& word) const {
  const int id = vocab_.Find(word);
  if (id < 0) return nullptr;
  return input_.data() + static_cast<size_t>(id) * config_.dim;
}

Vector Word2VecModel::AverageVector(
    const std::vector<std::string>& tokens) const {
  Vector out(config_.dim, 0.0f);
  int n = 0;
  for (const std::string& w : tokens) {
    const float* v = WordVector(w);
    if (v == nullptr) continue;
    AddScaled(out, {v, static_cast<size_t>(config_.dim)}, 1.0f);
    ++n;
  }
  if (n > 0) Scale(out, 1.0f / static_cast<float>(n));
  return out;
}

Vector Word2VecModel::SifVector(const std::vector<std::string>& tokens,
                                double a) const {
  Vector out(config_.dim, 0.0f);
  int n = 0;
  for (const std::string& w : tokens) {
    const int id = vocab_.Find(w);
    if (id < 0) continue;
    const double p = static_cast<double>(vocab_.count(id)) /
                     static_cast<double>(vocab_.total_count());
    const float weight = static_cast<float>(a / (a + p));
    AddScaled(out,
              {input_.data() + static_cast<size_t>(id) * config_.dim,
               static_cast<size_t>(config_.dim)},
              weight);
    ++n;
  }
  if (n > 0) Scale(out, 1.0f / static_cast<float>(n));
  return out;
}

}  // namespace vec
}  // namespace newslink
