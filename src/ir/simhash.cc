#include "ir/simhash.h"

#include <map>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace newslink {
namespace ir {

namespace {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

uint64_t SimHash(const std::string& text) {
  std::map<std::string, int> features;
  for (const std::string& w : text::WordTokens(text)) {
    if (w.size() < 2 || text::IsStopword(w)) continue;
    ++features[text::PorterStem(w)];
  }
  int acc[64] = {0};
  for (const auto& [feature, weight] : features) {
    const uint64_t h = Fnv1a64(feature);
    for (int bit = 0; bit < 64; ++bit) {
      acc[bit] += (h >> bit) & 1 ? weight : -weight;
    }
  }
  uint64_t signature = 0;
  for (int bit = 0; bit < 64; ++bit) {
    if (acc[bit] > 0) signature |= uint64_t{1} << bit;
  }
  return signature;
}

}  // namespace ir
}  // namespace newslink
