#include "ir/text_vectorizer.h"

#include <algorithm>
#include <map>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace newslink {
namespace ir {

TermCounts TextVectorizer::CountsForIndexing(const std::string& text,
                                             TermDictionary* dict) {
  return CountsForIndexing(Stems(text), dict);
}

TermCounts TextVectorizer::CountsForIndexing(std::span<const std::string> stems,
                                             TermDictionary* dict) {
  std::map<TermId, uint32_t> counts;
  for (const TermId id : dict->GetOrAdd(stems)) ++counts[id];
  return TermCounts(counts.begin(), counts.end());
}

std::vector<std::string> TextVectorizer::Stems(
    const std::string& text) {
  std::vector<std::string> stems;
  for (const std::string& word : text::WordTokens(text)) {
    if (word.size() < 2 || text::IsStopword(word)) continue;
    stems.push_back(text::PorterStem(word));
  }
  return stems;
}

TermCounts TextVectorizer::CountsForQuery(const std::string& text,
                                          const TermDictionary& dict) {
  TermCounts counts;
  for (const auto& [stem, qtf] : StemsForQuery(text)) {
    const TermId id = dict.Find(stem);
    if (id != kInvalidTerm) counts.push_back({id, qtf});
  }
  return counts;
}

StemCounts TextVectorizer::StemsForQuery(const std::string& text) {
  std::map<std::string, uint32_t> counts;
  for (std::string& stem : Stems(text)) ++counts[std::move(stem)];
  return StemCounts(counts.begin(), counts.end());
}

}  // namespace ir
}  // namespace newslink
