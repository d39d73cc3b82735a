// Text -> sparse term-count vectors: tokenization, stopword removal and
// Porter stemming, shared by every BOW-based engine.

#ifndef NEWSLINK_IR_TEXT_VECTORIZER_H_
#define NEWSLINK_IR_TEXT_VECTORIZER_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ir/inverted_index.h"
#include "ir/term_dictionary.h"

namespace newslink {
namespace ir {

/// A query as (stem, count) pairs, sorted by stem — the dictionary-free
/// representation that means the same thing to every index. This is what
/// travels between a search coordinator and its shards: local term ids are
/// meaningless across dictionaries, stems are not.
using StemCounts = std::vector<std::pair<std::string, uint32_t>>;

/// \brief Stateless pipeline around a TermDictionary.
class TextVectorizer {
 public:
  /// Counts for indexing: new terms are interned into `dict`.
  /// Output is sorted by term id; stopwords and single characters dropped.
  static TermCounts CountsForIndexing(const std::string& text,
                                      TermDictionary* dict);
  /// The same from Stems(text), the half a writer can run before it takes
  /// its lock.
  static TermCounts CountsForIndexing(std::span<const std::string> stems,
                                      TermDictionary* dict);

  /// Tokenize, drop stopwords and single characters, Porter-stem; token
  /// order.
  static std::vector<std::string> Stems(const std::string& text);

  /// Counts for querying: unknown terms are dropped (they match nothing).
  /// Output order is the canonical stem order of StemsForQuery, NOT term-id
  /// order, so every dictionary maps the same query to the same term
  /// *sequence* (scoring accumulates per-doc contributions in query order;
  /// a canonical order makes shard scores bit-equal to single-index ones).
  static TermCounts CountsForQuery(const std::string& text,
                                   const TermDictionary& dict);

  /// The query pipeline without a dictionary: Stems, counted. Sorted by
  /// stem.
  static StemCounts StemsForQuery(const std::string& text);
};

}  // namespace ir
}  // namespace newslink

#endif  // NEWSLINK_IR_TEXT_VECTORIZER_H_
