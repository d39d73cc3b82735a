// Term dictionary shared by the BOW and BON retrieval paths. For BOW the
// "terms" are stemmed words; for BON they are KG node ids rendered as terms
// — the paper's insight that BON is "BOW whose words are replaced by nodes"
// (Sec. VI) means one dictionary + index implementation serves both.

#ifndef NEWSLINK_IR_TERM_DICTIONARY_H_
#define NEWSLINK_IR_TERM_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace newslink {
namespace ir {

using TermId = uint32_t;
inline constexpr TermId kInvalidTerm = std::numeric_limits<TermId>::max();

/// \brief Bidirectional string <-> TermId mapping.
///
/// Interning (GetOrAdd) takes the writer lock; lookups (Find, term,
/// size) take a shared lock, so any number of query threads may
/// resolve terms while a single ingestion writer interns new vocabulary.
/// A term interned after a reader's snapshot was published simply has no
/// postings within that snapshot, so a "too fresh" id is harmless on the
/// query path.
class TermDictionary {
 public:
  /// Intern `terms` in order under one writer lock, assigning fresh ids in
  /// first-occurrence order; ids aligned with `terms`. One call per
  /// document keeps readers from queueing behind one lock per token.
  std::vector<TermId> GetOrAdd(std::span<const std::string> terms);

  /// Look up without interning; kInvalidTerm when absent.
  TermId Find(std::string_view term) const;

  /// The term string of an id (by value: the backing storage may grow
  /// concurrently).
  std::string term(TermId id) const;

  size_t size() const;

 private:
  /// Transparent hash: Find probes with the caller's string_view instead
  /// of building a std::string per lookup.
  struct TermHash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>{}(term);
    }
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, TermId, TermHash, std::equal_to<>> ids_;
  std::vector<std::string> terms_;
};

}  // namespace ir
}  // namespace newslink

#endif  // NEWSLINK_IR_TERM_DICTIONARY_H_
