#include "ir/term_dictionary.h"

#include <mutex>

namespace newslink {
namespace ir {

std::vector<TermId> TermDictionary::GetOrAdd(
    std::span<const std::string> terms) {
  std::vector<TermId> ids;
  ids.reserve(terms.size());
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const std::string& term : terms) {
    const auto [it, added] =
        ids_.try_emplace(term, static_cast<TermId>(terms_.size()));
    if (added) terms_.push_back(term);
    ids.push_back(it->second);
  }
  return ids;
}

TermId TermDictionary::Find(std::string_view term) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = ids_.find(term);
  return it == ids_.end() ? kInvalidTerm : it->second;
}

std::string TermDictionary::term(TermId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return terms_[id];
}

size_t TermDictionary::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return terms_.size();
}

}  // namespace ir
}  // namespace newslink
