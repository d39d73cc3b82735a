// Small string helpers shared across the library.

#ifndef NEWSLINK_COMMON_STRING_UTIL_H_
#define NEWSLINK_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace newslink {

/// Split on a single character; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Split on any whitespace run; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Join with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy (the corpus generator emits ASCII only).
std::string ToLowerAscii(std::string_view s);

/// Strip leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strict numeric parsing for file readers: the whole string must be a
/// valid unsigned number (no sign, no trailing junk, no overflow). Returns
/// false without touching *out on any violation — unlike strtoul, which
/// silently yields 0 or wraps, these make corrupt input detectable.
bool ParseUint64(std::string_view s, uint64_t* out);
bool ParseUint32(std::string_view s, uint32_t* out);

/// printf-lite concatenation: StrCat(1, " + ", 2.5) == "1 + 2.5".
namespace internal {
inline void StrCatAppend(std::ostringstream&) {}
template <typename T, typename... Rest>
void StrCatAppend(std::ostringstream& os, const T& v, const Rest&... rest) {
  os << v;
  StrCatAppend(os, rest...);
}
}  // namespace internal

template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  internal::StrCatAppend(os, args...);
  return os.str();
}

}  // namespace newslink

#endif  // NEWSLINK_COMMON_STRING_UTIL_H_
