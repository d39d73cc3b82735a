// SimHash (Charikar 2002): a 64-bit locality-sensitive signature of a
// document's word features. Textually similar documents get signatures
// that agree in most bits; doc-id reordering (ir/reorder.h) sorts by it
// to give similar documents adjacent ids.

#ifndef NEWSLINK_IR_SIMHASH_H_
#define NEWSLINK_IR_SIMHASH_H_

#include <cstdint>
#include <string>

namespace newslink {
namespace ir {

/// 64-bit SimHash over stemmed, stopword-filtered word features, with
/// term-frequency weighting.
uint64_t SimHash(const std::string& text);

}  // namespace ir
}  // namespace newslink

#endif  // NEWSLINK_IR_SIMHASH_H_
