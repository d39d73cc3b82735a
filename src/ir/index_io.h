// Binary (de)serialization of the IR layer for engine snapshots
// (DESIGN.md Sec. 9): TermDictionary and InvertedIndex to/from section
// payloads of a snapshot file. Posting lists are stored as delta-gap
// (doc, tf) varint pairs through ByteWriter/ByteReader, the one varint
// codec; every read is bounds-checked, only canonical varints are
// accepted, and every structural invariant (monotonic doc ids, in-range
// doc ids, positive term frequencies) is re-validated on load, so a
// corrupt payload that slipped past the CRCs still fails with a Status
// instead of poisoning the index.

#ifndef NEWSLINK_IR_INDEX_IO_H_
#define NEWSLINK_IR_INDEX_IO_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "common/status.h"
#include "ir/inverted_index.h"
#include "ir/term_dictionary.h"

namespace newslink {
namespace ir {

/// Serialize the dictionary: u64 term count followed by length-prefixed
/// term strings in id order. Deterministic (ids are dense and ordered).
void SerializeTermDictionary(const TermDictionary& dict, ByteWriter* out);

/// Parse the term strings (slot i holds the term of id i). Duplicate terms
/// — which would silently alias two ids — are rejected. Parsing into plain
/// strings (not a TermDictionary) lets callers validate every snapshot
/// section before mutating any engine state.
Status DeserializeTermStrings(ByteReader* reader,
                              std::vector<std::string>* terms);

/// Serialize an index captured at quiescence: u64 num_docs, varint doc
/// lengths, u64 num_terms, then per term a varint posting count and the
/// delta-gap (doc, tf) varint stream.
void SerializeInvertedIndex(const InvertedIndex& index, ByteWriter* out);

/// Rebuild an index via the restore API. `index` must be empty.
Status DeserializeInvertedIndex(ByteReader* reader, InvertedIndex* index);

/// Serialize a doc-id map (internal id -> external corpus row, from the
/// doc-reordering pass): u64 count followed by varint external ids.
/// Deterministic.
void SerializeDocMap(std::span<const uint32_t> internal_to_external,
                     ByteWriter* out);

/// Parse and validate a doc-id map. The map must be a permutation of
/// [0, count) — anything else (out-of-range id, duplicate) is IOError, so
/// a corrupt map can never mis-route a search hit to the wrong document.
Status DeserializeDocMap(ByteReader* reader, std::vector<uint32_t>* map);

}  // namespace ir
}  // namespace newslink

#endif  // NEWSLINK_IR_INDEX_IO_H_
