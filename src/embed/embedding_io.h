// Binary codec for document subgraph embeddings, the "embeddings" section
// of an engine snapshot (DESIGN.md Sec. 9). Embedding a corpus is the
// dominant indexing cost (paper Fig. 7), so a snapshot carries the
// embeddings and a warm start skips NE entirely. Every read goes through
// ByteReader, so a corrupt or truncated payload is a Status, never a
// silently incomplete embedding.

#ifndef NEWSLINK_EMBED_EMBEDDING_IO_H_
#define NEWSLINK_EMBED_EMBEDDING_IO_H_

#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "embed/document_embedding.h"

namespace newslink {
namespace embed {

/// One record per corpus document (empty embeddings included, so indices
/// stay aligned with the corpus). Deterministic bytes.
void SerializeEmbeddings(const std::vector<DocumentEmbedding>& embeddings,
                         ByteWriter* out);
/// Parse a payload written by SerializeEmbeddings. Node counts are
/// recomputed from the segment graphs, so the result is bit-identical to
/// the original.
Status DeserializeEmbeddings(ByteReader* reader,
                             std::vector<DocumentEmbedding>* out);

}  // namespace embed
}  // namespace newslink

#endif  // NEWSLINK_EMBED_EMBEDDING_IO_H_
