#include "embed/embedding_io.h"

#include <map>

#include "common/string_util.h"

namespace newslink {
namespace embed {

namespace {

void RecomputeNodeCounts(DocumentEmbedding* embedding) {
  std::map<kg::NodeId, uint32_t> counts;
  for (const AncestorGraph& g : embedding->segment_graphs) {
    for (kg::NodeId v : g.nodes) ++counts[v];
  }
  embedding->node_counts.assign(counts.begin(), counts.end());
}

}  // namespace

void SerializeEmbeddings(const std::vector<DocumentEmbedding>& embeddings,
                         ByteWriter* out) {
  out->WriteU64(embeddings.size());
  for (const DocumentEmbedding& embedding : embeddings) {
    out->WriteVarint(
        static_cast<uint32_t>(embedding.segment_graphs.size()));
    for (const AncestorGraph& g : embedding.segment_graphs) {
      out->WriteU32(static_cast<uint32_t>(g.root));
      out->WriteVarint(static_cast<uint32_t>(g.labels.size()));
      for (const std::string& l : g.labels) out->WriteString(l);
      out->WriteVarint(static_cast<uint32_t>(g.label_distances.size()));
      for (double d : g.label_distances) out->WriteDouble(d);
      out->WriteVarint(static_cast<uint32_t>(g.nodes.size()));
      for (kg::NodeId v : g.nodes) out->WriteU32(static_cast<uint32_t>(v));
      out->WriteVarint(static_cast<uint32_t>(g.source_nodes.size()));
      for (kg::NodeId v : g.source_nodes) {
        out->WriteU32(static_cast<uint32_t>(v));
      }
      out->WriteVarint(static_cast<uint32_t>(g.edges.size()));
      for (const PathEdge& e : g.edges) {
        out->WriteU32(static_cast<uint32_t>(e.from));
        out->WriteU32(static_cast<uint32_t>(e.to));
        out->WriteU32(static_cast<uint32_t>(e.predicate));
        out->WriteFloat(e.weight);
        out->WriteU8(e.forward ? 1 : 0);
      }
    }
  }
}

Status DeserializeEmbeddings(ByteReader* reader,
                             std::vector<DocumentEmbedding>* out) {
  uint64_t num_docs;
  NL_RETURN_IF_ERROR(reader->ReadU64(&num_docs));
  NL_RETURN_IF_ERROR(reader->CheckCount(num_docs, 1));
  out->clear();
  out->reserve(num_docs);
  for (uint64_t d = 0; d < num_docs; ++d) {
    DocumentEmbedding embedding;
    uint32_t num_segments;
    NL_RETURN_IF_ERROR(reader->ReadVarint(&num_segments));
    NL_RETURN_IF_ERROR(reader->CheckCount(num_segments, 5));
    embedding.segment_graphs.reserve(num_segments);
    for (uint32_t s = 0; s < num_segments; ++s) {
      AncestorGraph g;
      uint32_t root;
      NL_RETURN_IF_ERROR(reader->ReadU32(&root));
      g.root = static_cast<kg::NodeId>(root);

      uint32_t num_labels;
      NL_RETURN_IF_ERROR(reader->ReadVarint(&num_labels));
      NL_RETURN_IF_ERROR(reader->CheckCount(num_labels, 4));
      g.labels.reserve(num_labels);
      for (uint32_t i = 0; i < num_labels; ++i) {
        std::string label;
        NL_RETURN_IF_ERROR(reader->ReadString(&label));
        g.labels.push_back(std::move(label));
      }

      uint32_t num_dists;
      NL_RETURN_IF_ERROR(reader->ReadVarint(&num_dists));
      NL_RETURN_IF_ERROR(reader->CheckCount(num_dists, 8));
      g.label_distances.reserve(num_dists);
      for (uint32_t i = 0; i < num_dists; ++i) {
        double dist;
        NL_RETURN_IF_ERROR(reader->ReadDouble(&dist));
        g.label_distances.push_back(dist);
      }

      uint32_t num_nodes;
      NL_RETURN_IF_ERROR(reader->ReadVarint(&num_nodes));
      NL_RETURN_IF_ERROR(reader->CheckCount(num_nodes, 4));
      g.nodes.reserve(num_nodes);
      for (uint32_t i = 0; i < num_nodes; ++i) {
        uint32_t v;
        NL_RETURN_IF_ERROR(reader->ReadU32(&v));
        g.nodes.push_back(static_cast<kg::NodeId>(v));
      }

      uint32_t num_sources;
      NL_RETURN_IF_ERROR(reader->ReadVarint(&num_sources));
      NL_RETURN_IF_ERROR(reader->CheckCount(num_sources, 4));
      g.source_nodes.reserve(num_sources);
      for (uint32_t i = 0; i < num_sources; ++i) {
        uint32_t v;
        NL_RETURN_IF_ERROR(reader->ReadU32(&v));
        g.source_nodes.push_back(static_cast<kg::NodeId>(v));
      }

      uint32_t num_edges;
      NL_RETURN_IF_ERROR(reader->ReadVarint(&num_edges));
      NL_RETURN_IF_ERROR(reader->CheckCount(num_edges, 17));
      g.edges.reserve(num_edges);
      for (uint32_t i = 0; i < num_edges; ++i) {
        PathEdge e;
        uint32_t from, to, predicate;
        uint8_t forward;
        NL_RETURN_IF_ERROR(reader->ReadU32(&from));
        NL_RETURN_IF_ERROR(reader->ReadU32(&to));
        NL_RETURN_IF_ERROR(reader->ReadU32(&predicate));
        NL_RETURN_IF_ERROR(reader->ReadFloat(&e.weight));
        NL_RETURN_IF_ERROR(reader->ReadU8(&forward));
        if (forward > 1) {
          return Status::IOError(
              StrCat("embedding edge has non-boolean forward flag ",
                     forward));
        }
        e.from = static_cast<kg::NodeId>(from);
        e.to = static_cast<kg::NodeId>(to);
        e.predicate = static_cast<kg::PredicateId>(predicate);
        e.forward = forward == 1;
        g.edges.push_back(e);
      }
      embedding.segment_graphs.push_back(std::move(g));
    }
    RecomputeNodeCounts(&embedding);
    out->push_back(std::move(embedding));
  }
  return Status::OK();
}

}  // namespace embed
}  // namespace newslink
