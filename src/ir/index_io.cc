#include "ir/index_io.h"

#include <limits>
#include <string_view>
#include <unordered_set>

#include "common/string_util.h"
#include "ir/reorder.h"

namespace newslink {
namespace ir {

void SerializeTermDictionary(const TermDictionary& dict, ByteWriter* out) {
  const size_t n = dict.size();
  out->WriteU64(n);
  for (TermId id = 0; id < n; ++id) out->WriteString(dict.term(id));
}

Status DeserializeTermStrings(ByteReader* reader,
                              std::vector<std::string>* terms) {
  uint64_t count;
  NL_RETURN_IF_ERROR(reader->ReadU64(&count));
  // Each term costs at least its 4-byte length prefix.
  NL_RETURN_IF_ERROR(reader->CheckCount(count, 4));
  terms->clear();
  terms->reserve(count);
  std::unordered_set<std::string_view> seen;
  seen.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string term;
    NL_RETURN_IF_ERROR(reader->ReadString(&term));
    terms->push_back(std::move(term));
  }
  for (const std::string& term : *terms) {
    if (!seen.insert(term).second) {
      return Status::IOError(StrCat("duplicate dictionary term '", term, "'"));
    }
  }
  return Status::OK();
}

void SerializeInvertedIndex(const InvertedIndex& index, ByteWriter* out) {
  const size_t num_docs = index.num_docs();
  out->WriteU64(num_docs);
  for (DocId d = 0; d < num_docs; ++d) out->WriteVarint(index.DocLength(d));
  const size_t num_terms = index.num_terms();
  out->WriteU64(num_terms);
  for (TermId t = 0; t < num_terms; ++t) {
    const PostingView postings = index.Postings(t);
    out->WriteVarint(static_cast<uint32_t>(postings.size()));
    DocId last_doc = 0;
    bool first = true;
    for (const Posting& p : postings) {
      out->WriteVarint(first ? p.doc : p.doc - last_doc);
      out->WriteVarint(p.tf);
      last_doc = p.doc;
      first = false;
    }
  }
}

Status DeserializeInvertedIndex(ByteReader* reader, InvertedIndex* index) {
  if (index->num_docs() != 0 || index->num_terms() != 0) {
    return Status::FailedPrecondition(
        "DeserializeInvertedIndex requires an empty index");
  }
  uint64_t num_docs;
  NL_RETURN_IF_ERROR(reader->ReadU64(&num_docs));
  NL_RETURN_IF_ERROR(reader->CheckCount(num_docs, 1));
  std::vector<uint32_t> lengths;
  lengths.reserve(num_docs);
  for (uint64_t d = 0; d < num_docs; ++d) {
    uint32_t length;
    NL_RETURN_IF_ERROR(reader->ReadVarint(&length));
    lengths.push_back(length);
  }
  NL_RETURN_IF_ERROR(index->RestoreDocLengths(lengths));

  uint64_t num_terms;
  NL_RETURN_IF_ERROR(reader->ReadU64(&num_terms));
  NL_RETURN_IF_ERROR(reader->CheckCount(num_terms, 1));
  index->EnsureNumTerms(num_terms);
  std::vector<Posting> postings;
  for (uint64_t t = 0; t < num_terms; ++t) {
    uint32_t count;
    NL_RETURN_IF_ERROR(reader->ReadVarint(&count));
    NL_RETURN_IF_ERROR(reader->CheckCount(count, 2));
    postings.clear();
    postings.reserve(count);
    DocId doc = 0;
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t gap, tf;
      NL_RETURN_IF_ERROR(reader->ReadVarint(&gap));
      NL_RETURN_IF_ERROR(reader->ReadVarint(&tf));
      if (i > 0 && gap == 0) {
        return Status::IOError(
            StrCat("term ", t, ": zero doc-id gap at posting ", i));
      }
      const uint64_t next = static_cast<uint64_t>(doc) + gap;
      if (next > std::numeric_limits<DocId>::max()) {
        return Status::IOError(StrCat("term ", t, ": doc id overflows"));
      }
      if (next >= num_docs) {
        return Status::IOError(StrCat("term ", t, ": doc id ", next,
                                      " out of range (", num_docs, " docs)"));
      }
      if (tf == 0) {
        return Status::IOError(
            StrCat("term ", t, ": zero term frequency at posting ", i));
      }
      doc = static_cast<DocId>(next);
      postings.push_back(Posting{doc, tf});
    }
    NL_RETURN_IF_ERROR(
        index->RestoreTermPostings(static_cast<TermId>(t), postings));
  }
  return Status::OK();
}

void SerializeDocMap(std::span<const uint32_t> internal_to_external,
                     ByteWriter* out) {
  out->WriteU64(internal_to_external.size());
  for (const uint32_t external : internal_to_external) {
    out->WriteVarint(external);
  }
}

Status DeserializeDocMap(ByteReader* reader, std::vector<uint32_t>* map) {
  uint64_t count;
  NL_RETURN_IF_ERROR(reader->ReadU64(&count));
  NL_RETURN_IF_ERROR(reader->CheckCount(count, 1));
  map->clear();
  map->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t external;
    NL_RETURN_IF_ERROR(reader->ReadVarint(&external));
    map->push_back(external);
  }
  if (!IsPermutation(*map)) {
    return Status::IOError(
        StrCat("doc map is not a permutation of ", count, " doc ids"));
  }
  return Status::OK();
}

}  // namespace ir
}  // namespace newslink
