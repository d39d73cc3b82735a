#include "newslink/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/snapshot_file.h"
#include "common/string_util.h"

namespace newslink {

namespace {

constexpr std::string_view kShardLayoutSection = "shard_layout";

}  // namespace

ShardedEngine::ShardedEngine(const kg::KnowledgeGraph* graph,
                             const kg::LabelIndex* label_index,
                             NewsLinkConfig config, ShardedOptions options)
    : PipelineEngine(config, options.fanout_threads != 0
                                 ? options.fanout_threads
                                 : options.num_shards),
      graph_(graph),
      config_(config),
      options_(std::move(options)) {
  NL_CHECK(options_.num_shards >= 1) << "ShardedEngine needs >= 1 shard";
  NL_CHECK(options_.write_shard < options_.num_shards)
      << "write_shard " << options_.write_shard << " with "
      << options_.num_shards << " shards";
  shards_.reserve(options_.num_shards);
  global_of_local_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(
        std::make_unique<NewsLinkEngine>(graph, label_index, config));
    global_of_local_.push_back(
        std::make_unique<ir::AppendOnlyStore<uint32_t>>());
  }
  backends_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    backends_.emplace_back(shards_[s].get(), global_of_local_[s].get());
  }
  for (const LocalShardBackend& backend : backends_) {
    backend_ptrs_.push_back(&backend);
  }
}

PipelineView ShardedEngine::View() const {
  PipelineView view;
  view.prep = shards_[0].get();
  view.backends = backend_ptrs_;
  return view;
}

std::string ShardedEngine::name() const {
  return StrCat("Sharded[", shards_.size(), "x", shards_[0]->name(), "]");
}

std::string ShardedEngine::ShardSnapshotPath(const std::string& path,
                                             size_t shard) {
  return StrCat(path, ".shard", shard);
}

uint32_t ShardedEngine::RecordRoute(uint32_t shard) {
  const uint32_t global = static_cast<uint32_t>(shard_of_row_.size());
  const uint32_t local =
      static_cast<uint32_t>(global_of_local_[shard]->size());
  // Both directions first, the global row count (shard_of_row_) last: a
  // reader that observed a row can always translate it either way.
  global_of_local_[shard]->Append(global);
  local_of_row_.Append(local);
  shard_of_row_.Append(shard);
  return local;
}

Status ShardedEngine::Index(const corpus::Corpus& corpus) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (num_indexed_docs() != 0) {
    return Status::FailedPrecondition(
        "Index requires an empty engine; use AddDocument for live ingestion");
  }
  const size_t n = corpus.size();

  // Resolve (and fully validate) the per-row shard before recording any
  // route, so a bad assignment leaves the engine untouched.
  std::vector<uint32_t> shard_of(n);
  if (options_.partition == ShardedOptions::Partition::kExplicit &&
      options_.assignment.size() != n) {
    return Status::InvalidArgument(
        StrCat("explicit assignment has ", options_.assignment.size(),
               " entries for a corpus of ", n));
  }
  for (size_t row = 0; row < n; ++row) {
    switch (options_.partition) {
      case ShardedOptions::Partition::kRoundRobin:
        shard_of[row] = static_cast<uint32_t>(row % shards_.size());
        break;
      case ShardedOptions::Partition::kHash:
        shard_of[row] = static_cast<uint32_t>(
            corpus::DocumentFingerprint(corpus.doc(row)) % shards_.size());
        break;
      case ShardedOptions::Partition::kExplicit:
        shard_of[row] = options_.assignment[row];
        if (shard_of[row] >= shards_.size()) {
          return Status::InvalidArgument(
              StrCat("assignment[", row, "] = ", shard_of[row], " with ",
                     shards_.size(), " shards"));
        }
        break;
    }
  }

  // Sub-corpora are filled in global row order, so each shard sees its
  // documents in ascending global-row order: shard-local tie-breaks
  // (smaller local row wins) agree with global ones after translation.
  std::vector<corpus::Corpus> parts(shards_.size());
  for (size_t row = 0; row < n; ++row) {
    RecordRoute(shard_of[row]);
    parts[shard_of[row]].Add(corpus.doc(row));
  }

  // Shards sequentially: each shard's own NLP/NE stage is internally
  // parallel, so nesting another fan-out here would only oversubscribe.
  for (size_t s = 0; s < shards_.size(); ++s) {
    NL_RETURN_IF_ERROR(shards_[s]->Index(parts[s]));
  }

  // Fingerprint chains documents in GLOBAL corpus order (not per shard),
  // so the sharded engine and a single engine over the same corpus agree.
  uint64_t fp = corpus_fingerprint_.load(std::memory_order_relaxed);
  for (size_t row = 0; row < n; ++row) {
    fp = corpus::ChainCorpusFingerprint(fp, corpus.doc(row));
  }
  corpus_fingerprint_.store(fp, std::memory_order_release);
  return Status::OK();
}

size_t ShardedEngine::AddDocument(const corpus::Document& doc) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  const size_t global = shard_of_row_.size();
  const uint32_t shard = static_cast<uint32_t>(options_.write_shard);
  // Route before the shard indexes: by the time the write shard publishes
  // the new epoch, the new local row already translates both ways.
  RecordRoute(shard);
  corpus_fingerprint_.store(
      corpus::ChainCorpusFingerprint(
          corpus_fingerprint_.load(std::memory_order_relaxed), doc),
      std::memory_order_release);
  shards_[shard]->AddDocument(doc);
  return global;
}

Status ShardedEngine::SaveSnapshot(const std::string& path) const {
  // Quiesce routing writes; per-shard saves below take each shard's own
  // writer lock, so the manifest and the shard files agree.
  std::lock_guard<std::mutex> writer(writer_mu_);

  SnapshotHeader header;
  header.kg_fingerprint = graph_->Fingerprint();
  header.corpus_fingerprint =
      corpus_fingerprint_.load(std::memory_order_acquire);
  header.config_fingerprint = NewsLinkEngine::ConfigFingerprint(config_);
  header.num_docs = shard_of_row_.size();

  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(shards_.size()));
  w.WriteU32(static_cast<uint32_t>(options_.write_shard));
  w.WriteU64(shard_of_row_.size());
  for (size_t row = 0; row < shard_of_row_.size(); ++row) {
    w.WriteVarint(shard_of_row_.At(row));
  }
  std::vector<SnapshotSection> sections;
  sections.push_back(
      SnapshotSection{std::string(kShardLayoutSection), w.TakeBytes()});
  NL_RETURN_IF_ERROR(WriteSnapshotFile(path, header, sections));

  for (size_t s = 0; s < shards_.size(); ++s) {
    NL_RETURN_IF_ERROR(shards_[s]->SaveSnapshot(ShardSnapshotPath(path, s)));
  }
  return Status::OK();
}

Status ShardedEngine::LoadSnapshot(const std::string& path) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (num_indexed_docs() != 0) {
    return Status::FailedPrecondition(
        "LoadSnapshot requires an empty engine (nothing indexed yet)");
  }
  NL_ASSIGN_OR_RETURN(const SnapshotFile file, ReadSnapshotFile(path));
  if (file.header.kg_fingerprint != graph_->Fingerprint()) {
    return Status::FailedPrecondition(
        "snapshot was built against a different knowledge graph");
  }
  if (file.header.config_fingerprint !=
      NewsLinkEngine::ConfigFingerprint(config_)) {
    return Status::FailedPrecondition(
        "snapshot was built under a different engine configuration");
  }
  const SnapshotSection* layout = file.Find(kShardLayoutSection);
  if (layout == nullptr) {
    return Status::IOError("snapshot has no shard_layout section");
  }

  ByteReader r(layout->payload);
  uint32_t num_shards = 0;
  uint32_t write_shard = 0;
  uint64_t rows = 0;
  NL_RETURN_IF_ERROR(r.ReadU32(&num_shards));
  NL_RETURN_IF_ERROR(r.ReadU32(&write_shard));
  NL_RETURN_IF_ERROR(r.ReadU64(&rows));
  if (num_shards != shards_.size()) {
    return Status::FailedPrecondition(
        StrCat("snapshot has ", num_shards, " shards, engine has ",
               shards_.size()));
  }
  if (write_shard >= num_shards) {
    return Status::IOError(
        StrCat("shard_layout routes writes to missing shard ", write_shard));
  }
  if (rows != file.header.num_docs) {
    return Status::IOError(
        StrCat("shard_layout covers ", rows, " rows, header claims ",
               file.header.num_docs));
  }
  NL_RETURN_IF_ERROR(r.CheckCount(rows, 1));
  std::vector<uint32_t> assignment;
  assignment.reserve(rows);
  std::vector<uint64_t> per_shard(num_shards, 0);
  for (uint64_t row = 0; row < rows; ++row) {
    uint32_t shard = 0;
    NL_RETURN_IF_ERROR(r.ReadVarint(&shard));
    if (shard >= num_shards) {
      return Status::IOError(
          StrCat("shard_layout routes row ", row, " to missing shard ",
                 shard));
    }
    assignment.push_back(shard);
    ++per_shard[shard];
  }
  NL_RETURN_IF_ERROR(r.ExpectEnd());

  // Load every shard snapshot. Each shard validates its own header and
  // sections and stays untouched on ITS failure — but a failure after the
  // first shard loaded leaves this engine partially populated, so callers
  // must discard it on error (see the header).
  for (size_t s = 0; s < shards_.size(); ++s) {
    NL_RETURN_IF_ERROR(shards_[s]->LoadSnapshot(ShardSnapshotPath(path, s)));
    if (shards_[s]->num_indexed_docs() != per_shard[s]) {
      return Status::FailedPrecondition(
          StrCat("shard ", s, " snapshot holds ",
                 shards_[s]->num_indexed_docs(), " docs, manifest routes ",
                 per_shard[s]));
    }
  }

  for (const uint32_t shard : assignment) RecordRoute(shard);
  options_.write_shard = write_shard;
  corpus_fingerprint_.store(file.header.corpus_fingerprint,
                            std::memory_order_release);
  return Status::OK();
}

}  // namespace newslink
