// ShardedEngine: N NewsLinkEngine document-partition shards behind the one
// baselines::SearchEngine interface (DESIGN.md Sec. 12). Index partitions
// the corpus across the shards (round-robin or content-hash by corpus row,
// or an explicit per-row assignment); Search is the query pipeline
// (query_pipeline.h) over one local backend per shard — producing hits
// bit-identical (scores and tie order) to a single NewsLinkEngine over
// the whole corpus.
//
// Writes: AddDocument routes to the designated write shard; Save/Load
// snapshot persists a manifest (partition permutation + fingerprints)
// alongside one standard engine snapshot per shard, so warm-started shards
// agree with the manifest or fail loudly.

#ifndef NEWSLINK_NEWSLINK_SHARDED_ENGINE_H_
#define NEWSLINK_NEWSLINK_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ir/append_only.h"
#include "kg/knowledge_graph.h"
#include "kg/label_index.h"
#include "newslink/newslink_engine.h"
#include "newslink/query_pipeline.h"

namespace newslink {

struct ShardedOptions {
  /// Number of document-partition shards (>= 1).
  size_t num_shards = 2;
  enum class Partition {
    kRoundRobin,  // row i -> shard i % num_shards
    kHash,        // row i -> DocumentFingerprint(doc) % num_shards
    kExplicit,    // row i -> assignment[i]
  };
  Partition partition = Partition::kRoundRobin;
  /// Per-corpus-row shard, used (and required) with Partition::kExplicit.
  std::vector<uint32_t> assignment;
  /// Shard that absorbs AddDocument traffic.
  size_t write_shard = 0;
  /// Fan-out worker threads (0 = num_shards).
  size_t fanout_threads = 0;
};

/// \brief Scatter-gather search over N in-process NewsLink shards.
class ShardedEngine : public PipelineEngine {
 public:
  /// `graph` and `label_index` must outlive the engine; every shard serves
  /// the same knowledge graph.
  ShardedEngine(const kg::KnowledgeGraph* graph,
                const kg::LabelIndex* label_index,
                NewsLinkConfig config = {}, ShardedOptions options = {});

  std::string name() const override;

  /// Partition `corpus` across the shards and index each partition (shards
  /// sequentially — each shard's NLP/NE stage is internally parallel).
  Status Index(const corpus::Corpus& corpus) override;

  /// Append one document: routed to options.write_shard, which publishes
  /// a new epoch there. Returns the document's global corpus row.
  size_t AddDocument(const corpus::Document& doc);

  /// Manifest (partition permutation + fingerprints) at `path`, one engine
  /// snapshot per shard at `path.shard<i>`. LoadSnapshot validates the
  /// manifest against this engine's graph/config and shard count, loads
  /// every shard snapshot (each shard re-validates its own), and checks
  /// per-shard doc counts against the manifest's routing table. A failure
  /// after the first shard loaded leaves earlier shards populated —
  /// discard the engine on error rather than retrying into it.
  Status SaveSnapshot(const std::string& path) const override;
  Status LoadSnapshot(const std::string& path) override;

  /// Where shard `i`'s engine snapshot lives relative to the manifest.
  static std::string ShardSnapshotPath(const std::string& path, size_t shard);

  size_t num_shards() const { return shards_.size(); }
  const NewsLinkEngine& shard(size_t i) const { return *shards_[i]; }
  size_t num_indexed_docs() const {
    return shard_of_row_.size();
  }
  uint64_t corpus_fingerprint() const {
    return corpus_fingerprint_.load(std::memory_order_acquire);
  }

 protected:
  /// Shard 0 runs the query's NLP/NE (every shard shares the KG and
  /// config); one local backend per shard.
  PipelineView View() const override;

 private:
  /// Route one new global row to `shard`, recording both directions.
  /// Caller holds writer_mu_. Returns the shard-local row.
  uint32_t RecordRoute(uint32_t shard);

  const kg::KnowledgeGraph* graph_;
  NewsLinkConfig config_;
  ShardedOptions options_;
  std::vector<std::unique_ptr<NewsLinkEngine>> shards_;

  // Routing tables, append-only so queries read them lock-free while
  // AddDocument grows them. A mapping entry is always appended BEFORE the
  // owning shard publishes the document's epoch, so any local row a shard
  // snapshot can return already has its global translation (and vice
  // versa: any global row below a published count resolves).
  ir::AppendOnlyStore<uint32_t> shard_of_row_;    // global row -> shard
  ir::AppendOnlyStore<uint32_t> local_of_row_;    // global row -> local row
  std::vector<std::unique_ptr<ir::AppendOnlyStore<uint32_t>>>
      global_of_local_;                           // [shard] local -> global

  /// shards_[s] as a pipeline backend, rows through global_of_local_[s].
  std::vector<LocalShardBackend> backends_;
  std::vector<const ShardBackend*> backend_ptrs_;

  mutable std::mutex writer_mu_;
  std::atomic<uint64_t> corpus_fingerprint_{0};
};

}  // namespace newslink

#endif  // NEWSLINK_NEWSLINK_SHARDED_ENGINE_H_
