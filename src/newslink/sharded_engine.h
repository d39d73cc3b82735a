// ShardedEngine: N NewsLinkEngine document-partition shards behind the one
// baselines::SearchEngine interface (DESIGN.md Sec. 12) — the in-process
// twin of the HTTP coordinator over N `serve --shard-index` servers. Index
// gives shard s the round-robin slice of the corpus (ShardRows, shard_api.h);
// Search is the query pipeline (query_pipeline.h) over one local backend
// per shard, producing hits bit-identical (scores and tie order) to a
// single NewsLinkEngine over the whole corpus.
//
// Live ingestion and snapshots belong to the single engine: a deployment
// shards by running one ordinary engine (and snapshot) per shard server.

#ifndef NEWSLINK_NEWSLINK_SHARDED_ENGINE_H_
#define NEWSLINK_NEWSLINK_SHARDED_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "kg/knowledge_graph.h"
#include "kg/label_index.h"
#include "newslink/newslink_engine.h"
#include "newslink/query_pipeline.h"

namespace newslink {

/// \brief Scatter-gather search over N in-process NewsLink shards.
class ShardedEngine : public PipelineEngine {
 public:
  /// `graph` and `label_index` must outlive the engine; every shard serves
  /// the same knowledge graph. `num_shards` >= 1.
  ShardedEngine(const kg::KnowledgeGraph* graph,
                const kg::LabelIndex* label_index, NewsLinkConfig config,
                size_t num_shards);

  std::string name() const override;

  /// Index shard s over the corpus rows s, s + N, s + 2N, … (shards
  /// sequentially — each shard's NLP/NE stage is internally parallel).
  Status Index(const corpus::Corpus& corpus) override;

 protected:
  /// Shard 0 runs the query's NLP/NE (every shard shares the KG and
  /// config); one local backend per shard.
  PipelineView View() const override;

 private:
  std::vector<std::unique_ptr<NewsLinkEngine>> shards_;
  /// shards_[s] as a pipeline backend, rows ShardRows::RoundRobin(s, N).
  std::vector<LocalShardBackend> backends_;
  std::vector<const ShardBackend*> backend_ptrs_;
};

}  // namespace newslink

#endif  // NEWSLINK_NEWSLINK_SHARDED_ENGINE_H_
