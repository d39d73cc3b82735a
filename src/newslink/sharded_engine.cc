#include "newslink/sharded_engine.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace newslink {

ShardedEngine::ShardedEngine(const kg::KnowledgeGraph* graph,
                             const kg::LabelIndex* label_index,
                             NewsLinkConfig config, size_t num_shards)
    : PipelineEngine(config) {
  NL_CHECK(num_shards >= 1) << "ShardedEngine needs >= 1 shard";
  shards_.reserve(num_shards);
  backends_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(
        std::make_unique<NewsLinkEngine>(graph, label_index, config));
    backends_.emplace_back(shards_[s].get(),
                           ShardRows::RoundRobin(s, num_shards));
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

Status ShardedEngine::Index(const corpus::Corpus& corpus) {
  // Shard 0 holds row 0, so its own empty-engine check rejects a second
  // Index before any shard changes. Each slice keeps ascending global-row
  // order, so shard-local tie-breaks (smaller local row wins) agree with
  // global ones after translation.
  for (size_t s = 0; s < shards_.size(); ++s) {
    NL_RETURN_IF_ERROR(shards_[s]->Index(
        ShardRows::RoundRobin(s, shards_.size()).Slice(corpus)));
  }
  return Status::OK();
}

}  // namespace newslink
