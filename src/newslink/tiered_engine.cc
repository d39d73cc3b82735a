#include "newslink/tiered_engine.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace newslink {

namespace {

/// Approximate heap footprint of one document's raw content — the input
/// the today-tier byte gauge tracks (index structures amplify it, but the
/// raw size is stable across index configs and good enough to alarm on).
size_t DocumentBytes(const corpus::Document& doc) {
  return doc.id.size() + doc.title.size() + doc.text.size();
}

}  // namespace

TieredEngine::TieredEngine(const kg::KnowledgeGraph* graph,
                           const kg::LabelIndex* label_index,
                           NewsLinkConfig config, TieredOptions options)
    : PipelineEngine(config),
      graph_(graph),
      label_index_(label_index),
      config_(config),
      options_(options),
      compactions_(registry()->GetCounter(
          kTierCompactions, "today-tier merges into the base tier")),
      compaction_failures_(registry()->GetCounter(
          kTierCompactionFailures, "compaction rebuilds that failed")),
      today_docs_gauge_(registry()->GetGauge(
          kTodayTierDocs, "documents in the live today tier")),
      today_bytes_gauge_(registry()->GetGauge(
          kTodayTierBytes, "raw content bytes in the live today tier")) {
  tiers_ = std::make_shared<Tiers>(
      std::make_shared<NewsLinkEngine>(graph, label_index, config),
      std::make_shared<NewsLinkEngine>(graph, label_index, config), 0);
  if (options_.compact_interval_seconds > 0.0) {
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
}

TieredEngine::~TieredEngine() {
  if (compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(compactor_mu_);
      stop_compactor_ = true;
    }
    compactor_cv_.notify_all();
    compactor_.join();
  }
}

std::string TieredEngine::name() const {
  return StrCat("Tiered[", AcquireTiers()->base->name(), "]");
}

TieredEngine::Tiers::Tiers(std::shared_ptr<NewsLinkEngine> base_tier,
                           std::shared_ptr<NewsLinkEngine> today_tier,
                           uint64_t epoch_offset)
    : base(std::move(base_tier)),
      today(std::move(today_tier)),
      epoch_base(epoch_offset),
      backends{LocalShardBackend(base.get()),
               LocalShardBackend(today.get(),
                                 {.offset = static_cast<uint32_t>(
                                      base->num_indexed_docs())})},
      backend_ptrs{&backends[0], &backends[1]} {}

std::shared_ptr<const TieredEngine::Tiers> TieredEngine::AcquireTiers()
    const {
  std::lock_guard<std::mutex> lock(tiers_mu_);
  return tiers_;
}

PipelineView TieredEngine::View() const {
  std::shared_ptr<const Tiers> tiers = AcquireTiers();
  PipelineView view;
  view.prep = tiers->base.get();
  view.backends = tiers->backend_ptrs;
  view.epoch_base = tiers->epoch_base;
  view.keep_alive = std::move(tiers);
  return view;
}

size_t TieredEngine::today_tier_docs() const {
  return AcquireTiers()->today->num_indexed_docs();
}

uint64_t TieredEngine::compactions() const { return compactions_->Value(); }

Status TieredEngine::Index(const corpus::Corpus& corpus) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (!docs_.empty()) {
    return Status::FailedPrecondition(
        "Index requires an empty engine; use AddDocument for live ingestion");
  }
  // Build the base tier first: a failed build leaves the engine untouched
  // (the ctor-created base engine only mutates after its own validation).
  // Then republish the pair, so the today backend's rows start after the
  // base tier's (the today tier is still empty until then).
  const std::shared_ptr<const Tiers> tiers = AcquireTiers();
  NL_RETURN_IF_ERROR(tiers->base->Index(corpus));
  {
    auto indexed =
        std::make_shared<Tiers>(tiers->base, tiers->today, tiers->epoch_base);
    std::lock_guard<std::mutex> lock(tiers_mu_);
    tiers_ = std::move(indexed);
  }

  uint64_t fp = corpus_fingerprint_.load(std::memory_order_relaxed);
  for (size_t row = 0; row < corpus.size(); ++row) {
    docs_.Add(corpus.doc(row));
    fp = corpus::ChainCorpusFingerprint(fp, corpus.doc(row));
  }
  corpus_fingerprint_.store(fp, std::memory_order_release);
  num_docs_.store(docs_.size(), std::memory_order_release);
  return Status::OK();
}

size_t TieredEngine::AddDocument(const corpus::Document& doc) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  const std::shared_ptr<const Tiers> tiers = AcquireTiers();
  // Global rows are ingestion order: the new document's row is everything
  // ingested so far, independent of the current tier split (compaction
  // preserves the order, so the row stays valid for the engine's life).
  const size_t global = docs_.size();
  tiers->today->AddDocument(doc);
  docs_.Add(doc);
  corpus_fingerprint_.store(
      corpus::ChainCorpusFingerprint(
          corpus_fingerprint_.load(std::memory_order_relaxed), doc),
      std::memory_order_release);
  num_docs_.store(docs_.size(), std::memory_order_release);
  today_bytes_ += DocumentBytes(doc);
  today_docs_gauge_->Set(
      static_cast<double>(tiers->today->num_indexed_docs()));
  today_bytes_gauge_->Set(static_cast<double>(today_bytes_));
  return global;
}

Status TieredEngine::Compact() {
  // Writers stall for the whole rebuild (the documented trade-off);
  // queries keep running on the pre-compaction tiers via their pins.
  std::lock_guard<std::mutex> writer(writer_mu_);
  const std::shared_ptr<const Tiers> tiers = AcquireTiers();
  if (tiers->today->num_indexed_docs() == 0) return Status::OK();

  // Reuse every embedding both tiers already computed — concatenated in
  // global row order (base rows first), exactly matching docs_ — so the
  // rebuild is pure NS-component work (tokenize + index), no NLP/NE.
  std::vector<embed::DocumentEmbedding> embeddings =
      tiers->base->SnapshotEmbeddings();
  std::vector<embed::DocumentEmbedding> today =
      tiers->today->SnapshotEmbeddings();
  embeddings.insert(embeddings.end(),
                    std::make_move_iterator(today.begin()),
                    std::make_move_iterator(today.end()));
  NL_CHECK(embeddings.size() == docs_.size())
      << "tier embeddings cover " << embeddings.size() << " of "
      << docs_.size() << " documents";

  auto base =
      std::make_shared<NewsLinkEngine>(graph_, label_index_, config_);
  const Status built = base->IndexWithEmbeddings(docs_, std::move(embeddings));
  if (!built.ok()) {
    compaction_failures_->Inc();
    return built;
  }

  // Fold the retiring pair's epochs into the offset so response.epoch
  // keeps growing across the swap (the fresh engines restart at zero).
  auto next = std::make_shared<Tiers>(
      std::move(base),
      std::make_shared<NewsLinkEngine>(graph_, label_index_, config_),
      tiers->epoch_base + tiers->base->PinEpoch().epoch() +
          tiers->today->PinEpoch().epoch());
  {
    std::lock_guard<std::mutex> lock(tiers_mu_);
    tiers_ = std::move(next);
  }
  today_bytes_ = 0;
  today_docs_gauge_->Set(0.0);
  today_bytes_gauge_->Set(0.0);
  compactions_->Inc();
  return Status::OK();
}

void TieredEngine::CompactorLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.compact_interval_seconds);
  std::unique_lock<std::mutex> lock(compactor_mu_);
  while (!stop_compactor_) {
    compactor_cv_.wait_for(lock, interval,
                           [this] { return stop_compactor_; });
    if (stop_compactor_) break;
    if (AcquireTiers()->today->num_indexed_docs() <
        options_.compact_min_today_docs) {
      continue;
    }
    lock.unlock();
    // Failures are counted (tier_compaction_failures_total) and retried
    // next tick; the engine keeps serving from the uncompacted pair.
    (void)Compact();
    lock.lock();
  }
}

}  // namespace newslink
