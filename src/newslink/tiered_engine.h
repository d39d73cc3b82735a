// TieredEngine: a two-tier NewsLink index for streaming news (DESIGN.md
// Sec. 15). The immutable BASE tier holds the bulk-indexed archive; the
// small TODAY tier absorbs AddDocument traffic, so live ingestion never
// rewrites the big index. A compaction (manual Compact() or the optional
// background compactor) rebuilds the base over all documents — reusing
// every already-computed embedding, so the expensive NLP/NE pipeline never
// re-runs — and swaps in a fresh empty today tier with one pointer swap.
//
// Queries treat the tiers as two document-partition shards of one
// collection: the query pipeline (query_pipeline.h) runs over two local
// backends — so scores (recency decay and time_range filtering included)
// are bit-identical to a single NewsLinkEngine over all documents,
// whatever the tier split. Global document ids are corpus rows
// in ingestion order (base rows first, today rows after), and compaction
// preserves them: hits stay stable across a compaction.
//
// Concurrency: queries never take the writer lock — they pin both tiers
// via shared_ptr and keep scoring the pre-compaction tiers while a
// rebuild runs. Writers (AddDocument, Compact, the compactor thread)
// serialize on writer_mu_, so ingestion stalls for the duration of a
// compaction — the documented trade-off this design makes to keep the
// query path wait-free (bench/bench_churn gates query p99 across
// compactions, not ingest latency).

#ifndef NEWSLINK_NEWSLINK_TIERED_ENGINE_H_
#define NEWSLINK_NEWSLINK_TIERED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "corpus/corpus.h"
#include "kg/knowledge_graph.h"
#include "kg/label_index.h"
#include "newslink/newslink_engine.h"
#include "newslink/query_pipeline.h"

namespace newslink {

/// Registry series maintained by TieredEngine on top of the engine_* base
/// series (the tiers' own engines keep their registries private; these are
/// the tier-lifecycle view).
inline constexpr std::string_view kTierCompactions = "tier_compactions_total";
inline constexpr std::string_view kTierCompactionFailures =
    "tier_compaction_failures_total";
inline constexpr std::string_view kTodayTierDocs = "today_tier_docs";
inline constexpr std::string_view kTodayTierBytes = "today_tier_bytes";

struct TieredOptions {
  /// Background compaction period, seconds. 0 (default) disables the
  /// compactor thread — compaction then only happens via Compact().
  double compact_interval_seconds = 0.0;
  /// The background compactor only compacts once the today tier holds at
  /// least this many documents (manual Compact() ignores the threshold).
  size_t compact_min_today_docs = 1;
};

/// \brief Base + today tiers behind the one baselines::SearchEngine
/// interface.
class TieredEngine : public PipelineEngine {
 public:
  /// `graph` and `label_index` must outlive the engine; both tiers (and
  /// every compaction-rebuilt tier) serve the same knowledge graph.
  TieredEngine(const kg::KnowledgeGraph* graph,
               const kg::LabelIndex* label_index, NewsLinkConfig config = {},
               TieredOptions options = {});
  ~TieredEngine() override;

  std::string name() const override;

  /// Bulk-build the base tier. Requires an empty engine (nothing indexed
  /// or streamed yet); live AddDocument traffic may follow.
  Status Index(const corpus::Corpus& corpus) override;

  /// Append one document to the today tier and publish it (epoch bump).
  /// Safe to call while queries run; concurrent callers serialize on the
  /// writer lock. Returns the document's global corpus row, which stays
  /// valid across compactions.
  size_t AddDocument(const corpus::Document& doc);

  /// Merge the today tier into the base: rebuild the base index over every
  /// document ingested so far, reusing all previously computed embeddings
  /// (no NLP/NE re-run), and swap in a fresh empty today tier. Queries in
  /// flight keep their pinned pre-compaction tiers; new queries see the
  /// compacted pair. No-op (OK) when the today tier is empty. Ingestion
  /// stalls while the rebuild runs.
  Status Compact();

  // No snapshots yet: persistence of a live tiered pair (base snapshot +
  // today write-ahead section) is future work — see DESIGN.md Sec. 15.

  size_t num_indexed_docs() const {
    return num_docs_.load(std::memory_order_acquire);
  }
  /// Documents currently in the today (live) tier.
  size_t today_tier_docs() const;
  /// Compactions completed so far.
  uint64_t compactions() const;
  uint64_t corpus_fingerprint() const {
    return corpus_fingerprint_.load(std::memory_order_acquire);
  }

 protected:
  /// The current tier pair as two pipeline backends (base, then today);
  /// the base tier runs the query's NLP/NE. Queries never block on
  /// writers: the view holds the pair alive across a compaction swap.
  PipelineView View() const override;

 private:
  /// One immutable tier pair. Queries hold the whole struct (and thereby
  /// both engines) via shared_ptr, so a compaction swap never invalidates
  /// an in-flight query's engines.
  struct Tiers {
    /// `base` must be fully indexed: its document count is the split
    /// point (global row of today-local row j = base docs + j).
    Tiers(std::shared_ptr<NewsLinkEngine> base_tier,
          std::shared_ptr<NewsLinkEngine> today_tier, uint64_t epoch_offset);

    std::shared_ptr<NewsLinkEngine> base;
    std::shared_ptr<NewsLinkEngine> today;
    /// Epoch offset so response.epoch stays monotone across compactions
    /// (a fresh tier pair restarts its engines' own epoch counters).
    uint64_t epoch_base = 0;
    LocalShardBackend backends[2];
    const ShardBackend* backend_ptrs[2];
  };

  std::shared_ptr<const Tiers> AcquireTiers() const;

  void CompactorLoop();

  const kg::KnowledgeGraph* graph_;
  const kg::LabelIndex* label_index_;
  NewsLinkConfig config_;
  TieredOptions options_;

  // All ingested documents in global row order — the compaction rebuild's
  // input. Guarded by writer_mu_ (queries never read it).
  corpus::Corpus docs_;
  size_t today_bytes_ = 0;  // guarded by writer_mu_

  // Writer side: serializes Index / AddDocument / Compact. Queries never
  // take this lock.
  std::mutex writer_mu_;
  std::atomic<uint64_t> corpus_fingerprint_{0};
  std::atomic<size_t> num_docs_{0};

  // Published tier pair: mutex-guarded shared_ptr swap, same discipline as
  // NewsLinkEngine's snapshot slot.
  mutable std::mutex tiers_mu_;
  std::shared_ptr<const Tiers> tiers_;  // guarded by tiers_mu_

  // Background compactor (runs only when compact_interval_seconds > 0).
  std::mutex compactor_mu_;
  std::condition_variable compactor_cv_;
  bool stop_compactor_ = false;  // guarded by compactor_mu_
  std::thread compactor_;

  metrics::Counter* compactions_;
  metrics::Counter* compaction_failures_;
  metrics::Gauge* today_docs_gauge_;
  metrics::Gauge* today_bytes_gauge_;
};

}  // namespace newslink

#endif  // NEWSLINK_NEWSLINK_TIERED_ENGINE_H_
