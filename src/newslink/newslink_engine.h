// NewsLinkEngine: the complete framework of the paper (Fig. 2). Indexing
// runs the NLP component (segmentation + NER + Def. 1), the NE component
// (G* subgraph embeddings, optionally the TreeEmb baseline), and builds the
// NS component's dual inverted indexes (BOW over text, BON over embedding
// nodes). Query processing fuses both scores with Equation 3 and can attach
// relationship-path explanations (Tables II/VI); it is the query pipeline
// (query_pipeline.h) over one backend — this engine as its own shard.
//
// Concurrency model (epoch-based snapshot isolation, DESIGN.md Sec. 7):
// queries and ingestion run concurrently. A writer (Index /
// IndexWithEmbeddings / AddDocument) appends under `writer_mu_` and then
// publishes a new immutable EngineSnapshot — index extents, collection
// statistics, and the epoch number — with a single pointer swap. Every
// query acquires the current snapshot at entry and evaluates entirely
// against it: it can never observe a half-appended document or mix
// statistics from two epochs. Old snapshots are reclaimed when their last
// reader releases them.
//
// Observability (DESIGN.md Sec. 8): every cumulative counter, gauge, and
// latency histogram lives in the engine's metrics::Registry (Metrics() on
// the base class); per-query time attribution comes from the span tree
// each Search call builds (SearchResponse::timings / ::trace), and queries
// crossing `slow_query_threshold_seconds` land in slow_query_log() with
// their full tree — all maintained by the query pipeline.

#ifndef NEWSLINK_NEWSLINK_NEWSLINK_ENGINE_H_
#define NEWSLINK_NEWSLINK_NEWSLINK_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/search_engine.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "embed/document_embedding.h"
#include "ir/append_only.h"
#include "ir/inverted_index.h"
#include "ir/max_score.h"
#include "ir/scorer.h"
#include "ir/term_dictionary.h"
#include "kg/knowledge_graph.h"
#include "kg/label_index.h"
#include "newslink/query_pipeline.h"
#include "newslink/shard_api.h"
#include "text/gazetteer_ner.h"
#include "text/news_segmenter.h"

namespace newslink {

/// Registry series names maintained by NewsLinkEngine, on top of the
/// engine_* / query_* series of its query pipeline and the embedder_* /
/// lcag_cache_* series of its NE component (all in the same registry).
inline constexpr std::string_view kBowDocsScored = "bow_docs_scored_total";
inline constexpr std::string_view kBonDocsScored = "bon_docs_scored_total";
/// Registered by the text-side MaxScoreRetriever (prefix "bow"): posting
/// blocks the block-max bound eliminated without decoding.
inline constexpr std::string_view kBowBlocksSkipped =
    "bow_maxscore_blocks_skipped_total";
inline constexpr std::string_view kEpochsPublished = "epochs_published_total";
inline constexpr std::string_view kSnapshotAcquisitions =
    "snapshot_acquisitions_total";
inline constexpr std::string_view kSnapshotsReclaimed =
    "snapshots_reclaimed_total";
inline constexpr std::string_view kCurrentEpoch = "current_epoch";
inline constexpr std::string_view kIndexedDocs = "indexed_docs";
/// Per-document component latency histograms for index builds / ingestion.
inline constexpr std::string_view kIndexNlpSeconds = "index_nlp_seconds";
inline constexpr std::string_view kIndexNeSeconds = "index_ne_seconds";
inline constexpr std::string_view kIndexNsSeconds = "index_ns_seconds";

/// \brief Which NE-component model embeds the news segments.
enum class EmbedderKind {
  kLcag,  // the paper's G* model
  kTree,  // the TreeEmb baseline (Table VII / Fig. 7)
};

struct NewsLinkConfig {
  /// β of Equation 3: 0 = pure text (reduces to Lucene), 1 = pure BON.
  /// This is the *default* for queries that do not carry their own β —
  /// per-query values travel in baselines::SearchRequest::beta.
  double beta = 0.2;
  EmbedderKind embedder = EmbedderKind::kLcag;
  embed::LcagOptions lcag;
  /// LCAG distance sketches (embed/lcag_sketch.h): when enabled, built once
  /// at bulk-index time (or restored from a snapshot's "lcag_sketch"
  /// section) and used to answer most entity groups without a graph
  /// search. Result-invariant — bit-exact vs the full search — so
  /// excluded from ConfigFingerprint: a snapshot carries
  /// its own sketches, and a sketch-free engine may load a sketch-built
  /// snapshot (and vice versa, rebuilding them on demand).
  embed::LcagSketchOptions lcag_sketch;
  embed::TreeEmbedOptions tree;
  ir::Bm25Params bm25;
  /// BM25 parameters for the BON (node) index. b defaults to 0 (a large
  /// subgraph embedding is context richness, not verbosity); with the tf
  /// cap below, BON rewards *coverage* of the query subgraph plus whether
  /// each covered node is central to the document.
  ir::Bm25Params bon_bm25{0.8, 0.0};
  /// Cap on a node's document-side BON frequency (number of segment
  /// subgraphs containing it). 2 distinguishes central from incidental
  /// nodes without letting repetition races decide rankings.
  uint32_t bon_doc_tf_cap = 2;
  /// Query-side weight of *source* nodes (entities literally mentioned in
  /// the query) relative to induced context nodes (weight 1). Mentioned
  /// entities are first-class evidence; induced context enriches but must
  /// not dominate — a document whose segment grouping induced a
  /// different-but-equivalent context should not be punished.
  uint32_t bon_query_source_weight = 3;
  /// Worker threads for corpus embedding (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Ablation knob: false embeds EVERY news segment instead of only the
  /// maximal entity co-occurrence set of Definition 1.
  bool use_maximal_reduction = true;
  /// Default recency half-life, seconds (DESIGN.md Sec. 15): fused scores
  /// are multiplied by 2^(-age / half_life) against the snapshot's pinned
  /// "now". 0 (the default) disables decay; +infinity runs the decay path
  /// with a factor of exactly 1.0 (bit-identical scores). Per-query values
  /// travel in SearchRequest::recency_half_life_seconds. Query-side only,
  /// so excluded from ConfigFingerprint; a corpus without timestamps keeps
  /// recency disabled regardless of this value.
  double recency_half_life_seconds = 0.0;
  /// Entry capacity of the LCAG result cache shared by the index-time
  /// workers and the query path (0 disables caching).
  size_t lcag_cache_capacity = 4096;
  /// Queries at least this slow (end-to-end seconds) are recorded — with
  /// their full span tree — in slow_query_log(). <= 0 disables the log.
  double slow_query_threshold_seconds = 0.0;
  /// Most-recent entries kept by the slow-query log.
  size_t slow_query_log_capacity = 32;
  /// Doc-ID reordering at bulk-index time (Index / IndexWithEmbeddings):
  /// renumber internal doc ids so SimHash-similar documents sit adjacent,
  /// which makes posting blocks coherent and block-max pruning effective.
  /// Purely internal — the public API (SearchHit::doc_index,
  /// doc_embedding(), SnapshotEmbeddings()) always speaks corpus row
  /// numbers, the merge breaks score ties on corpus rows, and the
  /// permutation is persisted in snapshots, so results are identical with
  /// or without it. Excluded from ConfigFingerprint for the same reason: a
  /// snapshot carries its own doc map.
  bool reorder_docs = false;
};

/// \brief A search hit with optional relationship-path explanations.
using ExplainedResult = baselines::SearchHit;

/// \brief The NewsLink search engine.
class NewsLinkEngine : public PipelineEngine {
 public:
  /// `graph` and `label_index` must outlive the engine.
  NewsLinkEngine(const kg::KnowledgeGraph* graph,
                 const kg::LabelIndex* label_index,
                 NewsLinkConfig config = {});

  std::string name() const override;

  /// The configuration; its query knobs (β, recency half-life) are
  /// the defaults for requests that do not set their own.
  const NewsLinkConfig& config() const { return config_; }
  const kg::KnowledgeGraph* graph() const { return graph_; }

  /// Build embeddings and indexes for the corpus, then publish one epoch:
  /// the NLP/NE stage in parallel across documents (paper Sec. VII-G),
  /// then IndexWithEmbeddings. Indexing into a non-empty engine is
  /// FailedPrecondition.
  Status Index(const corpus::Corpus& corpus) override;

  /// Index with precomputed embeddings (one per document, e.g. an older
  /// engine's SnapshotEmbeddings() when compaction folds tiers) — the NS
  /// half of Index, skipping the expensive NE stage. Like Index, requires an empty engine (the doc-id map starts
  /// at row 0).
  Status IndexWithEmbeddings(const corpus::Corpus& corpus,
                             std::vector<embed::DocumentEmbedding> embeddings);

  /// Append one document to a live index (incremental ingestion) and
  /// publish a new epoch. Safe to call while queries run: in-flight
  /// queries keep their acquired epoch; later queries see the new
  /// document. Concurrent AddDocument callers serialize on the writer
  /// lock (NLP + NE run outside it). Returns the new document's index.
  size_t AddDocument(const corpus::Document& doc);

  /// Copy of the embeddings visible in the current epoch, aligned with
  /// corpus order (persisted by SaveSnapshot's embeddings section). A copy —
  /// not a reference — so the caller's view stays stable while ingestion
  /// continues.
  std::vector<embed::DocumentEmbedding> SnapshotEmbeddings() const;

  /// Serialize the full NS-component state — term dictionary, both
  /// inverted indexes, document embeddings — plus the KG / corpus / config
  /// fingerprints into a versioned snapshot file (DESIGN.md Sec. 9).
  /// Quiesces writers (takes the writer lock); queries keep running.
  /// Deterministic: saving the same state twice yields identical bytes.
  Status SaveSnapshot(const std::string& path) const;

  /// Restore a SaveSnapshot file into this engine, which must be empty
  /// (freshly constructed, nothing indexed). Skips the NLP/NE pipeline
  /// entirely — the warm-start path. Rejects snapshots whose KG or config
  /// fingerprint differs from this engine's (FailedPrecondition) and any
  /// corrupt or truncated file (IOError); on failure the engine is left
  /// untouched and usable. Live AddDocument ingestion may continue on top
  /// of the loaded state.
  Status LoadSnapshot(const std::string& path);

  /// Chained fingerprint of every document indexed so far (0 when empty);
  /// stored in snapshots so tools can verify a snapshot actually matches a
  /// given corpus file.
  uint64_t corpus_fingerprint() const {
    return corpus_fingerprint_.load(std::memory_order_acquire);
  }

  /// Fingerprint of the artifact-shaping configuration fields (embedder
  /// kind, BON caps, LCAG structure options — not wall-clock limits).
  /// Snapshots refuse to load under a config with a different value.
  static uint64_t ConfigFingerprint(const NewsLinkConfig& config);

  // Search / SearchBatch (PipelineEngine) run the query pipeline with this
  // engine as its one backend: any number of threads may call them
  // concurrently with each other and with AddDocument.

  // --- Shard-serving surface (shard_api.h, DESIGN.md Sec. 12) ----------
  // These calls let this engine act as one document-partition shard of a
  // collection — its own Search included: the pipeline prepares the query
  // once, plans (gathers per-shard collection statistics), merges them,
  // then searches every shard with the collection-wide statistics.

  /// Pin the current published epoch: PlanShard and SearchShard against
  /// the returned pin read one immutable snapshot even while AddDocument
  /// publishes new epochs concurrently.
  ShardEpochPin PinEpoch() const;

  /// Build the shard-portable query: resolves β against this engine's
  /// config, sets the first round's k', stems the text side, and weights
  /// the query embedding's nodes (sources boosted).
  /// `query_embedding` may be empty when β == 0 — pass
  /// EmbedText(request.query) otherwise.
  ShardQuery PrepareShardQuery(
      const baselines::SearchRequest& request,
      const embed::DocumentEmbedding& query_embedding) const;

  /// Phase 1: this shard's collection statistics for the query (df/max-tf
  /// positional per query term). Document count, total lengths, dfs,
  /// has_timestamps and now_ms are read from the pinned epoch; the min doc
  /// lengths and max-tfs are the live index's (MinDocLength, BlockMax).
  /// Those are pruning bounds, which concurrent appends only loosen, while
  /// every score uses the pinned dfs and lengths, so answers stay exact.
  ShardPlan PlanShard(const ShardQuery& query, const ShardEpochPin& pin)
      const;

  /// Phase 2: per-side top-k' candidates scored with the collection-wide
  /// statistics, missing sides completed by random access, raw per-side
  /// list maxima and floors attached. Candidate doc ids are this shard's
  /// corpus rows, sorted ascending.
  ShardSearchResult SearchShard(const ShardQuery& query,
                                const ShardStats& global,
                                const ShardEpochPin& pin) const;

  /// Run the NLP + NE components on a standalone text (e.g. a query).
  embed::DocumentEmbedding EmbedText(const std::string& text) const;

  /// NLP output for a standalone text.
  text::SegmentedDocument SegmentText(const std::string& text) const;

  /// NE component over an already segmented text: embeds its entity groups
  /// (Definition 1). `trace`, when non-null, gets one "segment" span per
  /// embedded group.
  embed::DocumentEmbedding EmbedSegmented(
      const text::SegmentedDocument& segmented, Trace* trace = nullptr) const;

  /// Embedding of an indexed document, addressed by corpus row number
  /// (the same ids SearchHit::doc_index reports). The reference is stable
  /// for the engine's lifetime (append-only storage never relocates
  /// elements); only call with i < num_indexed_docs() — or, under
  /// concurrent ingestion, i < a SearchResponse's snapshot_docs.
  const embed::DocumentEmbedding& doc_embedding(size_t i) const {
    return doc_embeddings_.At(external_to_internal_.At(i));
  }
  size_t num_indexed_docs() const { return doc_embeddings_.size(); }

  /// Publication timestamp of an indexed document, by corpus row number
  /// (same addressing rules as doc_embedding). 0 = unknown.
  int64_t doc_timestamp_ms(size_t i) const {
    return timestamps_.At(external_to_internal_.At(i));
  }

  /// Fraction of indexed documents with a non-empty embedding (the paper
  /// reports 96.3% / 91.2% corpus coverage). Evaluated over the current
  /// epoch.
  double EmbeddedDocumentFraction() const;

 protected:
  PipelineView View() const override;

 private:
  /// One published epoch: immutable extents + statistics of both indexes.
  /// Everything a query reads about the collection comes from here.
  struct EngineSnapshot {
    uint64_t epoch = 0;
    ir::IndexSnapshot side[2];  // indexed by Side
    size_t num_docs = 0;  // == side[kBow].num_docs == side[kBon].num_docs
    /// True once any indexed document carried a non-zero timestamp (or a
    /// loaded snapshot's timestamps section had one). False — e.g. for a
    /// pre-time snapshot without the section — leaves recency decay
    /// disabled for every query of this epoch.
    bool has_timestamps = false;
    /// Wall-clock instant this epoch was published (epoch ms): the decay
    /// reference shared by every query of the epoch, so concurrent queries
    /// agree on every document's age ("now" pinning, DESIGN.md Sec. 15).
    int64_t now_ms = 0;
  };

  /// Current epoch for a query; the shared_ptr keeps it alive until the
  /// last reader releases it.
  std::shared_ptr<const EngineSnapshot> AcquireSnapshot() const;

  /// Capture both indexes and install a new epoch (caller holds
  /// writer_mu_, or is the constructor).
  void PublishSnapshot();

  /// Build (once) and install the LCAG sketch index into the LCAG embedder
  /// when config_.lcag_sketch.enabled and none is installed yet. The
  /// sketch depends only on the immutable KG — not on the corpus or the
  /// epoch — so one build stays valid for the engine's lifetime.
  void EnsureSketch();

  /// Install an already-built sketch (e.g. from a snapshot section) into
  /// the LCAG embedder; no-op for the TreeEmb baseline.
  void InstallSketch(std::shared_ptr<const embed::LcagSketchIndex> sketch);

  /// The sketch currently installed in the embedder (nullptr when off or
  /// when the embedder is the TreeEmb baseline).
  std::shared_ptr<const embed::LcagSketchIndex> InstalledSketch() const;

  /// Append one document, corpus row `external`, to both NS indexes and
  /// the per-document stores (caller holds writer_mu_).
  void AppendDocument(const ir::TermCounts& text_counts,
                      embed::DocumentEmbedding embedding, int64_t timestamp_ms,
                      uint32_t external);

  /// One side of the NS component (Eq. 3): its index, the scorer and the
  /// retriever over it (so not movable), and its docs-scored counter.
  struct NsSide {
    NsSide(const ir::Bm25Params& bm25, metrics::Counter* docs_scored)
        : scorer(&index, bm25), retriever(&index, bm25),
          docs_scored(docs_scored) {}

    ir::InvertedIndex index;  // BON: term ids are KG node ids
    ir::Bm25Scorer scorer;
    ir::MaxScoreRetriever retriever;
    metrics::Counter* docs_scored;
  };

  const kg::KnowledgeGraph* graph_;
  const kg::LabelIndex* label_index_;
  NewsLinkConfig config_;

  text::GazetteerNer ner_;
  std::unique_ptr<embed::SegmentEmbedder> embedder_;
  /// Non-owning view of embedder_ when it is the LCAG model (nullptr for
  /// the TreeEmb baseline): the sketch installation point.
  embed::LcagSegmentEmbedder* lcag_embedder_ = nullptr;
  /// Serializes EnsureSketch's build-once check (concurrent AddDocument
  /// callers may race to be the first writer).
  std::mutex sketch_build_mu_;

  // NS component state. The indexes are append-only and support bounded
  // (snapshot-scoped) reads; scorers and retrievers are stateless over
  // them and constructed exactly once.
  ir::TermDictionary text_dict_;
  NsSide ns_[2];  // indexed by Side
  ir::AppendOnlyStore<embed::DocumentEmbedding> doc_embeddings_;
  /// Publication timestamps in INTERNAL id order, appended in lockstep
  /// with doc_embeddings_ (one entry per indexed document, 0 = unknown).
  /// Snapshot-bounded reads are safe under concurrent append, so the
  /// time_range filter and recency decay read it lock-free.
  ir::AppendOnlyStore<int64_t> timestamps_;
  /// Monotone: set once any appended document carries a non-zero
  /// timestamp. Written under writer_mu_; copied into every published
  /// EngineSnapshot (queries read it from there, never directly).
  bool has_timestamps_ = false;

  // Doc-id permutation from the reordering pass (identity when
  // config_.reorder_docs is off). Internal ids order postings and
  // doc_embeddings_; external ids are corpus row numbers — the only ids
  // the public API exposes. Both directions are append-only and published
  // in lockstep with the indexes, so a query translating a hit under its
  // snapshot always finds the entry.
  ir::AppendOnlyStore<uint32_t> internal_to_external_;
  ir::AppendOnlyStore<uint32_t> external_to_internal_;

  // Writer side: serializes ingestion; queries never take this lock.
  // Mutable so SaveSnapshot (const: it only reads) can quiesce writers.
  mutable std::mutex writer_mu_;

  // Chained corpus fingerprint (corpus::ChainCorpusFingerprint folds in
  // every indexed document). Written under writer_mu_; read lock-free.
  std::atomic<uint64_t> corpus_fingerprint_{0};

  // Published-snapshot slot. A mutex-guarded shared_ptr swap (not
  // std::atomic<shared_ptr>) keeps the fast path simple and portable; the
  // critical section is two refcount operations.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EngineSnapshot> snapshot_;  // guarded by snapshot_mu_

  // Instrument pointers into the base-class registry. Stable for the
  // engine's lifetime; the registry (a base-class member) outlives every
  // derived member, so the snapshot deleter below may capture
  // snapshots_reclaimed_ (EngineSnapshot never escapes the engine).
  metrics::Counter* epochs_published_;
  metrics::Counter* snapshot_acquisitions_;
  metrics::Counter* snapshots_reclaimed_;
  metrics::Gauge* current_epoch_;
  metrics::Gauge* indexed_docs_;
  metrics::Histogram* index_nlp_seconds_;
  metrics::Histogram* index_ne_seconds_;
  metrics::Histogram* index_ns_seconds_;

  // This engine as the pipeline's one backend (corpus rows are global).
  LocalShardBackend backend_{this};
  const ShardBackend* const backends_[1] = {&backend_};
};

}  // namespace newslink

#endif  // NEWSLINK_NEWSLINK_NEWSLINK_ENGINE_H_
