#include "newslink/newslink_engine.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <set>
#include <utility>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/snapshot_file.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "embed/embedding_io.h"
#include "ir/index_io.h"
#include "ir/reorder.h"
#include "ir/simhash.h"
#include "ir/text_vectorizer.h"

namespace newslink {

namespace {

/// Entity groups handed to the NE component: the maximal co-occurrence set
/// of Definition 1, or every segment when the reduction is ablated.
std::vector<std::vector<std::string>> EntityGroups(
    const text::SegmentedDocument& segmented, bool use_maximal_reduction) {
  std::vector<std::vector<std::string>> groups;
  if (use_maximal_reduction) {
    for (size_t idx : segmented.maximal_segment_indices) {
      if (!segmented.segments[idx].entities.empty()) {
        groups.push_back(segmented.segments[idx].entities);
      }
    }
  } else {
    for (const text::NewsSegment& s : segmented.segments) {
      if (!s.entities.empty()) groups.push_back(s.entities);
    }
  }
  return groups;
}

/// BON term counts of a document embedding (node ids double as term ids).
/// Document-side node frequencies are capped: what matters is whether a
/// node is *central* to the document (appears across >= 2 of its segment
/// subgraphs) versus incidental (1 segment, e.g. a quoted sentence), not
/// how many more segments repeat it.
ir::TermCounts BonCounts(const embed::DocumentEmbedding& embedding,
                         uint32_t tf_cap) {
  ir::TermCounts counts;
  counts.reserve(embedding.node_counts.size());
  for (const auto& [node, count] : embedding.node_counts) {
    counts.push_back(
        {static_cast<ir::TermId>(node), std::min(count, tf_cap)});
  }
  return counts;
}

/// Query-side BON term counts: source nodes (entities literally mentioned
/// in the query) boosted over induced context nodes.
ir::TermCounts QueryBonCounts(const embed::DocumentEmbedding& query_embedding,
                              uint32_t source_weight) {
  const std::vector<kg::NodeId> source_nodes = query_embedding.SourceNodes();
  const std::set<kg::NodeId> sources(source_nodes.begin(),
                                     source_nodes.end());
  ir::TermCounts counts;
  counts.reserve(query_embedding.node_counts.size());
  for (const auto& [node, count] : query_embedding.node_counts) {
    counts.push_back({static_cast<ir::TermId>(node),
                      sources.contains(node) ? source_weight : 1});
  }
  return counts;
}

/// Wall clock, epoch milliseconds — captured once per published epoch
/// ("now" pinning): every query of an epoch sees the same reference
/// instant, so concurrent queries agree on every document's age.
int64_t WallNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// DocFilter context for the time_range pushdown: accepts internal doc
/// ids whose stored timestamp falls in [after_ms, before_ms). The store
/// reference stays valid for the engine's lifetime and snapshot-bounded
/// ids are always published entries.
struct TimeFilterCtx {
  const ir::AppendOnlyStore<int64_t>* timestamps;
  baselines::TimeRange range;

  static bool Accept(const void* ctx, ir::DocId doc) {
    const auto* c = static_cast<const TimeFilterCtx*>(ctx);
    return c->range.Contains(c->timestamps->At(doc));
  }
};

/// Snapshot section of each side's inverted index.
constexpr const char* kIndexSection[2] = {"text_index", "node_index"};

/// One member of the fusion candidate union: its raw per-side BM25 scores,
/// an exact 0 on a side that has none.
struct FusionCandidate {
  ir::DocId doc = 0;
  double score[2] = {0.0, 0.0};
  bool has[2] = {false, false};
};

/// Union of the per-side lists, ascending by doc id: each list is sorted
/// by doc, then they are merged.
std::vector<FusionCandidate> MergeSides(
    std::vector<ir::ScoredDoc> (&lists)[2]) {
  for (std::vector<ir::ScoredDoc>& list : lists) {
    std::sort(list.begin(), list.end(),
              [](const ir::ScoredDoc& a, const ir::ScoredDoc& b) {
                return a.doc < b.doc;
              });
  }
  std::vector<FusionCandidate> out;
  out.reserve(lists[kBow].size() + lists[kBon].size());
  size_t next[2] = {0, 0};
  const auto head = [&](Side side) {
    return next[side] < lists[side].size() ? lists[side][next[side]].doc
                                           : ir::kInvalidDoc;
  };
  while (true) {
    const ir::DocId doc = std::min(head(kBow), head(kBon));
    if (doc == ir::kInvalidDoc) return out;
    FusionCandidate& c = out.emplace_back();
    c.doc = doc;
    for (const Side side : kSides) {
      if (head(side) != doc) continue;
      c.score[side] = lists[side][next[side]++].score;
      c.has[side] = true;
    }
  }
}

/// The query's text stems as `dict`'s term ids, positional with the BOW
/// statistics: kInvalidTerm for a stem `dict` does not know (it matches
/// nothing here). Empty when BOW is not scored. BON needs no such map:
/// node ids are global.
ir::TermCounts TextTermIds(const ShardQuery& query,
                           const ir::TermDictionary& dict) {
  ir::TermCounts ids;
  if (!query.use[kBow]) return ids;
  ids.reserve(query.text_stems.size());
  for (const auto& [stem, qtf] : query.text_stems) {
    ids.push_back({dict.Find(stem), qtf});
  }
  return ids;
}

/// Pruned fusion's fill-in: every candidate retrieved on the other side
/// only gets its exact `side` score from one batched
/// Bm25Scorer::ScoreDocs pass (candidates ascend, as it requires), so
/// every union member carries the fused score the exhaustive oracle
/// would give it. Returns the number of documents scored.
size_t FillSide(std::vector<FusionCandidate>* candidates, Side side,
                const ir::Bm25Scorer& scorer, const ir::TermCounts& query,
                const ir::IndexSnapshot& snapshot,
                const ir::CollectionStats* stats) {
  std::vector<ir::DocId> docs;
  for (const FusionCandidate& c : *candidates) {
    if (!c.has[side]) docs.push_back(c.doc);
  }
  if (docs.empty()) return 0;
  const std::vector<double> scores =
      scorer.ScoreDocs(query, docs, snapshot, stats);
  size_t next = 0;
  for (FusionCandidate& c : *candidates) {
    if (c.has[side]) continue;
    c.score[side] = scores[next++];
    c.has[side] = true;
  }
  return docs.size();
}

}  // namespace

NewsLinkEngine::NewsLinkEngine(const kg::KnowledgeGraph* graph,
                               const kg::LabelIndex* label_index,
                               NewsLinkConfig config)
    : PipelineEngine(config),
      graph_(graph),
      label_index_(label_index),
      config_(config),
      ner_(label_index),
      ns_{{config_.bm25,
           registry()->GetCounter(
               kBowDocsScored, "documents BM25-scored on the text (BOW) side")},
          {config_.bon_bm25,
           registry()->GetCounter(
               kBonDocsScored,
               "documents BM25-scored on the node (BON) side")}},
      epochs_published_(registry()->GetCounter(
          kEpochsPublished, "snapshots published by writers")),
      snapshot_acquisitions_(registry()->GetCounter(
          kSnapshotAcquisitions, "snapshots handed to queries")),
      snapshots_reclaimed_(registry()->GetCounter(
          kSnapshotsReclaimed, "snapshots whose last reader released them")),
      current_epoch_(registry()->GetGauge(kCurrentEpoch,
                                          "epoch currently installed")),
      indexed_docs_(registry()->GetGauge(
          kIndexedDocs, "documents visible in the current epoch")),
      index_nlp_seconds_(registry()->GetHistogram(
          kIndexNlpSeconds, {}, "per-document NLP stage at index time")),
      index_ne_seconds_(registry()->GetHistogram(
          kIndexNeSeconds, {}, "per-document NE stage at index time")),
      index_ns_seconds_(registry()->GetHistogram(
          kIndexNsSeconds, {}, "per-document NS appends at index time")) {
  // Every index registers before any retriever (exposition order).
  for (const Side side : kSides) {
    ns_[side].index.EnableMetrics(registry(), kSideName[side]);
  }
  for (const Side side : kSides) {
    ns_[side].retriever.EnableMetrics(registry(), kSideName[side]);
  }
  if (config_.embedder == EmbedderKind::kLcag) {
    auto lcag = std::make_unique<embed::LcagSegmentEmbedder>(
        graph_, label_index_, config_.lcag, config_.lcag_cache_capacity,
        registry());
    lcag_embedder_ = lcag.get();
    embedder_ = std::move(lcag);
  } else {
    embedder_ = std::make_unique<embed::TreeSegmentEmbedder>(
        graph_, label_index_, config_.tree);
  }
  PublishSnapshot();  // epoch 0: the empty collection is queryable
}

std::string NewsLinkEngine::name() const {
  const char* base =
      config_.embedder == EmbedderKind::kLcag ? "NewsLink" : "TreeEmb";
  return StrCat(base, "(", config_.beta, ")");
}

text::SegmentedDocument NewsLinkEngine::SegmentText(
    const std::string& text) const {
  text::NewsSegmenter segmenter(&ner_);
  return segmenter.Segment(text);
}

embed::DocumentEmbedding NewsLinkEngine::EmbedSegmented(
    const text::SegmentedDocument& segmented, Trace* trace) const {
  return embed::EmbedDocument(
      *embedder_, EntityGroups(segmented, config_.use_maximal_reduction),
      trace);
}

embed::DocumentEmbedding NewsLinkEngine::EmbedText(
    const std::string& text) const {
  return EmbedSegmented(SegmentText(text));
}

PipelineView NewsLinkEngine::View() const {
  PipelineView view;
  view.prep = this;
  view.backends = backends_;
  return view;
}

std::shared_ptr<const NewsLinkEngine::EngineSnapshot>
NewsLinkEngine::AcquireSnapshot() const {
  snapshot_acquisitions_->Inc();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void NewsLinkEngine::PublishSnapshot() {
  auto* snap = new EngineSnapshot;
  // Publishers are serialized (writer_mu_ or the constructor), so reading
  // then incrementing the epoch counter is race-free.
  snap->epoch = epochs_published_->Value();
  epochs_published_->Inc();
  for (const Side side : kSides) snap->side[side] = ns_[side].index.Capture();
  NL_DCHECK(snap->side[kBow].num_docs == snap->side[kBon].num_docs)
      << "both index sides must cover the same documents";
  snap->num_docs = snap->side[kBow].num_docs;
  snap->has_timestamps = has_timestamps_;
  snap->now_ms = WallNowMs();
  current_epoch_->Set(static_cast<double>(snap->epoch));
  indexed_docs_->Set(static_cast<double>(snap->num_docs));
  // The deleter may run on whichever thread drops the last reference; the
  // counter it bumps lives in the base-class registry, which outlives the
  // snapshot slot (a derived member), and EngineSnapshot never escapes the
  // engine's own API.
  metrics::Counter* reclaimed = snapshots_reclaimed_;
  std::shared_ptr<const EngineSnapshot> ptr(
      snap, [reclaimed](const EngineSnapshot* s) {
        delete s;
        reclaimed->Inc();
      });
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(ptr);
}

void NewsLinkEngine::EnsureSketch() {
  if (!config_.lcag_sketch.enabled || lcag_embedder_ == nullptr) return;
  std::lock_guard<std::mutex> lock(sketch_build_mu_);
  if (lcag_embedder_->sketch() != nullptr) return;  // built or loaded already
  ThreadPool pool(config_.num_threads);
  InstallSketch(std::make_shared<embed::LcagSketchIndex>(
      embed::LcagSketchIndex::Build(*graph_, config_.lcag_sketch, &pool)));
}

void NewsLinkEngine::InstallSketch(
    std::shared_ptr<const embed::LcagSketchIndex> sketch) {
  if (lcag_embedder_ != nullptr) lcag_embedder_->SetSketch(std::move(sketch));
}

std::shared_ptr<const embed::LcagSketchIndex> NewsLinkEngine::InstalledSketch()
    const {
  return lcag_embedder_ == nullptr ? nullptr : lcag_embedder_->sketch();
}

Status NewsLinkEngine::Index(const corpus::Corpus& corpus) {
  if (num_indexed_docs() != 0) {
    return Status::FailedPrecondition(
        "Index requires an empty engine; use AddDocument for live ingestion");
  }
  // Build the sketches first so the index-time NE workers below already
  // run on the fast path.
  EnsureSketch();
  const size_t n = corpus.size();
  std::vector<embed::DocumentEmbedding> embeddings(n);

  // NLP + NE per document, in parallel (documents are independent); the
  // results land in a local buffer so concurrent queries — which see the
  // pre-Index epoch until IndexWithEmbeddings publishes — never observe
  // the workers. Histogram observations are wait-free, so workers feed
  // them directly.
  ThreadPool pool(config_.num_threads);
  pool.ParallelFor(n, [&](size_t i) {
    WallTimer timer;
    const text::SegmentedDocument segmented = SegmentText(corpus.doc(i).text);
    index_nlp_seconds_->Observe(timer.ElapsedSeconds());
    timer.Restart();
    embeddings[i] = EmbedSegmented(segmented);
    index_ne_seconds_->Observe(timer.ElapsedSeconds());
  });
  return IndexWithEmbeddings(corpus, std::move(embeddings));
}

Status NewsLinkEngine::IndexWithEmbeddings(
    const corpus::Corpus& corpus,
    std::vector<embed::DocumentEmbedding> embeddings) {
  if (embeddings.size() != corpus.size()) {
    return Status::InvalidArgument(
        StrCat("embedding store has ", embeddings.size(),
               " entries for a corpus of ", corpus.size()));
  }
  if (num_indexed_docs() != 0) {
    return Status::FailedPrecondition(
        "IndexWithEmbeddings requires an empty engine; use AddDocument for "
        "live ingestion");
  }
  // No NE stage here, but the query path still wants the fast path (a
  // no-op when Index already built the sketches).
  EnsureSketch();
  const size_t n = corpus.size();

  // NS: build both inverted indexes (sequential: index ids must align),
  // then publish the whole corpus as one epoch. With reordering on, docs
  // are ingested in signature order so similar documents get adjacent
  // internal ids; the permutation is recorded so the public API keeps
  // speaking corpus row numbers.
  std::vector<uint32_t> order;
  if (config_.reorder_docs) {
    std::vector<uint64_t> signatures(n);
    for (size_t i = 0; i < n; ++i) {
      signatures[i] = ir::SimHash(corpus.doc(i).text);
    }
    order = ir::SignatureSortOrder(signatures);
  }
  std::lock_guard<std::mutex> writer(writer_mu_);
  for (size_t d = 0; d < n; ++d) {
    const size_t e = config_.reorder_docs ? order[d] : d;
    WallTimer timer;
    AppendDocument(
        ir::TextVectorizer::CountsForIndexing(corpus.doc(e).text, &text_dict_),
        std::move(embeddings[e]), corpus.doc(e).timestamp_ms,
        static_cast<uint32_t>(e));
    index_ns_seconds_->Observe(timer.ElapsedSeconds());
  }
  if (config_.reorder_docs) {
    for (const uint32_t internal : ir::InvertPermutation(order)) {
      external_to_internal_.Append(internal);
    }
  } else {
    for (size_t e = 0; e < n; ++e) {
      external_to_internal_.Append(static_cast<uint32_t>(e));
    }
  }
  // The corpus fingerprint chains documents in CORPUS order regardless of
  // the ingestion permutation, so the same corpus always fingerprints the
  // same way and snapshot/corpus verification stays order-independent.
  uint64_t corpus_fp = corpus_fingerprint_.load(std::memory_order_relaxed);
  for (size_t e = 0; e < n; ++e) {
    corpus_fp = corpus::ChainCorpusFingerprint(corpus_fp, corpus.doc(e));
  }
  corpus_fingerprint_.store(corpus_fp, std::memory_order_release);
  PublishSnapshot();
  return Status::OK();
}

size_t NewsLinkEngine::AddDocument(const corpus::Document& doc) {
  // NLP + NE are the expensive stages; run them before taking the writer
  // lock so concurrent AddDocument callers only serialize on the (cheap)
  // index appends. The sketch build (first ingestion only) also runs
  // outside the writer lock.
  EnsureSketch();
  WallTimer timer;
  const text::SegmentedDocument segmented = SegmentText(doc.text);
  index_nlp_seconds_->Observe(timer.ElapsedSeconds());
  timer.Restart();
  embed::DocumentEmbedding embedding = EmbedSegmented(segmented);
  index_ne_seconds_->Observe(timer.ElapsedSeconds());
  timer.Restart();
  // Stemming needs no dictionary; under the lock only interning remains.
  const std::vector<std::string> stems = ir::TextVectorizer::Stems(doc.text);
  const double stem_seconds = timer.ElapsedSeconds();

  std::lock_guard<std::mutex> writer(writer_mu_);
  timer.Restart();
  const size_t index = doc_embeddings_.size();
  // Incremental docs keep internal == external (reordering is a bulk-index
  // pass); both maps grow in lockstep with the indexes.
  AppendDocument(ir::TextVectorizer::CountsForIndexing(stems, &text_dict_),
                 std::move(embedding), doc.timestamp_ms,
                 static_cast<uint32_t>(index));
  external_to_internal_.Append(static_cast<uint32_t>(index));
  corpus_fingerprint_.store(
      corpus::ChainCorpusFingerprint(
          corpus_fingerprint_.load(std::memory_order_relaxed), doc),
      std::memory_order_release);
  index_ns_seconds_->Observe(stem_seconds + timer.ElapsedSeconds());
  PublishSnapshot();
  return index;
}

void NewsLinkEngine::AppendDocument(const ir::TermCounts& text_counts,
                                    embed::DocumentEmbedding embedding,
                                    int64_t timestamp_ms, uint32_t external) {
  const ir::TermCounts node_counts =
      BonCounts(embedding, config_.bon_doc_tf_cap);
  const ir::TermCounts* counts[2] = {&text_counts, &node_counts};
  for (const Side side : kSides) ns_[side].index.AddDocument(*counts[side]);
  doc_embeddings_.Append(std::move(embedding));
  timestamps_.Append(timestamp_ms);
  if (timestamp_ms != 0) has_timestamps_ = true;
  internal_to_external_.Append(external);
}

uint64_t NewsLinkEngine::ConfigFingerprint(const NewsLinkConfig& config) {
  // Only fields that shape the *stored* artifacts participate: loading a
  // snapshot under a different query-side knob (β, BM25 parameters) is
  // fine, but a different embedder or reduction setting means the
  // persisted embeddings and BON postings are simply wrong for this
  // engine. Wall-clock limits (timeouts) are excluded on purpose —
  // they bound effort, not output, on any input that completes. The
  // bit-exact sketch accelerator (lcag_sketch) is also excluded: a
  // snapshot carries its own sketches, and embeddings computed with or
  // without them are identical.
  Fingerprinter fp;
  fp.Add(static_cast<uint64_t>(config.embedder))
      .Add(static_cast<uint64_t>(config.bon_doc_tf_cap))
      .Add(static_cast<uint64_t>(config.use_maximal_reduction ? 1 : 0))
      .Add(static_cast<uint64_t>(config.lcag.all_shortest_paths ? 1 : 0))
      .Add(static_cast<uint64_t>(config.lcag.depth_only_root ? 1 : 0))
      .Add(static_cast<uint64_t>(config.lcag.max_expansions))
      .Add(static_cast<uint64_t>(config.tree.max_expansions));
  return fp.Digest();
}

Status NewsLinkEngine::SaveSnapshot(const std::string& path) const {
  // Quiesce writers: with writer_mu_ held, both indexes, the dictionary,
  // and the embedding store are frozen and mutually consistent. Queries
  // keep running against published epochs throughout.
  std::lock_guard<std::mutex> writer(writer_mu_);

  SnapshotHeader header;
  header.kg_fingerprint = graph_->Fingerprint();
  header.corpus_fingerprint =
      corpus_fingerprint_.load(std::memory_order_acquire);
  header.config_fingerprint = ConfigFingerprint(config_);
  header.num_docs = ns_[kBow].index.num_docs();

  std::vector<SnapshotSection> sections;
  {
    ByteWriter w;
    ir::SerializeTermDictionary(text_dict_, &w);
    sections.push_back(SnapshotSection{"text_dict", w.TakeBytes()});
  }
  for (const Side side : kSides) {
    ByteWriter w;
    ir::SerializeInvertedIndex(ns_[side].index, &w);
    sections.push_back(
        SnapshotSection{kIndexSection[side], w.TakeBytes()});
  }
  {
    std::vector<embed::DocumentEmbedding> embeddings;
    embeddings.reserve(doc_embeddings_.size());
    for (size_t i = 0; i < doc_embeddings_.size(); ++i) {
      embeddings.push_back(doc_embeddings_.At(i));
    }
    ByteWriter w;
    embed::SerializeEmbeddings(embeddings, &w);
    sections.push_back(SnapshotSection{"embeddings", w.TakeBytes()});
  }
  {
    std::vector<uint32_t> doc_map;
    doc_map.reserve(internal_to_external_.size());
    for (size_t i = 0; i < internal_to_external_.size(); ++i) {
      doc_map.push_back(internal_to_external_.At(i));
    }
    ByteWriter w;
    ir::SerializeDocMap(doc_map, &w);
    sections.push_back(SnapshotSection{"doc_map", w.TakeBytes()});
  }
  // Optional (format v3): per-document publication timestamps, internal
  // order, count-prefixed. Written unconditionally by this engine version;
  // pre-time snapshots simply lack the section and load with recency
  // disabled (timestamps read as 0 / unknown).
  {
    ByteWriter w;
    w.WriteU64(static_cast<uint64_t>(timestamps_.size()));
    for (size_t i = 0; i < timestamps_.size(); ++i) {
      w.WriteU64(static_cast<uint64_t>(timestamps_.At(i)));
    }
    sections.push_back(SnapshotSection{"timestamps", w.TakeBytes()});
  }
  // Optional (format v3): persist the LCAG distance sketches so a loading
  // engine gets the NE fast path without rebuilding it. The codec is
  // deterministic, so re-saving a loaded snapshot stays byte-identical.
  if (const std::shared_ptr<const embed::LcagSketchIndex> sketch =
          InstalledSketch();
      sketch != nullptr) {
    ByteWriter w;
    sketch->Serialize(&w);
    sections.push_back(SnapshotSection{"lcag_sketch", w.TakeBytes()});
  }
  return WriteSnapshotFile(path, header, sections);
}

Status NewsLinkEngine::LoadSnapshot(const std::string& path) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (ns_[kBow].index.num_docs() != 0 || text_dict_.size() != 0 ||
      doc_embeddings_.size() != 0) {
    return Status::FailedPrecondition(
        "LoadSnapshot requires an empty engine (nothing indexed yet)");
  }

  NL_ASSIGN_OR_RETURN(const SnapshotFile file, ReadSnapshotFile(path));

  // Reject stale artifacts before touching any payload: postings and
  // embeddings reference KG node ids, and their shape depends on the
  // artifact-shaping config, so a mismatch means silently wrong results.
  const uint64_t kg_fp = graph_->Fingerprint();
  if (file.header.kg_fingerprint != kg_fp) {
    return Status::FailedPrecondition(
        StrCat("snapshot was built against a different knowledge graph "
               "(snapshot KG fingerprint ",
               file.header.kg_fingerprint, ", engine KG fingerprint ", kg_fp,
               ")"));
  }
  const uint64_t config_fp = ConfigFingerprint(config_);
  if (file.header.config_fingerprint != config_fp) {
    return Status::FailedPrecondition(
        StrCat("snapshot was built under a different engine configuration "
               "(snapshot config fingerprint ",
               file.header.config_fingerprint, ", engine config fingerprint ",
               config_fp, ")"));
  }

  const char* kRequired[] = {"text_dict", kIndexSection[kBow],
                             kIndexSection[kBon], "embeddings",
                             "doc_map"};
  for (const char* name : kRequired) {
    if (file.Find(name) == nullptr) {
      return Status::IOError(StrCat("snapshot missing section '", name, "'"));
    }
  }

  // Parse and validate every section into locals first; engine members are
  // only touched after the whole snapshot proved sound, so a corrupt file
  // leaves this engine untouched and usable.
  std::vector<std::string> terms;
  {
    ByteReader r(file.Find("text_dict")->payload);
    NL_RETURN_IF_ERROR(ir::DeserializeTermStrings(&r, &terms));
    NL_RETURN_IF_ERROR(r.ExpectEnd());
  }
  ir::InvertedIndex indexes[2];
  for (const Side side : kSides) {
    ByteReader r(file.Find(kIndexSection[side])->payload);
    NL_RETURN_IF_ERROR(ir::DeserializeInvertedIndex(&r, &indexes[side]));
    NL_RETURN_IF_ERROR(r.ExpectEnd());
  }
  std::vector<embed::DocumentEmbedding> embeddings;
  {
    ByteReader r(file.Find("embeddings")->payload);
    NL_RETURN_IF_ERROR(embed::DeserializeEmbeddings(&r, &embeddings));
    NL_RETURN_IF_ERROR(r.ExpectEnd());
  }
  std::vector<uint32_t> doc_map;
  {
    ByteReader r(file.Find("doc_map")->payload);
    NL_RETURN_IF_ERROR(ir::DeserializeDocMap(&r, &doc_map));
    NL_RETURN_IF_ERROR(r.ExpectEnd());
  }
  // Optional section: pre-time snapshots carry no timestamps. They load as
  // all-unknown (zeros keep the store in lockstep with the other per-doc
  // artifacts for later AddDocument), leaving recency decay disabled.
  std::vector<int64_t> timestamps;
  if (const SnapshotSection* ts_section = file.Find("timestamps");
      ts_section != nullptr) {
    ByteReader r(ts_section->payload);
    uint64_t count = 0;
    NL_RETURN_IF_ERROR(r.ReadU64(&count));
    if (count != file.header.num_docs) {
      return Status::IOError(
          StrCat("timestamps section covers ", count,
                 " documents but the snapshot holds ", file.header.num_docs));
    }
    timestamps.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t bits = 0;
      NL_RETURN_IF_ERROR(r.ReadU64(&bits));
      timestamps.push_back(static_cast<int64_t>(bits));
    }
    NL_RETURN_IF_ERROR(r.ExpectEnd());
  } else {
    timestamps.assign(file.header.num_docs, 0);
  }
  embed::LcagSketchIndex sketch;
  const bool has_sketch = file.Find("lcag_sketch") != nullptr;
  if (has_sketch) {
    ByteReader r(file.Find("lcag_sketch")->payload);
    NL_RETURN_IF_ERROR(embed::LcagSketchIndex::Deserialize(&r, &sketch));
    NL_RETURN_IF_ERROR(r.ExpectEnd());
    if (sketch.num_nodes() != graph_->num_nodes()) {
      return Status::IOError(
          StrCat("lcag_sketch section covers ", sketch.num_nodes(),
                 " nodes but the knowledge graph has ", graph_->num_nodes()));
    }
  }

  // Cross-section consistency: all four artifacts must cover the same
  // documents, and the dictionary must cover every text term.
  if (indexes[kBow].num_docs() != file.header.num_docs ||
      indexes[kBon].num_docs() != file.header.num_docs ||
      embeddings.size() != file.header.num_docs ||
      doc_map.size() != file.header.num_docs) {
    return Status::IOError(
        StrCat("inconsistent document counts: header ", file.header.num_docs,
               ", text index ", indexes[kBow].num_docs(), ", node index ",
               indexes[kBon].num_docs(), ", embeddings ", embeddings.size(),
               ", doc map ", doc_map.size()));
  }
  if (indexes[kBow].num_terms() > terms.size()) {
    return Status::IOError(
        StrCat("text index references ", indexes[kBow].num_terms(),
               " terms but the dictionary holds ", terms.size()));
  }

  // Commit. Everything below is infallible. Moving the locals in clears
  // the members' instrument pointers, so metrics are re-attached right
  // after (the registry returns the same counters it handed out before).
  for (const Side side : kSides) {
    ns_[side].index = std::move(indexes[side]);
    ns_[side].index.EnableMetrics(registry(), kSideName[side]);
  }
  text_dict_.GetOrAdd(terms);
  for (embed::DocumentEmbedding& e : embeddings) {
    doc_embeddings_.Append(std::move(e));
  }
  for (const int64_t ts : timestamps) {
    timestamps_.Append(ts);
    if (ts != 0) has_timestamps_ = true;
  }
  // Restore the doc-id map exactly as written (not recomputed): a snapshot
  // built with reordering keeps its clustered layout — and its byte-
  // identical re-save — regardless of this engine's reorder_docs setting.
  for (const uint32_t external : doc_map) {
    internal_to_external_.Append(external);
  }
  for (const uint32_t internal : ir::InvertPermutation(doc_map)) {
    external_to_internal_.Append(internal);
  }
  corpus_fingerprint_.store(file.header.corpus_fingerprint,
                            std::memory_order_release);
  // Like the doc map, sketches are part of the snapshot's state: install
  // them even when this engine's config did not ask for sketches (they are
  // result-invariant and only make NE faster). Without a persisted
  // section, a sketch-enabled engine rebuilds them from the KG.
  if (has_sketch) {
    InstallSketch(
        std::make_shared<embed::LcagSketchIndex>(std::move(sketch)));
  } else {
    EnsureSketch();
  }
  PublishSnapshot();
  return Status::OK();
}

std::vector<embed::DocumentEmbedding> NewsLinkEngine::SnapshotEmbeddings()
    const {
  const std::shared_ptr<const EngineSnapshot> snap = AcquireSnapshot();
  std::vector<embed::DocumentEmbedding> out;
  out.reserve(snap->num_docs);
  for (size_t i = 0; i < snap->num_docs; ++i) {
    // Corpus order: undo the internal reordering so the saved store lines
    // up row-for-row with the corpus file.
    out.push_back(doc_embeddings_.At(external_to_internal_.At(i)));
  }
  return out;
}

double NewsLinkEngine::EmbeddedDocumentFraction() const {
  const std::shared_ptr<const EngineSnapshot> snap = AcquireSnapshot();
  if (snap->num_docs == 0) return 0.0;
  size_t embedded = 0;
  for (size_t i = 0; i < snap->num_docs; ++i) {
    if (!doc_embeddings_.At(i).empty()) ++embedded;
  }
  return static_cast<double>(embedded) / static_cast<double>(snap->num_docs);
}

// --- Shard-serving surface (DESIGN.md Sec. 12) --------------------------

ShardEpochPin NewsLinkEngine::PinEpoch() const {
  const std::shared_ptr<const EngineSnapshot> snap = AcquireSnapshot();
  ShardEpochPin pin;
  pin.epoch_ = snap->epoch;
  pin.num_docs_ = snap->num_docs;
  pin.snapshot_ = snap;  // type-erased; cast back inside Plan/SearchShard
  return pin;
}

ShardQuery NewsLinkEngine::PrepareShardQuery(
    const baselines::SearchRequest& request,
    const embed::DocumentEmbedding& query_embedding) const {
  const double beta = request.beta.value_or(config_.beta);
  ShardQuery query;
  for (const Side side : kSides) {
    query.use[side] = SideWeight(beta, side) > 0.0;
  }
  query.kprime = std::max<uint64_t>(request.k, kFirstRoundDepth);
  query.exhaustive = request.exhaustive_fusion;
  if (query.use[kBow]) {
    query.text_stems = ir::TextVectorizer::StemsForQuery(request.query);
  }
  if (query.use[kBon]) {
    query.node_terms =
        QueryBonCounts(query_embedding, config_.bon_query_source_weight);
  }
  if (request.time_range.has_value()) {
    query.has_time_range = true;
    query.after_ms = request.time_range->after_ms;
    query.before_ms = request.time_range->before_ms;
  }
  return query;
}

ShardPlan NewsLinkEngine::PlanShard(const ShardQuery& query,
                                    const ShardEpochPin& pin) const {
  const auto* snap =
      static_cast<const EngineSnapshot*>(pin.snapshot_.get());
  NL_CHECK(snap != nullptr) << "PlanShard needs a valid ShardEpochPin";
  ShardPlan plan;
  plan.epoch = snap->epoch;
  ShardStats& stats = plan.stats;
  stats.num_docs = snap->num_docs;
  stats.has_timestamps = snap->has_timestamps;
  stats.now_ms = snap->now_ms;
  // An unknown stem (kInvalidTerm) reads df 0 and max-tf 0.
  const ir::TermCounts text_terms = TextTermIds(query, text_dict_);
  const ir::TermCounts* terms[2] = {&text_terms, &query.node_terms};
  for (const Side side : kSides) {
    const ir::InvertedIndex& index = ns_[side].index;
    ShardSideStats& out = stats.side[side];
    out.total_length = snap->side[side].total_length;
    out.min_doc_length = index.MinDocLength();
    if (!query.use[side]) continue;
    out.df.reserve(terms[side]->size());
    out.max_tf.reserve(terms[side]->size());
    for (const auto& [term, qtf] : *terms[side]) {
      out.df.push_back(index.DocFreq(term, snap->side[side]));
      out.max_tf.push_back(index.BlockMax(term).max_tf);
    }
  }
  return plan;
}

ShardSearchResult NewsLinkEngine::SearchShard(const ShardQuery& query,
                                              const ShardStats& global,
                                              const ShardEpochPin& pin) const {
  const auto* snap =
      static_cast<const EngineSnapshot*>(pin.snapshot_.get());
  NL_CHECK(snap != nullptr) << "SearchShard needs a valid ShardEpochPin";
  ShardSearchResult out;
  out.epoch = snap->epoch;
  out.snapshot_docs = snap->num_docs;

  // Terms stay positional with the collection statistics: a stem unknown
  // here (kInvalidTerm) has no postings, so the BM25 kernel drops it with
  // its df and max-tf, as it does any term that matches nothing local.
  const ir::TermCounts text_terms = TextTermIds(query, text_dict_);
  const ir::TermCounts* terms[2] = {&text_terms, &query.node_terms};

  // Publication-time pre-filter, pushed into the posting traversal on
  // both sides: documents outside [after_ms, before_ms) are never scored
  // (the docs-scored counters show the pruning).
  const TimeFilterCtx time_ctx{&timestamps_, {query.after_ms, query.before_ms}};
  const ir::DocFilter time_filter{&TimeFilterCtx::Accept, &time_ctx};
  const ir::DocFilter* filter = query.has_time_range ? &time_filter : nullptr;

  // Per side: the top k' (every match when exhaustive) scored with the
  // collection statistics, its raw maximum (the coordinator applies the
  // >0-else-1 guard) and its floor: lists are best-first, and one shorter
  // than k' (or exhaustive) holds every matching document of its side.
  ir::CollectionStats stats[2];
  std::vector<ir::ScoredDoc> lists[2];
  for (const Side side : kSides) {
    if (!query.use[side]) continue;
    const NsSide& ns = ns_[side];
    const ShardSideStats& collection = global.side[side];
    stats[side] = {global.num_docs, collection.total_length,
                   collection.min_doc_length, collection.df,
                   collection.max_tf};
    ShardSideResult& result = out.side[side];
    std::vector<ir::ScoredDoc>& list = lists[side];
    if (query.exhaustive) {
      list = ns.scorer.ScoreAll(*terms[side], snap->side[side], &stats[side],
                                filter);
      result.scored = list.size();
    } else {
      size_t scored = 0;
      list = ns.retriever.TopK(*terms[side], query.kprime, snap->side[side],
                               &scored, nullptr, &stats[side], filter);
      result.scored = scored;
      if (query.kprime > 0 && list.size() == query.kprime) {
        result.floor = list.back().score;
      }
    }
    for (const ir::ScoredDoc& s : list) {
      result.max = std::max(result.max, s.score);
    }
  }

  // Candidate union with both raw sides; a candidate retrieved on one side
  // only gets its other scored side completed (the exhaustive lists are
  // already complete — a doc absent from one is an exact zero there).
  std::vector<FusionCandidate> candidates = MergeSides(lists);
  if (!query.exhaustive) {
    for (const Side side : kSides) {
      if (!query.use[side]) continue;
      out.side[side].scored +=
          FillSide(&candidates, side, ns_[side].scorer, *terms[side],
                   snap->side[side], &stats[side]);
    }
  }

  out.candidates.reserve(candidates.size());
  for (const FusionCandidate& c : candidates) {
    // The timestamp rides along (read by INTERNAL id, before translation)
    // so the coordinator's decayed merge never calls back into a shard.
    ShardCandidate& candidate = out.candidates.emplace_back();
    candidate.doc = internal_to_external_.At(c.doc);
    std::copy(std::begin(c.score), std::end(c.score), candidate.score);
    candidate.ts = timestamps_.At(c.doc);
  }
  // Deterministic wire order (and the merge tie-break speaks corpus rows).
  std::sort(out.candidates.begin(), out.candidates.end(),
            [](const ShardCandidate& a, const ShardCandidate& b) {
              return a.doc < b.doc;
            });
  for (const Side side : kSides) {
    ns_[side].docs_scored->Inc(out.side[side].scored);
  }
  return out;
}

}  // namespace newslink
