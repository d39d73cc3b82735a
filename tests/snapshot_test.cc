// Tests for the versioned engine snapshot format (DESIGN.md Sec. 9):
// build -> save -> load round trips, live ingestion on top of a loaded
// snapshot, fingerprint-based staleness rejection, and the hardened
// readers' behaviour under truncation and bit flips. Every failure path
// must return Status — never crash — and leave the engine untouched.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/binary_io.h"
#include "common/snapshot_file.h"
#include "corpus/corpus.h"
#include "corpus/corpus_io.h"
#include "corpus/synthetic_news.h"
#include "embed/embedding_io.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "newslink/newslink_engine.h"
#include "test_temp.h"

namespace newslink {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// One world + corpus + indexed engine + saved snapshot, built once and
// shared read-only by every test (indexing runs the full NLP/NE pipeline
// and dominates suite runtime).
struct SharedState {
  SharedState()
      : world(MakeWorld()),
        labels(world.graph),
        news(MakeNews(&world)),
        engine(&world.graph, &labels, NewsLinkConfig{}) {
    NL_CHECK(engine.Index(news.corpus).ok());
    const ScopedTempDir temp;
    const std::string path = temp.File("main.snap");
    save_status = engine.SaveSnapshot(path);
    if (save_status.ok()) snapshot_bytes = ReadFileBytes(path);
  }

  static kg::SyntheticKg MakeWorld() {
    kg::SyntheticKgConfig config;
    config.seed = 1234;
    config.num_countries = 2;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  static corpus::SyntheticCorpus MakeNews(const kg::SyntheticKg* world) {
    corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
    config.num_stories = 25;
    return corpus::SyntheticNewsGenerator(world, config).Generate("it");
  }

  // First sentence of a document: a query with known relevant results.
  std::string Sentence(size_t doc) const {
    const std::string& text = news.corpus.doc(doc).text;
    return text.substr(0, text.find('.') + 1);
  }

  std::vector<std::string> Queries() const {
    std::vector<std::string> queries;
    for (size_t d : {size_t{0}, size_t{3}, size_t{7}, size_t{12}}) {
      queries.push_back(Sentence(d));
    }
    return queries;
  }

  kg::SyntheticKg world;
  kg::LabelIndex labels;
  corpus::SyntheticCorpus news;
  NewsLinkEngine engine;
  Status save_status;
  std::string snapshot_bytes;
};

SharedState& State() {
  static SharedState* state = new SharedState();
  return *state;
}

// Every test reads the shared snapshot from, and writes its own files
// into, a directory of its own (see test_temp.h).
class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(State().save_status.ok()) << State().save_status.ToString();
    ASSERT_FALSE(State().snapshot_bytes.empty());
    snapshot_path_ = temp_.File("main.snap");
    WriteFileBytes(snapshot_path_, State().snapshot_bytes);
  }

  ScopedTempDir temp_;
  std::string snapshot_path_;
};

TEST_F(SnapshotTest, HeaderCarriesFingerprints) {
  SharedState& s = State();
  Result<SnapshotHeader> header = ReadSnapshotHeader(snapshot_path_);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->format_version, kSnapshotFormatVersion);
  EXPECT_EQ(header->kg_fingerprint, s.world.graph.Fingerprint());
  EXPECT_EQ(header->corpus_fingerprint, s.engine.corpus_fingerprint());
  EXPECT_EQ(header->config_fingerprint,
            NewsLinkEngine::ConfigFingerprint(NewsLinkConfig{}));
  EXPECT_EQ(header->num_docs, s.news.corpus.size());
}

TEST_F(SnapshotTest, LoadReproducesExactSearchResults) {
  SharedState& s = State();
  NewsLinkEngine loaded(&s.world.graph, &s.labels, NewsLinkConfig{});
  const Status status = loaded.LoadSnapshot(snapshot_path_);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(loaded.num_indexed_docs(), s.engine.num_indexed_docs());
  EXPECT_EQ(loaded.corpus_fingerprint(), s.engine.corpus_fingerprint());

  for (const std::string& query : s.Queries()) {
    for (bool exhaustive : {false, true}) {
      baselines::SearchRequest request;
      request.query = query;
      request.k = 10;
      request.exhaustive_fusion = exhaustive;
      const baselines::SearchResponse expected = s.engine.Search(request);
      const baselines::SearchResponse actual = loaded.Search(request);
      ASSERT_EQ(actual.hits.size(), expected.hits.size())
          << "query: " << query << " exhaustive: " << exhaustive;
      for (size_t i = 0; i < expected.hits.size(); ++i) {
        EXPECT_EQ(actual.hits[i].doc_index, expected.hits[i].doc_index)
            << "rank " << i << " query: " << query;
        // Bit-exact, not approximately equal: the snapshot restores the
        // very same index contents and statistics.
        EXPECT_EQ(actual.hits[i].score, expected.hits[i].score)
            << "rank " << i << " query: " << query;
      }
    }
  }
}

TEST_F(SnapshotTest, ResaveOfLoadedSnapshotIsByteIdentical) {
  SharedState& s = State();
  NewsLinkEngine loaded(&s.world.graph, &s.labels, NewsLinkConfig{});
  ASSERT_TRUE(loaded.LoadSnapshot(snapshot_path_).ok());
  const std::string resave_path = temp_.File("snapshot_resave.snap");
  const Status status = loaded.SaveSnapshot(resave_path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ReadFileBytes(resave_path), s.snapshot_bytes);
}

TEST_F(SnapshotTest, IngestionContinuesOnLoadedSnapshot) {
  SharedState& s = State();
  const corpus::Corpus& full = s.news.corpus;
  ASSERT_GT(full.size(), 4u);
  const size_t cut = full.size() - 2;
  corpus::Corpus partial;
  for (size_t i = 0; i < cut; ++i) partial.Add(full.doc(i));

  // Build + save over the truncated corpus, then load and ingest the tail.
  const std::string path = temp_.File("snapshot_partial.snap");
  {
    NewsLinkEngine builder(&s.world.graph, &s.labels, NewsLinkConfig{});
    ASSERT_TRUE(builder.Index(partial).ok());
    ASSERT_TRUE(builder.SaveSnapshot(path).ok());
  }
  NewsLinkEngine loaded(&s.world.graph, &s.labels, NewsLinkConfig{});
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  for (size_t i = cut; i < full.size(); ++i) {
    EXPECT_EQ(loaded.AddDocument(full.doc(i)), i);
  }
  EXPECT_EQ(loaded.num_indexed_docs(), full.size());
  // The chained fingerprint after live ingestion matches the bulk build's.
  EXPECT_EQ(loaded.corpus_fingerprint(), s.engine.corpus_fingerprint());

  // And the loaded-then-ingested engine ranks like the bulk-built one —
  // including for a query drawn from an ingested document.
  std::vector<std::string> queries = s.Queries();
  queries.push_back(s.Sentence(full.size() - 1));
  for (const std::string& query : queries) {
    const auto expected = s.engine.Search({query, 10}).hits;
    const auto actual = loaded.Search({query, 10}).hits;
    ASSERT_EQ(actual.size(), expected.size()) << "query: " << query;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].doc_index, expected[i].doc_index)
          << "rank " << i << " query: " << query;
      EXPECT_DOUBLE_EQ(actual[i].score, expected[i].score)
          << "rank " << i << " query: " << query;
    }
  }
}

TEST_F(SnapshotTest, LoadRejectsNonEmptyEngine) {
  SharedState& s = State();
  NewsLinkEngine engine(&s.world.graph, &s.labels, NewsLinkConfig{});
  engine.AddDocument(s.news.corpus.doc(0));
  const Status status = engine.LoadSnapshot(snapshot_path_);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  EXPECT_EQ(engine.num_indexed_docs(), 1u);
}

TEST_F(SnapshotTest, LoadRejectsDifferentKnowledgeGraph) {
  SharedState& s = State();
  kg::SyntheticKgConfig config;
  config.seed = 99;
  config.num_countries = 2;
  kg::SyntheticKg other = kg::SyntheticKgGenerator(config).Generate();
  kg::LabelIndex other_labels(other.graph);
  ASSERT_NE(other.graph.Fingerprint(), s.world.graph.Fingerprint());

  NewsLinkEngine engine(&other.graph, &other_labels, NewsLinkConfig{});
  const Status status = engine.LoadSnapshot(snapshot_path_);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  EXPECT_EQ(engine.num_indexed_docs(), 0u);
}

TEST_F(SnapshotTest, LoadRejectsDifferentConfig) {
  SharedState& s = State();
  NewsLinkConfig config;
  config.bon_doc_tf_cap = 5;  // artifact-shaping: changes index contents
  ASSERT_NE(NewsLinkEngine::ConfigFingerprint(config),
            NewsLinkEngine::ConfigFingerprint(NewsLinkConfig{}));
  NewsLinkEngine engine(&s.world.graph, &s.labels, config);
  const Status status = engine.LoadSnapshot(snapshot_path_);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
}

TEST_F(SnapshotTest, QueryOnlyConfigChangesDoNotInvalidateSnapshots) {
  SharedState& s = State();
  NewsLinkConfig config;
  config.beta = 0.7;                       // query-side fusion weight
  config.recency_half_life_seconds = 3600;  // query-side decay
  EXPECT_EQ(NewsLinkEngine::ConfigFingerprint(config),
            NewsLinkEngine::ConfigFingerprint(NewsLinkConfig{}));
  NewsLinkEngine engine(&s.world.graph, &s.labels, config);
  EXPECT_TRUE(engine.LoadSnapshot(snapshot_path_).ok());
}

TEST_F(SnapshotTest, LoadRejectsMissingFile) {
  SharedState& s = State();
  NewsLinkEngine engine(&s.world.graph, &s.labels, NewsLinkConfig{});
  const Status status =
      engine.LoadSnapshot(temp_.File("no_such_snapshot.snap"));
  EXPECT_FALSE(status.ok());
}

TEST_F(SnapshotTest, TruncatedSnapshotsAlwaysFailCleanly) {
  SharedState& s = State();
  const std::string path = temp_.File("snapshot_truncated.snap");
  // One engine reused across the whole sweep: a failed load must leave it
  // empty and usable, so hundreds of failures in a row are fine.
  NewsLinkEngine engine(&s.world.graph, &s.labels, NewsLinkConfig{});
  const size_t size = s.snapshot_bytes.size();
  std::vector<size_t> cuts = {0, 1, 2, 5, size / 2, size - 1};
  for (size_t cut = 3; cut < size; cut += 97) cuts.push_back(cut);
  for (size_t cut : cuts) {
    WriteFileBytes(path, s.snapshot_bytes.substr(0, cut));
    const Status status = engine.LoadSnapshot(path);
    EXPECT_FALSE(status.ok()) << "prefix of " << cut << " bytes loaded";
    EXPECT_EQ(engine.num_indexed_docs(), 0u);
  }
  // After every rejection the engine still accepts the intact snapshot.
  ASSERT_TRUE(engine.LoadSnapshot(snapshot_path_).ok());
  EXPECT_EQ(engine.num_indexed_docs(), s.news.corpus.size());
  EXPECT_FALSE(engine.Search({s.Sentence(0), 5}).hits.empty());
}

TEST_F(SnapshotTest, BitFlippedSnapshotsAlwaysFailCleanly) {
  SharedState& s = State();
  const std::string path = temp_.File("snapshot_bitflip.snap");
  NewsLinkEngine engine(&s.world.graph, &s.labels, NewsLinkConfig{});
  // Every byte of the file is covered by the magic check, the per-section
  // CRCs, or the whole-file CRC, so ANY single-bit flip must be rejected.
  for (size_t offset = 0; offset < s.snapshot_bytes.size(); offset += 131) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupt = s.snapshot_bytes;
      corrupt[offset] = static_cast<char>(
          static_cast<uint8_t>(corrupt[offset]) ^ bit);
      WriteFileBytes(path, corrupt);
      const Status status = engine.LoadSnapshot(path);
      EXPECT_FALSE(status.ok())
          << "bit flip at offset " << offset << " accepted";
      EXPECT_EQ(engine.num_indexed_docs(), 0u);
    }
  }
}

TEST_F(SnapshotTest, OverlongVarintInIndexSectionIsRejected) {
  // A CRC-clean text_index section whose first doc length is re-encoded
  // one byte too long (same value, final byte without payload bits). The
  // loader reads it through ByteReader, which accepts only the canonical
  // encodings WriteVarint produces: IOError, and the engine stays empty.
  SharedState& s = State();
  const Result<SnapshotFile> file = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const SnapshotSection* text_index = file->Find("text_index");
  ASSERT_NE(text_index, nullptr);

  // Payload layout: u64 num_docs, then one varint length per document.
  constexpr size_t kFirstLength = 8;
  ByteReader reader(text_index->payload);
  uint64_t num_docs = 0;
  uint32_t length = 0;
  ASSERT_TRUE(reader.ReadU64(&num_docs).ok());
  ASSERT_GT(num_docs, 0u);
  const size_t before = reader.remaining();
  ASSERT_TRUE(reader.ReadVarint(&length).ok());
  const size_t width = before - reader.remaining();
  ASSERT_LT(width, 5u) << "a 5-byte varint has no overlong form";

  std::vector<uint8_t> payload = text_index->payload;
  payload[kFirstLength + width - 1] |= 0x80;
  payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(
                                       kFirstLength + width),
                 uint8_t{0x00});
  std::vector<SnapshotSection> sections;
  for (const SnapshotSection& section : file->sections) {
    sections.push_back(section.name == "text_index"
                           ? SnapshotSection{section.name, payload}
                           : section);
  }
  const std::string path = temp_.File("snapshot_overlong.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, file->header, sections).ok());

  NewsLinkEngine engine(&s.world.graph, &s.labels, NewsLinkConfig{});
  const Status status = engine.LoadSnapshot(path);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.ToString().find("overlong"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(engine.num_indexed_docs(), 0u);
  // The same engine still loads the intact file afterwards.
  ASSERT_TRUE(engine.LoadSnapshot(snapshot_path_).ok());
  EXPECT_EQ(engine.num_indexed_docs(), s.news.corpus.size());
}

TEST_F(SnapshotTest, StaleFormatVersionIsRejectedOutright) {
  // A v1 file (pre doc-map) with a VALID file CRC must still be refused:
  // the version gate, not checksumming, is what protects against silently
  // mis-reading an older layout.
  SharedState& s = State();
  std::string stale = s.snapshot_bytes;
  ASSERT_GT(stale.size(), 12u);
  // Bytes 6-7 hold the little-endian format version, right after "NLSNAP".
  stale[6] = 1;
  stale[7] = 0;
  const uint32_t crc = Crc32(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(stale.data()), stale.size() - 4));
  for (int i = 0; i < 4; ++i) {
    stale[stale.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  const std::string path = temp_.File("snapshot_stale_version.snap");
  WriteFileBytes(path, stale);

  const Result<SnapshotFile> parsed = ReadSnapshotFile(path);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("format version"),
            std::string::npos)
      << parsed.status().ToString();

  NewsLinkEngine engine(&s.world.graph, &s.labels, NewsLinkConfig{});
  EXPECT_FALSE(engine.LoadSnapshot(path).ok());
  EXPECT_EQ(engine.num_indexed_docs(), 0u);
}

TEST_F(SnapshotTest, CorruptDocMapSectionIsRejected) {
  // CRC-clean but semantically invalid doc maps (not a permutation, or the
  // wrong cardinality) must fail the load and leave the engine empty.
  SharedState& s = State();
  const Result<SnapshotFile> file = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_NE(file->Find("doc_map"), nullptr);

  const auto rewrite = [&](const std::vector<uint8_t>& payload,
                           bool drop_section, const std::string& path) {
    std::vector<SnapshotSection> sections;
    for (const SnapshotSection& section : file->sections) {
      if (section.name == "doc_map") {
        if (drop_section) continue;
        sections.push_back({section.name, payload});
      } else {
        sections.push_back(section);
      }
    }
    NL_CHECK(WriteSnapshotFile(path, file->header, sections).ok());
  };

  NewsLinkEngine engine(&s.world.graph, &s.labels, NewsLinkConfig{});
  const size_t n = file->header.num_docs;
  const std::string path = temp_.File("snapshot_bad_docmap.snap");

  {
    // Right count, but every entry is 0: not a permutation.
    ByteWriter out;
    out.WriteU64(n);
    for (size_t i = 0; i < n; ++i) out.WriteVarint(0);
    rewrite(out.TakeBytes(), false, path);
    const Status status = engine.LoadSnapshot(path);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("permutation"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(engine.num_indexed_docs(), 0u);
  }
  {
    // A valid permutation of the WRONG cardinality.
    ByteWriter out;
    out.WriteU64(n - 1);
    for (size_t i = 0; i + 1 < n; ++i) {
      out.WriteVarint(static_cast<uint32_t>(i));
    }
    rewrite(out.TakeBytes(), false, path);
    EXPECT_FALSE(engine.LoadSnapshot(path).ok());
    EXPECT_EQ(engine.num_indexed_docs(), 0u);
  }
  {
    // Section missing entirely (a hand-rolled v2 file without it).
    rewrite({}, true, path);
    EXPECT_FALSE(engine.LoadSnapshot(path).ok());
    EXPECT_EQ(engine.num_indexed_docs(), 0u);
  }
  // The engine remains usable after the rejections.
  ASSERT_TRUE(engine.LoadSnapshot(snapshot_path_).ok());
  EXPECT_EQ(engine.num_indexed_docs(), s.news.corpus.size());
}

TEST_F(SnapshotTest, ReorderedEngineRoundTripsThroughSnapshot) {
  // Save from a reorder_docs engine, load into a default-config engine:
  // hits (corpus rows) and scores must match the source engine exactly,
  // and a re-save must be byte-identical (the doc map is persisted
  // as-written, not recomputed from the loader's config).
  SharedState& s = State();
  NewsLinkConfig config;
  config.reorder_docs = true;
  NewsLinkEngine source(&s.world.graph, &s.labels, config);
  ASSERT_TRUE(source.Index(s.news.corpus).ok());
  const std::string path = temp_.File("snapshot_reordered.snap");
  ASSERT_TRUE(source.SaveSnapshot(path).ok());

  NewsLinkEngine loaded(&s.world.graph, &s.labels, NewsLinkConfig{});
  const Status status = loaded.LoadSnapshot(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(loaded.num_indexed_docs(), s.news.corpus.size());

  for (const std::string& query : s.Queries()) {
    const auto expected = source.Search({query, 10}).hits;
    const auto actual = loaded.Search({query, 10}).hits;
    ASSERT_EQ(actual.size(), expected.size()) << "query: " << query;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].doc_index, expected[i].doc_index) << "rank " << i;
      EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
    }
  }

  const std::string resave = temp_.File("snapshot_reordered2.snap");
  ASSERT_TRUE(loaded.SaveSnapshot(resave).ok());
  EXPECT_EQ(ReadFileBytes(resave), ReadFileBytes(path));
}

// ---------------------------------------------------------------------------
// The v3 "lcag_sketch" section (DESIGN.md Sec. 14).
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, SketchSnapshotRoundTripsAndResavesByteIdentical) {
  SharedState& s = State();
  NewsLinkConfig sketch_config;
  sketch_config.lcag_sketch.enabled = true;
  NewsLinkEngine source(&s.world.graph, &s.labels, sketch_config);
  ASSERT_TRUE(source.Index(s.news.corpus).ok());
  const std::string path = temp_.File("snapshot_sketch.snap");
  ASSERT_TRUE(source.SaveSnapshot(path).ok());

  const Result<SnapshotFile> file = ReadSnapshotFile(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_NE(file->Find("lcag_sketch"), nullptr);
  // Sketches are result-invariant, so the config fingerprint ignores them:
  // the sketch snapshot is loadable by a sketch-free engine (and serves
  // the persisted fast path regardless of that engine's flag).
  EXPECT_EQ(file->header.config_fingerprint,
            NewsLinkEngine::ConfigFingerprint(NewsLinkConfig{}));

  NewsLinkEngine plain(&s.world.graph, &s.labels, NewsLinkConfig{});
  ASSERT_TRUE(plain.LoadSnapshot(path).ok());
  EXPECT_EQ(plain.num_indexed_docs(), s.news.corpus.size());
  for (const std::string& query : s.Queries()) {
    const auto expected = source.Search({query, 10}).hits;
    const auto actual = plain.Search({query, 10}).hits;
    ASSERT_EQ(actual.size(), expected.size()) << "query: " << query;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].doc_index, expected[i].doc_index) << "rank " << i;
      EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
    }
  }

  // Byte-identical re-save: the loader installed the persisted sketches
  // (it did not rebuild them) and the codec is deterministic.
  const std::string resave = temp_.File("snapshot_sketch2.snap");
  ASSERT_TRUE(plain.SaveSnapshot(resave).ok());
  EXPECT_EQ(ReadFileBytes(resave), ReadFileBytes(path));
}

TEST_F(SnapshotTest, CorruptSketchSectionIsRejected) {
  // CRC-clean but semantically broken sketch sections must fail the load
  // and leave the engine empty (parse-all-then-commit).
  SharedState& s = State();
  NewsLinkConfig sketch_config;
  sketch_config.lcag_sketch.enabled = true;
  NewsLinkEngine source(&s.world.graph, &s.labels, sketch_config);
  ASSERT_TRUE(source.Index(s.news.corpus).ok());
  const std::string path = temp_.File("snapshot_sketch_bad0.snap");
  ASSERT_TRUE(source.SaveSnapshot(path).ok());
  const Result<SnapshotFile> file = ReadSnapshotFile(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const SnapshotSection* sketch_section = file->Find("lcag_sketch");
  ASSERT_NE(sketch_section, nullptr);

  const auto rewrite = [&](const std::vector<uint8_t>& payload,
                           const std::string& out_path) {
    std::vector<SnapshotSection> sections;
    for (const SnapshotSection& section : file->sections) {
      sections.push_back(section.name == "lcag_sketch"
                             ? SnapshotSection{section.name, payload}
                             : section);
    }
    NL_CHECK(WriteSnapshotFile(out_path, file->header, sections).ok());
  };

  NewsLinkEngine engine(&s.world.graph, &s.labels, NewsLinkConfig{});
  const std::string bad = temp_.File("snapshot_sketch_bad.snap");
  {
    // Truncated payload: the codec's declared counts over-promise.
    std::vector<uint8_t> cut(sketch_section->payload.begin(),
                             sketch_section->payload.end() - 9);
    rewrite(cut, bad);
    EXPECT_FALSE(engine.LoadSnapshot(bad).ok());
    EXPECT_EQ(engine.num_indexed_docs(), 0u);
  }
  {
    // A VALID sketch over the wrong graph (2 nodes): node-count mismatch.
    kg::KgBuilder b;
    b.AddNode("a", kg::EntityType::kGpe);
    b.AddNode("b", kg::EntityType::kGpe);
    const kg::KnowledgeGraph tiny = b.Build();
    ByteWriter out;
    embed::LcagSketchIndex::Build(tiny, embed::LcagSketchOptions{})
        .Serialize(&out);
    rewrite(out.TakeBytes(), bad);
    const Status status = engine.LoadSnapshot(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(engine.num_indexed_docs(), 0u);
  }
  {
    // Flip one distance sign bit inside an entry: rejected by the range
    // check even though the section CRC was rewritten to match.
    std::vector<uint8_t> flipped = sketch_section->payload;
    flipped[flipped.size() - 1] ^= 0x80;
    rewrite(flipped, bad);
    EXPECT_FALSE(engine.LoadSnapshot(bad).ok());
    EXPECT_EQ(engine.num_indexed_docs(), 0u);
  }
  // The engine remains usable and accepts the intact sketch snapshot.
  ASSERT_TRUE(engine.LoadSnapshot(path).ok());
  EXPECT_EQ(engine.num_indexed_docs(), s.news.corpus.size());
}

// ---------------------------------------------------------------------------
// The v3 "timestamps" section (DESIGN.md Sec. 15).
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, TimestampsSurviveSnapshotRoundTrip) {
  // The section is always written, and a loaded engine answers time-aware
  // requests (recency decay + time_range pushdown) bit-identically to the
  // engine that built the index.
  SharedState& s = State();
  const Result<SnapshotFile> file = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_NE(file->Find("timestamps"), nullptr);

  int64_t ts_min = std::numeric_limits<int64_t>::max();
  int64_t ts_max = 0;
  for (size_t d = 0; d < s.news.corpus.size(); ++d) {
    ts_min = std::min(ts_min, s.news.corpus.doc(d).timestamp_ms);
    ts_max = std::max(ts_max, s.news.corpus.doc(d).timestamp_ms);
  }
  ASSERT_GT(ts_min, 0) << "synthetic corpus should carry real timestamps";
  ASSERT_LT(ts_min, ts_max);

  NewsLinkEngine loaded(&s.world.graph, &s.labels, NewsLinkConfig{});
  ASSERT_TRUE(loaded.LoadSnapshot(snapshot_path_).ok());

  size_t total_hits = 0;
  for (const std::string& query : s.Queries()) {
    baselines::SearchRequest request;
    request.query = query;
    request.k = 10;
    request.recency_half_life_seconds = 6.0 * 3600.0;
    request.now_ms = ts_max + 1000;  // pinned: decay values are exact
    request.time_range = baselines::TimeRange{ts_min, ts_min + (ts_max - ts_min) / 2 + 1};
    const auto expected = s.engine.Search(request).hits;
    const auto actual = loaded.Search(request).hits;
    ASSERT_EQ(actual.size(), expected.size()) << "query: " << query;
    total_hits += actual.size();
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].doc_index, expected[i].doc_index)
          << "rank " << i << " query: " << query;
      EXPECT_EQ(actual[i].score, expected[i].score)
          << "rank " << i << " query: " << query;
    }
  }
  // The windows above cover the older half of the stream; at least one
  // query must actually return something or the comparison was vacuous.
  EXPECT_GT(total_hits, 0u);
}

TEST_F(SnapshotTest, TimestampCountMismatchIsRejected) {
  // CRC-clean but wrong-cardinality timestamp sections must fail the load
  // with a diagnostic and leave the engine empty.
  SharedState& s = State();
  const Result<SnapshotFile> file = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  const auto rewrite = [&](uint64_t count, const std::string& path) {
    ByteWriter out;
    out.WriteU64(count);
    for (uint64_t i = 0; i < count; ++i) out.WriteU64(0);
    std::vector<SnapshotSection> sections;
    for (const SnapshotSection& section : file->sections) {
      sections.push_back(section.name == "timestamps"
                             ? SnapshotSection{section.name, out.TakeBytes()}
                             : section);
    }
    NL_CHECK(WriteSnapshotFile(path, file->header, sections).ok());
  };

  NewsLinkEngine engine(&s.world.graph, &s.labels, NewsLinkConfig{});
  const std::string path = temp_.File("snapshot_bad_ts.snap");
  const uint64_t n = file->header.num_docs;
  for (uint64_t count : {n - 1, n + 1, uint64_t{0}}) {
    rewrite(count, path);
    const Status status = engine.LoadSnapshot(path);
    ASSERT_FALSE(status.ok()) << "count " << count << " accepted";
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_NE(status.ToString().find("timestamps section covers"),
              std::string::npos)
        << status.ToString();
    EXPECT_EQ(engine.num_indexed_docs(), 0u);
  }
  // The engine remains usable after the rejections.
  ASSERT_TRUE(engine.LoadSnapshot(snapshot_path_).ok());
  EXPECT_EQ(engine.num_indexed_docs(), s.news.corpus.size());
}

TEST_F(SnapshotTest, MissingTimestampsSectionLoadsWithRecencyDisabled) {
  // A hand-rolled v3 file without the section (e.g. produced by an older
  // writer) still loads; the engine just has no publication times, so
  // recency requests score like plain ones and any real window is empty.
  SharedState& s = State();
  const Result<SnapshotFile> file = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<SnapshotSection> sections;
  for (const SnapshotSection& section : file->sections) {
    if (section.name != "timestamps") sections.push_back(section);
  }
  ASSERT_LT(sections.size(), file->sections.size());
  const std::string path = temp_.File("snapshot_no_ts.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, file->header, sections).ok());

  NewsLinkEngine loaded(&s.world.graph, &s.labels, NewsLinkConfig{});
  const Status status = loaded.LoadSnapshot(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(loaded.num_indexed_docs(), s.news.corpus.size());

  for (const std::string& query : s.Queries()) {
    baselines::SearchRequest plain;
    plain.query = query;
    plain.k = 10;
    baselines::SearchRequest recency = plain;
    recency.recency_half_life_seconds = 3600.0;
    recency.now_ms = 1700000000000;
    const auto expected = loaded.Search(plain).hits;
    const auto actual = loaded.Search(recency).hits;
    ASSERT_EQ(actual.size(), expected.size()) << "query: " << query;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].doc_index, expected[i].doc_index) << "rank " << i;
      EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
    }

    // Every surviving timestamp is 0, so a window excluding 0 is empty.
    baselines::SearchRequest windowed = plain;
    windowed.time_range =
        baselines::TimeRange{1, std::numeric_limits<int64_t>::max()};
    EXPECT_TRUE(loaded.Search(windowed).hits.empty()) << "query: " << query;
  }

  // A re-save writes the (all-zero) section back: the format always
  // carries it going forward.
  const std::string resave = temp_.File("snapshot_no_ts2.snap");
  ASSERT_TRUE(loaded.SaveSnapshot(resave).ok());
  const Result<SnapshotFile> rewritten = ReadSnapshotFile(resave);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_NE(rewritten->Find("timestamps"), nullptr);
}

// ---------------------------------------------------------------------------
// Hardened readers: the embedding codec and corpus TSV.
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, BinaryEmbeddingCodecRoundTripsAndRejectsTruncation) {
  SharedState& s = State();
  const std::vector<embed::DocumentEmbedding> embeddings =
      s.engine.SnapshotEmbeddings();
  ByteWriter writer;
  embed::SerializeEmbeddings(embeddings, &writer);
  const std::vector<uint8_t>& bytes = writer.bytes();

  std::vector<embed::DocumentEmbedding> decoded;
  ByteReader full(bytes);
  ASSERT_TRUE(embed::DeserializeEmbeddings(&full, &decoded).ok());
  ASSERT_TRUE(full.ExpectEnd().ok());
  ASSERT_EQ(decoded.size(), embeddings.size());
  for (size_t i = 0; i < embeddings.size(); ++i) {
    EXPECT_EQ(decoded[i].segment_graphs.size(),
              embeddings[i].segment_graphs.size());
  }

  // The stream has no slack: every strict prefix must fail (the declared
  // counts always promise more data than remains).
  std::vector<size_t> cuts = {0, 1, 7, 8, 9, bytes.size() / 2,
                              bytes.size() - 1};
  for (size_t cut = 13; cut < bytes.size(); cut += 211) cuts.push_back(cut);
  for (size_t cut : cuts) {
    std::vector<embed::DocumentEmbedding> out;
    ByteReader reader(std::span<const uint8_t>(bytes.data(), cut));
    const Status status = embed::DeserializeEmbeddings(&reader, &out);
    EXPECT_FALSE(status.ok() && reader.ExpectEnd().ok())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST_F(SnapshotTest, CorpusLoaderRejectsCorruptStoryId) {
  const std::string path = temp_.File("corpus_corrupt.tsv");
  WriteFileBytes(path, "d1\t2x\t0\tTitle\tBody\n");
  const Result<corpus::Corpus> loaded = corpus::LoadTsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();

  // > uint32 max
  WriteFileBytes(path, "d1\t4294967296\t0\tTitle\tBody\n");
  EXPECT_FALSE(corpus::LoadTsv(path).ok());
}

}  // namespace
}  // namespace newslink
