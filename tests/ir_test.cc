// Tests for src/ir: term dictionary, inverted index, the index snapshot
// codec, BM25 and TF-IDF scoring, top-k selection, text vectorization,
// SimHash signatures.

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "ir/index_io.h"
#include "ir/inverted_index.h"
#include "ir/scorer.h"
#include "ir/simhash.h"
#include "ir/term_dictionary.h"
#include "ir/text_vectorizer.h"
#include "ir/top_k.h"
#include "text/porter_stemmer.h"

namespace newslink {
namespace ir {
namespace {

// ---------------------------------------------------------------------------
// TermDictionary
// ---------------------------------------------------------------------------

TEST(TermDictionaryTest, InternsAndFinds) {
  TermDictionary dict;
  const std::vector<std::string> first = {"attack", "bombing", "attack"};
  EXPECT_EQ(dict.GetOrAdd(first), (std::vector<TermId>{0, 1, 0}));
  // Known terms keep their ids; new ones are numbered in first-occurrence
  // order.
  const std::vector<std::string> second = {"bombing", "quake", "attack",
                                           "quake"};
  EXPECT_EQ(dict.GetOrAdd(second), (std::vector<TermId>{1, 2, 0, 2}));
  EXPECT_EQ(dict.Find("attack"), 0u);
  EXPECT_EQ(dict.Find("unknown"), kInvalidTerm);
  // A view into a larger buffer matches on its own bytes only.
  const std::string buffer = "quakes attack";
  EXPECT_EQ(dict.Find(std::string_view(buffer).substr(0, 5)), 2u);
  EXPECT_EQ(dict.Find(std::string_view(buffer).substr(7)), 0u);
  EXPECT_EQ(dict.Find(std::string_view(buffer).substr(0, 6)), kInvalidTerm);
  EXPECT_EQ(dict.term(2), "quake");
  EXPECT_EQ(dict.size(), 3u);
}

// ---------------------------------------------------------------------------
// InvertedIndex
// ---------------------------------------------------------------------------

TEST(InvertedIndexTest, SequentialDocIds) {
  InvertedIndex index;
  EXPECT_EQ(index.AddDocument({{0, 1}}), 0u);
  EXPECT_EQ(index.AddDocument({{1, 2}}), 1u);
  EXPECT_EQ(index.num_docs(), 2u);
}

TEST(InvertedIndexTest, DocLengthIsSumOfTf) {
  InvertedIndex index;
  index.AddDocument({{0, 2}, {1, 3}});
  EXPECT_EQ(index.DocLength(0), 5u);
}

TEST(InvertedIndexTest, AvgDocLength) {
  InvertedIndex index;
  index.AddDocument({{0, 2}});
  index.AddDocument({{0, 4}});
  EXPECT_DOUBLE_EQ(index.avg_doc_length(), 3.0);
  InvertedIndex empty;
  EXPECT_DOUBLE_EQ(empty.avg_doc_length(), 0.0);
}

TEST(InvertedIndexTest, PostingsSortedByDocId) {
  InvertedIndex index;
  index.AddDocument({{5, 1}});
  index.AddDocument({{5, 2}});
  index.AddDocument({{5, 3}});
  const auto postings = index.Postings(5);
  ASSERT_EQ(postings.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      postings.begin(), postings.end(),
      [](const Posting& a, const Posting& b) { return a.doc < b.doc; }));
  EXPECT_EQ(index.DocFreq(5), 3u);
}

TEST(InvertedIndexTest, UnknownTermEmpty) {
  InvertedIndex index;
  index.AddDocument({{0, 1}});
  EXPECT_TRUE(index.Postings(99).empty());
  EXPECT_EQ(index.DocFreq(99), 0u);
}

// ---------------------------------------------------------------------------
// Index snapshot codec: DeserializeInvertedIndex over untrusted bytes
// ---------------------------------------------------------------------------

Status Deserialize(std::span<const uint8_t> bytes, InvertedIndex* index,
                   size_t* consumed = nullptr) {
  ByteReader reader(bytes);
  const Status status = DeserializeInvertedIndex(&reader, index);
  if (consumed != nullptr) *consumed = bytes.size() - reader.remaining();
  return status;
}

std::vector<uint8_t> Serialize(const InvertedIndex& index) {
  ByteWriter writer;
  SerializeInvertedIndex(index, &writer);
  return writer.TakeBytes();
}

/// A payload of one term over 8 documents (each of length 1) whose
/// postings are the given raw (gap, tf) varint pairs.
std::vector<uint8_t> OneTermPayload(
    const std::vector<std::pair<uint32_t, uint32_t>>& gaps_and_tfs,
    uint32_t declared_count) {
  ByteWriter w;
  w.WriteU64(8);
  for (int d = 0; d < 8; ++d) w.WriteVarint(1);
  w.WriteU64(1);
  w.WriteVarint(declared_count);
  for (const auto& [gap, tf] : gaps_and_tfs) {
    w.WriteVarint(gap);
    w.WriteVarint(tf);
  }
  return w.TakeBytes();
}

TEST(IndexIoTest, DeserializeRejectsStructurallyInvalidPostings) {
  // Each payload is varint-clean yet describes an impossible index; every
  // one must be rejected before anything is installed.
  InvertedIndex valid;
  ASSERT_TRUE(Deserialize(OneTermPayload({{0, 1}, {3, 2}}, 2), &valid).ok())
      << "the payload builder itself must produce loadable bytes";
  ASSERT_EQ(valid.Postings(0).size(), 2u);
  EXPECT_EQ(valid.Postings(0)[1].doc, 3u);

  const auto rejected = [](const std::vector<uint8_t>& bytes) {
    InvertedIndex index;
    return Deserialize(bytes, &index);
  };
  const Status zero_gap = rejected(OneTermPayload({{3, 1}, {0, 2}}, 2));
  EXPECT_TRUE(zero_gap.IsIOError()) << zero_gap.ToString();
  EXPECT_NE(zero_gap.ToString().find("zero doc-id gap"), std::string::npos);

  const Status zero_tf = rejected(OneTermPayload({{3, 0}}, 1));
  EXPECT_TRUE(zero_tf.IsIOError()) << zero_tf.ToString();
  EXPECT_NE(zero_tf.ToString().find("zero term frequency"), std::string::npos);

  const Status overflow =
      rejected(OneTermPayload({{5, 1}, {0xFFFFFFFFu, 1}}, 2));
  EXPECT_TRUE(overflow.IsIOError()) << overflow.ToString();
  EXPECT_NE(overflow.ToString().find("overflows"), std::string::npos);

  const Status out_of_range = rejected(OneTermPayload({{0xFFFFFFFFu, 1}}, 1));
  EXPECT_TRUE(out_of_range.IsIOError())
      << "doc id 2^32-1 lies past the 8 documents: " << out_of_range.ToString();
  EXPECT_NE(out_of_range.ToString().find("out of range"), std::string::npos);
  EXPECT_TRUE(rejected(OneTermPayload({{3, 1}}, 2)).IsIOError())
      << "the declared count demands more bytes";
}

TEST(IndexIoTest, TruncatedAndBitFlippedPayloadsNeverCrash) {
  // 200 postings over 600 documents; term 4 holds docs 0 and 300 only, so
  // the payload also carries multi-byte gaps, lengths and frequencies.
  Rng rng(41);
  InvertedIndex source;
  size_t postings = 0;
  for (DocId d = 0; d < 600; ++d) {
    if (d % 3 != 0) {
      source.AddDocument({});
      continue;
    }
    const TermId term =
        d % 300 == 0 ? 4 : static_cast<TermId>(rng.Uniform(4));
    source.AddDocument(
        {{term, 1 + static_cast<uint32_t>(rng.Uniform(200))}});
    ++postings;
  }
  ASSERT_EQ(postings, 200u);
  const std::vector<uint8_t> clean = Serialize(source);
  {
    InvertedIndex loaded;
    size_t consumed = 0;
    ASSERT_TRUE(Deserialize(clean, &loaded, &consumed).ok());
    EXPECT_EQ(consumed, clean.size());
    EXPECT_EQ(Serialize(loaded), clean);
  }

  // Every strict prefix is missing bytes its own headers promised.
  for (size_t cut = 0; cut < clean.size(); ++cut) {
    InvertedIndex index;
    const Status s =
        Deserialize(std::span<const uint8_t>(clean.data(), cut), &index);
    EXPECT_TRUE(s.IsIOError()) << "cut=" << cut << " " << s.ToString();
  }

  // Every single-bit flip either fails with a Status or decodes a valid
  // index. Validity is checked by re-serializing: since the decoder takes
  // only canonical varints and well-formed postings, whatever it accepts
  // re-encodes to exactly the bytes it consumed.
  size_t rejected = 0;
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = clean;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      InvertedIndex index;
      size_t consumed = 0;
      if (!Deserialize(mutated, &index, &consumed).ok()) {
        ++rejected;
        continue;
      }
      ASSERT_LE(consumed, mutated.size());
      EXPECT_EQ(Serialize(index),
                std::vector<uint8_t>(mutated.begin(),
                                     mutated.begin() + consumed))
          << "byte " << byte << " bit " << bit;
    }
  }
  EXPECT_GT(rejected, 0u) << "some flips must be structurally invalid";
}

// ---------------------------------------------------------------------------
// BM25
// ---------------------------------------------------------------------------

class Bm25Test : public ::testing::Test {
 protected:
  Bm25Test() {
    // doc0: "taliban taliban attack", doc1: "attack", doc2: "election".
    index_.AddDocument({{0, 2}, {1, 1}});
    index_.AddDocument({{1, 1}});
    index_.AddDocument({{2, 1}});
    scorer_ = std::make_unique<Bm25Scorer>(&index_);
  }
  InvertedIndex index_;
  std::unique_ptr<Bm25Scorer> scorer_;
};

TEST_F(Bm25Test, IdfDecreasesWithDocFreq) {
  // term 1 (df=2) must have lower idf than term 0 (df=1).
  EXPECT_GT(scorer_->Idf(0), scorer_->Idf(1));
  EXPECT_GT(scorer_->Idf(1), 0.0);
}

TEST_F(Bm25Test, IdfMatchesLuceneFormula) {
  // df=1, N=3: ln(1 + (3 - 1 + 0.5) / (1 + 0.5)) = ln(1 + 5/3).
  EXPECT_NEAR(scorer_->Idf(0), std::log(1.0 + (3.0 - 1 + 0.5) / 1.5), 1e-12);
}

TEST_F(Bm25Test, OnlyMatchingDocsScored) {
  const auto scores = scorer_->ScoreAll({{2, 1}});
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(scores[0].doc, 2u);
  EXPECT_GT(scores[0].score, 0.0);
}

TEST_F(Bm25Test, HigherTfScoresHigher) {
  const auto scores = scorer_->ScoreAll({{0, 1}, {1, 1}});
  double s0 = 0, s1 = 0;
  for (const auto& s : scores) {
    if (s.doc == 0) s0 = s.score;
    if (s.doc == 1) s1 = s.score;
  }
  EXPECT_GT(s0, s1);  // doc0 matches both terms, one twice
}

TEST_F(Bm25Test, KnownScoreValue) {
  // Hand-computed BM25 for query {term2} on doc2: tf=1, dl=1, avgdl=5/3.
  const double idf = std::log(1.0 + (3.0 - 1 + 0.5) / 1.5);
  const double norm = 1.2 * (1.0 - 0.75 + 0.75 * (1.0 / (5.0 / 3.0)));
  const double expected = idf * 1.0 * 2.2 / (1.0 + norm);
  const auto scores = scorer_->ScoreAll({{2, 1}});
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_NEAR(scores[0].score, expected, 1e-12);
}

TEST_F(Bm25Test, QueryTermMultiplicityScalesLinearly) {
  const auto once = scorer_->ScoreAll({{2, 1}});
  const auto twice = scorer_->ScoreAll({{2, 2}});
  ASSERT_EQ(once.size(), 1u);
  ASSERT_EQ(twice.size(), 1u);
  EXPECT_NEAR(twice[0].score, 2 * once[0].score, 1e-12);
}

TEST_F(Bm25Test, LengthNormalizationPenalizesLongDocs) {
  InvertedIndex index;
  index.AddDocument({{0, 1}});            // short doc
  index.AddDocument({{0, 1}, {1, 50}});   // long doc, same tf for term 0
  Bm25Scorer scorer(&index);
  const auto scores = scorer.ScoreAll({{0, 1}});
  double short_s = 0, long_s = 0;
  for (const auto& s : scores) {
    if (s.doc == 0) short_s = s.score;
    if (s.doc == 1) long_s = s.score;
  }
  EXPECT_GT(short_s, long_s);
}

// ---------------------------------------------------------------------------
// TopKHeap / SelectTopK
// ---------------------------------------------------------------------------

TEST(TopKTest, KeepsBestK) {
  TopKHeap heap(2);
  heap.Push({0, 1.0});
  heap.Push({1, 3.0});
  heap.Push({2, 2.0});
  const auto out = heap.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 1u);
  EXPECT_EQ(out[1].doc, 2u);
}

TEST(TopKTest, FewerThanKItems) {
  TopKHeap heap(10);
  heap.Push({0, 1.0});
  const auto out = heap.Take();
  ASSERT_EQ(out.size(), 1u);
}

TEST(TopKTest, KZeroYieldsNothing) {
  TopKHeap heap(0);
  heap.Push({0, 1.0});
  EXPECT_TRUE(heap.Take().empty());
}

TEST(TopKTest, KZeroThresholdIsPlusInfinity) {
  // Regression: with k == 0 the heap is simultaneously "empty" and "full",
  // and Threshold() used to read items_.front() of an empty vector (UB).
  // +inf is the correct bound: no candidate can ever enter the heap, so
  // pruning retrievers may skip every document.
  TopKHeap heap(0);
  EXPECT_EQ(heap.Threshold(), std::numeric_limits<double>::infinity());
  heap.Push({0, 1e30});
  EXPECT_EQ(heap.Threshold(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(heap.Take().empty());
}

TEST(TopKTest, KLargerThanCandidatesKeepsAllSorted) {
  TopKHeap heap(100);
  heap.Push({4, 1.0});
  heap.Push({2, 3.0});
  heap.Push({9, 2.0});
  EXPECT_EQ(heap.Threshold(), -std::numeric_limits<double>::infinity());
  const auto out = heap.Take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].doc, 2u);
  EXPECT_EQ(out[1].doc, 9u);
  EXPECT_EQ(out[2].doc, 4u);
}

TEST(TopKTest, SelectTopKZeroAndOversized) {
  const std::vector<ScoredDoc> scores = {{0, 1.0}, {1, 2.0}};
  EXPECT_TRUE(SelectTopK(scores, 0).empty());
  const auto all = SelectTopK(scores, 10);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].doc, 1u);
}

TEST(TopKTest, TiesBreakTowardSmallerDocId) {
  TopKHeap heap(2);
  heap.Push({5, 1.0});
  heap.Push({3, 1.0});
  heap.Push({7, 1.0});
  const auto out = heap.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 3u);
  EXPECT_EQ(out[1].doc, 5u);
}

TEST(TopKTest, ThresholdTracksWorstKept) {
  TopKHeap heap(2);
  EXPECT_EQ(heap.Threshold(), -std::numeric_limits<double>::infinity());
  heap.Push({0, 5.0});
  EXPECT_EQ(heap.Threshold(), -std::numeric_limits<double>::infinity());
  heap.Push({1, 3.0});
  EXPECT_DOUBLE_EQ(heap.Threshold(), 3.0);
  heap.Push({2, 4.0});
  EXPECT_DOUBLE_EQ(heap.Threshold(), 4.0);
}

TEST(TopKTest, MatchesFullSortOnRandomData) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ScoredDoc> scores;
    for (int i = 0; i < 100; ++i) {
      scores.push_back({static_cast<DocId>(i),
                        static_cast<double>(rng.Uniform(50))});
    }
    const size_t k = 1 + rng.Uniform(20);
    const auto fast = SelectTopK(scores, k);

    auto sorted = scores;
    std::sort(sorted.begin(), sorted.end(),
              [](const ScoredDoc& a, const ScoredDoc& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    sorted.resize(std::min(k, sorted.size()));
    EXPECT_EQ(fast, sorted);
  }
}

// ---------------------------------------------------------------------------
// TextVectorizer
// ---------------------------------------------------------------------------

TEST(TextVectorizerTest, StemsAndDropsStopwords) {
  TermDictionary dict;
  const TermCounts counts = TextVectorizer::CountsForIndexing(
      "The elections and the election.", &dict);
  // "the"/"and" dropped; "elections" and "election" share one stem.
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].second, 2u);
  EXPECT_EQ(dict.term(counts[0].first), "elect");
}

TEST(TextVectorizerTest, QueryDropsUnknownTerms) {
  TermDictionary dict;
  TextVectorizer::CountsForIndexing("bombing attack", &dict);
  const TermCounts q =
      TextVectorizer::CountsForQuery("bombing earthquake", dict);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(dict.term(q[0].first), text::PorterStem("bombing"));
  EXPECT_EQ(dict.size(), 2u);  // query didn't grow the dictionary
}

TEST(TextVectorizerTest, OutputSortedByTermId) {
  TermDictionary dict;
  const TermCounts counts = TextVectorizer::CountsForIndexing(
      "zebra attack bombing zebra candidate", &dict);
  EXPECT_TRUE(std::is_sorted(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(TextVectorizerTest, SingleCharactersDropped) {
  TermDictionary dict;
  const TermCounts counts =
      TextVectorizer::CountsForIndexing("a b c bombing", &dict);
  ASSERT_EQ(counts.size(), 1u);
}

// ---------------------------------------------------------------------------
// SimHash
// ---------------------------------------------------------------------------

TEST(SimHashTest, IdenticalTextsShareSignature) {
  const std::string text = "The taliban bombing struck lahore markets today.";
  EXPECT_EQ(SimHash(text), SimHash(text));
}

TEST(SimHashTest, NearDuplicatesAreClose) {
  const std::string a =
      "The taliban bombing struck lahore markets today killing dozens of "
      "civilians according to officials in the region.";
  const std::string b =
      "The taliban bombing struck lahore markets yesterday killing dozens "
      "of civilians according to officials in the region.";
  const std::string c =
      "Quarterly earnings at the telecom company beat analyst forecasts "
      "driven by subscriber growth across rural provinces.";
  const int near = std::popcount(SimHash(a) ^ SimHash(b));
  const int far = std::popcount(SimHash(a) ^ SimHash(c));
  EXPECT_LT(near, 12);
  EXPECT_GT(far, near + 5);
}

}  // namespace
}  // namespace ir
}  // namespace newslink
