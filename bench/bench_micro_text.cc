// Microbenchmarks for the NLP substrate and corpus utilities: tokenizer,
// NER + segmentation throughput, SimHash, and decoding an inverted index
// from its snapshot bytes.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "corpus/synthetic_news.h"
#include "ir/index_io.h"
#include "ir/inverted_index.h"
#include "ir/simhash.h"
#include "ir/term_dictionary.h"
#include "ir/text_vectorizer.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "text/gazetteer_ner.h"
#include "text/news_segmenter.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

using namespace newslink;

namespace {

struct TextWorld {
  kg::SyntheticKg kg;
  kg::LabelIndex index;
  text::GazetteerNer ner;
  corpus::SyntheticCorpus news;

  TextWorld()
      : kg(kg::SyntheticKgGenerator(MakeKg()).Generate()),
        index(kg.graph),
        ner(&index),
        news(corpus::SyntheticNewsGenerator(&kg, MakeNews()).Generate()) {}

  static kg::SyntheticKgConfig MakeKg() {
    kg::SyntheticKgConfig config;
    config.seed = 19;
    return config;
  }
  static corpus::SyntheticNewsConfig MakeNews() {
    corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
    config.num_stories = 40;
    return config;
  }
};

const TextWorld& World() {
  static const TextWorld* const world = new TextWorld();
  return *world;
}

void BM_Tokenize(benchmark::State& state) {
  const std::string& text = World().news.corpus.doc(0).text;
  size_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Tokenize(text));
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Tokenize);

void BM_PorterStem(benchmark::State& state) {
  const std::vector<std::string> words = {
      "relational", "conditioning", "happiness",   "bombings",
      "electrical", "adjustments",  "controlling", "hopefulness"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::PorterStem(words[i++ % words.size()]));
  }
}
BENCHMARK(BM_PorterStem);

void BM_NerRecognize(benchmark::State& state) {
  const TextWorld& world = World();
  const auto tokens = text::Tokenize(world.news.corpus.doc(3).text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.ner.Recognize(tokens));
  }
  state.counters["tokens"] = static_cast<double>(tokens.size());
}
BENCHMARK(BM_NerRecognize);

void BM_SegmentDocument(benchmark::State& state) {
  const TextWorld& world = World();
  text::NewsSegmenter segmenter(&world.ner);
  const std::string& doc =
      world.news.corpus.doc(static_cast<size_t>(state.range(0))).text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(segmenter.Segment(doc));
  }
}
BENCHMARK(BM_SegmentDocument)->Arg(1)->Arg(5);

void BM_SimHash(benchmark::State& state) {
  const std::string& text = World().news.corpus.doc(2).text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ir::SimHash(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_SimHash);

void BM_DeserializeInvertedIndex(benchmark::State& state) {
  // The BOW index of the synthetic corpus, as a snapshot's text_index
  // section stores it: the decode a warm start pays per section byte.
  const corpus::Corpus& corpus = World().news.corpus;
  ir::TermDictionary dict;
  ir::InvertedIndex index;
  for (size_t d = 0; d < corpus.size(); ++d) {
    index.AddDocument(
        ir::TextVectorizer::CountsForIndexing(corpus.doc(d).text, &dict));
  }
  ByteWriter writer;
  ir::SerializeInvertedIndex(index, &writer);
  const std::vector<uint8_t>& bytes = writer.bytes();
  size_t postings = 0;
  for (ir::TermId t = 0; t < index.num_terms(); ++t) {
    postings += index.DocFreq(t);
  }
  for (auto _ : state) {
    ir::InvertedIndex loaded;
    ByteReader reader(bytes);
    const Status s = ir::DeserializeInvertedIndex(&reader, &loaded);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(loaded.num_docs());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
  state.counters["bytes/posting"] =
      static_cast<double>(bytes.size()) / static_cast<double>(postings);
}
BENCHMARK(BM_DeserializeInvertedIndex);

}  // namespace
