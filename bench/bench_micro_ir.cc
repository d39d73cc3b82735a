// Microbenchmarks for the NS substrate: index construction, BM25 scoring,
// and top-k selection throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ir/inverted_index.h"
#include "ir/max_score.h"
#include "ir/scorer.h"
#include "ir/top_k.h"

using namespace newslink;

namespace {

/// Synthetic postings workload: Zipf-ish term distribution.
std::vector<ir::TermCounts> MakeDocs(size_t num_docs, size_t vocab,
                                     size_t terms_per_doc) {
  Rng rng(23);
  ZipfTable zipf(vocab, 1.0);
  std::vector<ir::TermCounts> docs(num_docs);
  for (auto& doc : docs) {
    std::map<ir::TermId, uint32_t> counts;
    for (size_t t = 0; t < terms_per_doc; ++t) {
      ++counts[static_cast<ir::TermId>(zipf.Sample(&rng))];
    }
    doc.assign(counts.begin(), counts.end());
  }
  return docs;
}

void BM_IndexBuild(benchmark::State& state) {
  const auto docs =
      MakeDocs(static_cast<size_t>(state.range(0)), 20000, 120);
  for (auto _ : state) {
    ir::InvertedIndex index;
    for (const auto& d : docs) index.AddDocument(d);
    benchmark::DoNotOptimize(index.num_docs());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexBuild)->Arg(1000)->Arg(4000);

void BM_Bm25Query(benchmark::State& state) {
  const auto docs = MakeDocs(4000, 20000, 120);
  ir::InvertedIndex index;
  for (const auto& d : docs) index.AddDocument(d);
  ir::Bm25Scorer scorer(&index);

  Rng rng(29);
  std::vector<ir::TermCounts> queries;
  for (int q = 0; q < 32; ++q) {
    ir::TermCounts query;
    for (int t = 0; t < static_cast<int>(state.range(0)); ++t) {
      query.push_back({static_cast<ir::TermId>(rng.Uniform(20000)), 1});
    }
    queries.push_back(std::move(query));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.ScoreAll(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_Bm25Query)->Arg(4)->Arg(8)->Arg(16);

// Block-Max MaxScore retrieval. The docs-scored and blocks-skipped
// counters quantify how much of the work the per-block bounds eliminate.
void BM_MaxScoreTopK(benchmark::State& state) {
  // Short documents (tf mostly 1) with doc-id locality: documents in the
  // same stripe inflate a shared slice of the vocabulary. BM25's tf
  // saturation means the per-block bound only separates tf==1 blocks from
  // inflated ones, so the baseline tf must stay at 1 for the bounds to
  // discriminate — which matches real text, and is exactly the block shape
  // that index-time doc reordering manufactures.
  auto docs = MakeDocs(8000, 20000, 12);
  for (size_t d = 0; d < docs.size(); ++d) {
    for (auto& [term, tf] : docs[d]) {
      if (term % 8 == (d / 1024) % 8) tf *= 8;
    }
  }
  ir::InvertedIndex index;
  for (const auto& d : docs) index.AddDocument(d);
  ir::MaxScoreRetriever retriever(&index);

  Rng rng(37);
  std::vector<ir::TermCounts> queries;
  for (int q = 0; q < 32; ++q) {
    ir::TermCounts query;
    for (int t = 0; t < 3; ++t) {
      // Head of the Zipf vocabulary: long, many-block posting lists whose
      // per-block maxes actually differ (the stripes above).
      query.push_back({static_cast<ir::TermId>(rng.Uniform(64)), 1});
    }
    std::sort(query.begin(), query.end());
    query.erase(std::unique(query.begin(), query.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                query.end());
    queries.push_back(std::move(query));
  }
  size_t i = 0;
  size_t docs_scored = 0, blocks_skipped = 0, calls = 0;
  for (auto _ : state) {
    size_t scored = 0, skipped = 0;
    benchmark::DoNotOptimize(retriever.TopK(queries[i++ % queries.size()], 10,
                                            &scored, &skipped));
    docs_scored += scored;
    blocks_skipped += skipped;
    ++calls;
  }
  state.counters["docs_scored/query"] =
      static_cast<double>(docs_scored) / static_cast<double>(calls);
  state.counters["blocks_skipped/query"] =
      static_cast<double>(blocks_skipped) / static_cast<double>(calls);
  state.SetItemsProcessed(static_cast<int64_t>(calls));
}
BENCHMARK(BM_MaxScoreTopK);

void BM_TopKSelect(benchmark::State& state) {
  Rng rng(31);
  std::vector<ir::ScoredDoc> scores;
  for (int i = 0; i < 100000; ++i) {
    scores.push_back({static_cast<ir::DocId>(i), rng.UniformDouble()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ir::SelectTopK(scores, static_cast<size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_TopKSelect)->Arg(10)->Arg(100);

}  // namespace
