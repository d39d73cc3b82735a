// Concurrent query-serving benchmark: N threads of mixed queries against one
// shared engine. Reports QPS, p50/p99 latency, text-side documents scored
// (pruned MaxScore fusion vs the exhaustive oracle), the LCAG cache hit
// rate, and the span-tree coverage of the per-request traces. All queries go
// through the request-scoped Search(SearchRequest) entry point with tracing
// enabled, so the numbers here measure the engine *with* the observability
// layer on — and gate that the layer accounts for where the time went
// (mean span coverage >= 95% of each query's wall-clock). Run this binary
// under TSan to demonstrate the epoch-snapshot query path.
//
// --with-ingest additionally runs the concurrent workload while a writer
// thread AddDocument()s a second synthetic corpus into the live engine,
// verifying snapshot isolation (every hit's doc_index stays below the
// response's snapshot_docs, epochs never move backwards per thread) and
// gating the ingest-time p99 at 1.5x the query-only p99. The gate runs 3
// alternating +ingest / query-only window pairs of equal length; each
// +ingest window lasts until at least 30 documents have landed inside it,
// and the median of the three p99 ratios is gated.
//
// Before the query phases, the bench times a cold index build against a
// warm start (SaveSnapshot + LoadSnapshot into a fresh engine) and gates
// the warm path at >= 10x faster than the cold build.
//
// --shards N runs the concurrent workload against in-process ShardedEngines
// at every shard count 1..N (shard s indexes corpus rows s, s + N, …; the
// query pipeline fans a query out over its pool whenever N > 1), reporting
// QPS/p99 per shard count and gating hit parity against the single engine.
//
// --metrics-out FILE writes the engine's final Prometheus exposition.
//
// --ne-gate runs ONLY the NE (LCAG) hot-path gate and exits: two engines
// over the same corpus and an entity-heavy query mix built from KG labels —
// a baseline (sequential search, no sketches) against the accelerated
// path (precomputed distance sketches, DESIGN.md Sec. 14). The LCAG result
// cache is disabled on both so every query pays the full NE cost. Gates:
// identical hits on every query (the bit-exactness contract) and, as the
// median over 5 alternating baseline / accelerated window pairs,
// accelerated p99 of the "ne" span >= 2x better.
//
// Env knobs: NEWSLINK_BENCH_STORIES (corpus size, default 120),
//            NEWSLINK_BENCH_THREADS (worker threads, default 4).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "newslink/newslink_engine.h"
#include "newslink/sharded_engine.h"

using namespace newslink;

namespace {

using Clock = std::chrono::steady_clock;

int ThreadsFromEnv(int fallback) {
  const char* env = std::getenv("NEWSLINK_BENCH_THREADS");
  if (env == nullptr) return fallback;
  const int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

struct RunReport {
  double wall_seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t queries = 0;
  uint64_t bow_docs_scored = 0;
  uint64_t bon_docs_scored = 0;
  uint64_t bow_blocks_skipped = 0;
  /// Mean fraction of each query's wall-clock accounted for by the direct
  /// children (nlp/ne/ns/explain) of its "search" root span.
  double span_coverage = 0;
  /// Snapshot-isolation violations observed by readers: a hit at or above
  /// its response's snapshot_docs, or an epoch that moved backwards within
  /// one thread. Must be zero.
  uint64_t violations = 0;
};

/// Runs every query `rounds` times across `num_threads` workers (each worker
/// walks the query list at a different offset so distinct queries overlap).
/// With `extend` set, each worker then keeps running whole rounds for as
/// long as it returns true. Every request carries trace=true: latency
/// numbers include the full observability layer.
RunReport RunWorkload(const baselines::SearchEngine& engine,
                      const std::vector<std::string>& queries, int num_threads,
                      int rounds, size_t k, bool exhaustive,
                      const std::function<bool()>& extend = {}) {
  const uint64_t bow_before = engine.Metrics().CounterValue(kBowDocsScored);
  const uint64_t bon_before = engine.Metrics().CounterValue(kBonDocsScored);
  const uint64_t blocks_before =
      engine.Metrics().CounterValue(kBowBlocksSkipped);

  // One shared wait-free histogram instead of per-thread latency vectors —
  // the same instrument type the engine exports, at bench-gate resolution.
  metrics::Histogram latencies(bench::LatencyHistogramOptions());
  std::atomic<uint64_t> violations{0};
  std::vector<double> coverage_sums(num_threads, 0.0);
  std::vector<uint64_t> coverage_counts(num_threads, 0);

  const auto wall_start = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t last_epoch = 0;
      for (int round = 0; round < rounds || (extend && extend()); ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          const size_t idx = (q + t) % queries.size();
          baselines::SearchRequest request;
          request.query = queries[idx];
          request.k = k;
          request.exhaustive_fusion = exhaustive;
          request.trace = true;
          const auto start = Clock::now();
          const baselines::SearchResponse response = engine.Search(request);
          latencies.Observe(
              std::chrono::duration<double>(Clock::now() - start).count());
          for (const baselines::SearchHit& hit : response.hits) {
            if (hit.doc_index >= response.snapshot_docs) {
              violations.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (response.epoch < last_epoch) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          last_epoch = response.epoch;
          if (response.trace.duration_seconds > 0.0) {
            coverage_sums[t] += response.trace.ChildrenSeconds() /
                                response.trace.duration_seconds;
            ++coverage_counts[t];
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  double coverage_sum = 0.0;
  uint64_t coverage_count = 0;
  for (int t = 0; t < num_threads; ++t) {
    coverage_sum += coverage_sums[t];
    coverage_count += coverage_counts[t];
  }

  RunReport report;
  report.wall_seconds = wall;
  report.queries = latencies.Count();
  report.qps = wall > 0 ? report.queries / wall : 0.0;
  report.p50_ms = latencies.Percentile(0.50) * 1e3;
  report.p99_ms = latencies.Percentile(0.99) * 1e3;
  report.bow_docs_scored =
      engine.Metrics().CounterValue(kBowDocsScored) - bow_before;
  report.bon_docs_scored =
      engine.Metrics().CounterValue(kBonDocsScored) - bon_before;
  report.bow_blocks_skipped =
      engine.Metrics().CounterValue(kBowBlocksSkipped) - blocks_before;
  report.span_coverage =
      coverage_count > 0 ? coverage_sum / coverage_count : 0.0;
  report.violations = violations.load();
  return report;
}

void PrintReport(const char* label, const RunReport& r) {
  std::printf("%-22s %8.1f %9.3f %9.3f %10zu %10zu %10zu %8.1f%%\n", label,
              r.qps, r.p50_ms, r.p99_ms,
              static_cast<size_t>(r.bow_docs_scored / r.queries),
              static_cast<size_t>(r.bon_docs_scored / r.queries),
              static_cast<size_t>(r.bow_blocks_skipped / r.queries),
              100.0 * r.span_coverage);
}

/// Sorted-sample percentile (nearest-rank on the raw per-query values; the
/// sample sets here are small enough that histogram quantization would
/// dominate the 2x gate's margin).
double SamplePercentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(q * (values.size() - 1));
  return values[idx];
}

/// The NE (LCAG) hot-path gate (--ne-gate). Builds one small corpus and an
/// entity-heavy query mix straight from KG labels, then serves it twice:
/// once on a baseline engine (sequential MultiLabelDijkstra, no sketches)
/// and once on the accelerated engine (distance sketches, the same
/// sequential search on a sketch miss). Both run with the LCAG cache
/// disabled so every Search() pays the real NE cost, and the gate demands
/// (a) bit-identical hits on every query and (b) accelerated p99 of the
/// per-query "ne" span >= 2x better, as the median over window pairs.
bool RunNeGate() {
  std::printf("NewsLink reproduction — NE (LCAG) hot-path gate\n\n");
  auto world = bench::MakeWorld(7);
  corpus::SyntheticNewsConfig corpus_config = corpus::CnnLikeConfig();
  corpus_config.num_stories = bench::StoriesFromEnv(48);
  const corpus::SyntheticCorpus dataset =
      corpus::SyntheticNewsGenerator(&world->kg, corpus_config).Generate();

  NewsLinkConfig base_config;
  base_config.beta = 0.5;
  base_config.num_threads = 2;
  // No result cache: the gate measures the search itself, not memoization.
  base_config.lcag_cache_capacity = 0;
  NewsLinkConfig fast_config = base_config;
  fast_config.lcag_sketch.enabled = true;

  NewsLinkEngine baseline(&world->kg.graph, &world->index, base_config);
  NewsLinkEngine fast(&world->kg.graph, &world->index, fast_config);
  NL_CHECK(baseline.Index(dataset.corpus).ok());
  NL_CHECK(fast.Index(dataset.corpus).ok());

  // Entity-heavy queries: each is a run of hierarchy-adjacent KG labels
  // (consecutive ids in the synthetic generator) plus one label from
  // further away, so every group has a findable LCA but the sequential
  // search still has to expand a real neighborhood before C1/C2 fire.
  const size_t num_nodes = world->kg.graph.num_nodes();
  constexpr size_t kNeQueries = 32;
  std::vector<std::string> queries;
  for (size_t q = 0; q < kNeQueries; ++q) {
    const size_t start = (q * 131) % (num_nodes - 8);
    std::string text = world->kg.graph.label(start);
    text += ", " + world->kg.graph.label(start + 1);
    text += ", " + world->kg.graph.label(start + 5);
    text += ".";
    queries.push_back(std::move(text));
  }

  constexpr int kNeRounds = 4;
  constexpr size_t kK = 10;
  const auto collect_ne = [&queries](const NewsLinkEngine& engine) {
    std::vector<double> ne_seconds;
    ne_seconds.reserve(queries.size() * kNeRounds);
    for (int round = 0; round < kNeRounds; ++round) {
      for (const std::string& q : queries) {
        baselines::SearchRequest request;
        request.query = q;
        request.k = kK;
        const baselines::SearchResponse response = engine.Search(request);
        ne_seconds.push_back(response.timings.TotalSeconds("ne"));
      }
    }
    return ne_seconds;
  };

  // One untimed warm-up pass each (allocator + page-cache warm), then
  // kNeWindows measured window pairs, alternating which engine goes first.
  // Each pair yields one p99 ratio; the gate reads their median, so one
  // window disturbed by a noisy neighbour cannot decide it.
  (void)collect_ne(baseline);
  (void)collect_ne(fast);
  constexpr int kNeWindows = 5;
  std::vector<double> ratios;
  std::printf("%-28s %12s %12s\n", "ne span", "p50 us", "p99 us");
  bench::PrintRule(54);
  for (int window = 0; window < kNeWindows; ++window) {
    std::vector<double> base_ne;
    std::vector<double> fast_ne;
    if (window % 2 == 0) {
      base_ne = collect_ne(baseline);
      fast_ne = collect_ne(fast);
    } else {
      fast_ne = collect_ne(fast);
      base_ne = collect_ne(baseline);
    }
    const double base_p99 = SamplePercentile(base_ne, 0.99);
    const double fast_p99 = SamplePercentile(fast_ne, 0.99);
    ratios.push_back(fast_p99 > 0 ? base_p99 / fast_p99 : 0.0);
    std::printf("%d: %-25s %12.1f %12.1f\n", window + 1,
                "sequential, no sketch", SamplePercentile(base_ne, 0.50) * 1e6,
                base_p99 * 1e6);
    std::printf("%d: %-25s %12.1f %12.1f\n", window + 1,
                "sketch, sequential fallback",
                SamplePercentile(fast_ne, 0.50) * 1e6, fast_p99 * 1e6);
  }
  std::sort(ratios.begin(), ratios.end());
  const double speedup = ratios[ratios.size() / 2];

  // Bit-exactness across the two engines: sketch answers must reproduce
  // the sequential oracle's embeddings exactly, so every downstream score —
  // and therefore every hit — must match to the last bit (no epsilon).
  bool exact = true;
  for (const std::string& q : queries) {
    baselines::SearchRequest request;
    request.query = q;
    request.k = kK;
    const auto expected = baseline.Search(request).hits;
    const auto actual = fast.Search(request).hits;
    exact = exact && expected.size() == actual.size();
    for (size_t i = 0; exact && i < expected.size(); ++i) {
      exact = expected[i].doc_index == actual[i].doc_index &&
              expected[i].score == actual[i].score;
    }
    if (!exact) {
      std::printf("hit mismatch vs sequential oracle on query: %s\n",
                  q.c_str());
      break;
    }
  }

  const uint64_t sketch_hits =
      fast.Metrics().CounterValue(embed::kEmbedderSketchHits);
  const uint64_t sketch_fallbacks =
      fast.Metrics().CounterValue(embed::kEmbedderSketchFallbacks);
  const auto fallbacks_for = [&fast](std::string_view series) {
    return static_cast<size_t>(fast.Metrics().CounterValue(series));
  };
  const bool gate_ok = speedup >= 2.0;
  const bool sketch_used = sketch_hits > 0;
  std::printf(
      "\ncorpus %zu docs, KG %zu nodes, %zu queries x %d rounds per "
      "window, cache off\n",
      dataset.corpus.size(), num_nodes, queries.size(), kNeRounds);
  std::printf(
      "sketch answered %zu groups, fell back on %zu; median p99 speedup "
      "over %d windows %.2fx (gate 2.00x): %s, hits bit-identical: %s\n",
      static_cast<size_t>(sketch_hits),
      static_cast<size_t>(sketch_fallbacks), kNeWindows, speedup,
      gate_ok ? "ok" : "FAIL", exact ? "ok" : "FAIL");
  std::printf(
      "sketch fallbacks by reason: truncated ball %zu, no common ancestor "
      "within the radius %zu, ineligible %zu\n",
      fallbacks_for(embed::kEmbedderSketchFallbacksTruncatedBall),
      fallbacks_for(embed::kEmbedderSketchFallbacksNoCommonAncestor),
      fallbacks_for(embed::kEmbedderSketchFallbacksIneligible));
  return gate_ok && exact && sketch_used;
}

}  // namespace

int main(int argc, char** argv) {
  bool with_ingest = false;
  bool with_batch = false;
  bool prune_gate = false;
  bool ne_gate = false;
  size_t max_shards = 0;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--with-ingest") == 0) with_ingest = true;
    if (std::strcmp(argv[i], "--batch") == 0) with_batch = true;
    if (std::strcmp(argv[i], "--prune-gate") == 0) prune_gate = true;
    if (std::strcmp(argv[i], "--ne-gate") == 0) ne_gate = true;
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      max_shards = static_cast<size_t>(std::atoi(argv[++i]));
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    }
  }

  if (ne_gate) return RunNeGate() ? 0 : 1;

  std::printf("NewsLink reproduction — concurrent query serving%s\n\n",
              with_ingest ? " + live ingestion" : "");
  const int stories = bench::StoriesFromEnv(120);
  const int num_threads = ThreadsFromEnv(4);
  constexpr int kRounds = 3;
  constexpr size_t kK = 10;
  constexpr size_t kNumQueries = 32;

  auto world = bench::MakeWorld(7);
  corpus::SyntheticNewsConfig corpus_config = corpus::CnnLikeConfig();
  corpus_config.num_stories = stories;
  const corpus::SyntheticCorpus dataset =
      corpus::SyntheticNewsGenerator(&world->kg, corpus_config).Generate();

  NewsLinkConfig config;
  config.beta = 0.2;
  config.num_threads = 2;
  // Build with SimHash doc-id reordering so the whole bench — snapshot
  // round-trip, warm reload, live ingestion after the permutation — runs
  // against the reordered layout that block-max pruning is designed for.
  config.reorder_docs = true;
  // Exercise the slow-query log under the concurrent workload: a generous
  // threshold keeps the fast path honest while still recording entries.
  config.slow_query_threshold_seconds = 1e-6;
  config.slow_query_log_capacity = 8;
  NewsLinkEngine engine(&world->kg.graph, &world->index, config);
  const auto cold_start = Clock::now();
  NL_CHECK(engine.Index(dataset.corpus).ok());
  const double cold_seconds =
      std::chrono::duration<double>(Clock::now() - cold_start).count();

  // Cold vs warm start: save a snapshot and reload it into a fresh engine
  // (the build-once / serve-warm split of DESIGN.md Sec. 9). The warm path
  // skips the NLP/NE pipeline entirely, so it must be >= 10x faster.
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() / "bench_concurrent.snap")
          .string();
  double warm_seconds = 0.0;
  bool warm_ok = false;
  {
    const Status saved = engine.SaveSnapshot(snapshot_path);
    if (!saved.ok()) {
      std::printf("snapshot save FAILED: %s\n", saved.ToString().c_str());
    } else {
      NewsLinkEngine warm(&world->kg.graph, &world->index, config);
      const auto warm_start = Clock::now();
      const Status loaded = warm.LoadSnapshot(snapshot_path);
      warm_seconds =
          std::chrono::duration<double>(Clock::now() - warm_start).count();
      if (!loaded.ok()) {
        std::printf("snapshot load FAILED: %s\n", loaded.ToString().c_str());
      } else {
        warm_ok = warm.num_indexed_docs() == engine.num_indexed_docs() &&
                  warm_seconds * 10.0 <= cold_seconds;
      }
    }
    std::remove(snapshot_path.c_str());
  }
  std::printf(
      "cold build %.3fs, warm snapshot load %.3fs (%.0fx, gate 10x): %s\n\n",
      cold_seconds, warm_seconds,
      warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0,
      warm_ok ? "ok" : "FAIL");

  std::vector<std::string> queries;
  for (size_t d = 0; d < kNumQueries && d < dataset.corpus.size(); ++d) {
    const std::string& text = dataset.corpus.doc(d).text;
    queries.push_back(text.substr(0, text.find('.') + 1));
  }

  std::printf("corpus %zu docs, KG %zu nodes, %zu queries x %d rounds\n\n",
              dataset.corpus.size(), world->kg.graph.num_nodes(),
              queries.size(), kRounds);
  std::printf("%-22s %8s %9s %9s %10s %10s %10s %9s\n", "mode", "QPS",
              "p50 ms", "p99 ms", "bow/query", "bon/query", "blk skip",
              "coverage");
  bench::PrintRule(95);

  // Exhaustive oracle, single thread: the docs-scored ceiling.
  const RunReport exhaustive =
      RunWorkload(engine, queries, 1, 1, kK, /*exhaustive=*/true);
  PrintReport("exhaustive x1", exhaustive);

  // Pruned MaxScore fusion, single thread then concurrent.
  const RunReport pruned1 =
      RunWorkload(engine, queries, 1, 1, kK, /*exhaustive=*/false);
  PrintReport("maxscore x1", pruned1);
  const RunReport prunedN =
      RunWorkload(engine, queries, num_threads, kRounds, kK,
                  /*exhaustive=*/false);
  char label[32];
  std::snprintf(label, sizeof(label), "maxscore x%d", num_threads);
  PrintReport(label, prunedN);

  // Pruned vs oracle: every hit of the pruned fusion must carry, bit for
  // bit, the score the exhaustive oracle gives that document when it ranks
  // every document (pruned and exhaustive scoring sum in one order).
  bool oracle_ok = true;
  {
    size_t hits = 0;
    for (const std::string& q : queries) {
      baselines::SearchRequest request;
      request.query = q;
      request.k = kK;
      const auto pruned = engine.Search(request).hits;
      request.k = engine.num_indexed_docs();
      request.exhaustive_fusion = true;
      std::map<size_t, double> exact;
      for (const auto& hit : engine.Search(request).hits) {
        exact[hit.doc_index] = hit.score;
      }
      for (const auto& hit : pruned) {
        const auto it = exact.find(hit.doc_index);
        oracle_ok = oracle_ok && it != exact.end() && it->second == hit.score;
        ++hits;
      }
    }
    std::printf("\npruned vs oracle: %zu hits, scores bit-identical: %s\n",
                hits, oracle_ok ? "ok" : "FAIL");
  }

  // --batch: the same query set as ONE SearchBatch() call (the server's
  // array-body /v1/search path). Gates hit parity against per-request
  // Search() and reports the fan-out speedup over a sequential replay.
  bool batch_ok = true;
  if (with_batch) {
    std::vector<baselines::SearchRequest> requests;
    requests.reserve(queries.size());
    for (const std::string& q : queries) {
      baselines::SearchRequest request;
      request.query = q;
      request.k = kK;
      requests.push_back(request);
    }
    const auto batch_start = Clock::now();
    const std::vector<baselines::SearchResponse> batched =
        engine.SearchBatch(requests);
    const double batch_seconds =
        std::chrono::duration<double>(Clock::now() - batch_start).count();

    const auto seq_start = Clock::now();
    std::vector<baselines::SearchResponse> sequential;
    sequential.reserve(requests.size());
    for (const baselines::SearchRequest& request : requests) {
      sequential.push_back(engine.Search(request));
    }
    const double seq_seconds =
        std::chrono::duration<double>(Clock::now() - seq_start).count();

    batch_ok = batched.size() == requests.size();
    for (size_t i = 0; batch_ok && i < requests.size(); ++i) {
      batch_ok = batched[i].hits.size() == sequential[i].hits.size();
      for (size_t h = 0; batch_ok && h < batched[i].hits.size(); ++h) {
        batch_ok = batched[i].hits[h].doc_index ==
                   sequential[i].hits[h].doc_index;
      }
    }
    std::printf(
        "\nbatch: %zu queries in %.3fs (sequential %.3fs, %.1fx), hit "
        "parity: %s\n",
        requests.size(), batch_seconds, seq_seconds,
        batch_seconds > 0 ? seq_seconds / batch_seconds : 0.0,
        batch_ok ? "ok" : "FAIL");
  }

  // --shards N: the same concurrent workload against in-process
  // ShardedEngines at shard counts 1..N (round-robin partition). The merge
  // is score-safe and every composition sums BM25 terms in one order, so
  // every count must reproduce the single engine's hits bit for bit.
  bool shards_ok = true;
  if (max_shards > 0) {
    std::printf("\nscatter-gather (ShardedEngine, round-robin):\n");
    std::printf("%-22s %8s %9s %9s\n", "mode", "QPS", "p50 ms", "p99 ms");
    bench::PrintRule(52);
    for (size_t n = 1; n <= max_shards; ++n) {
      ShardedEngine sharded(&world->kg.graph, &world->index, config, n);
      NL_CHECK(sharded.Index(dataset.corpus).ok());
      const RunReport report =
          RunWorkload(sharded, queries, num_threads, 1, kK,
                      /*exhaustive=*/false);
      std::snprintf(label, sizeof(label), "sharded n=%zu x%d", n,
                    num_threads);
      std::printf("%-22s %8.1f %9.3f %9.3f\n", label, report.qps,
                  report.p50_ms, report.p99_ms);
      for (const std::string& q : queries) {
        baselines::SearchRequest request;
        request.query = q;
        request.k = kK;
        const auto expected = engine.Search(request).hits;
        const auto actual = sharded.Search(request).hits;
        bool parity = expected.size() == actual.size();
        for (size_t i = 0; parity && i < expected.size(); ++i) {
          parity = expected[i].doc_index == actual[i].doc_index &&
                   expected[i].score == actual[i].score;
        }
        if (!parity) {
          std::printf("  hit parity vs single engine FAILED at n=%zu\n", n);
          shards_ok = false;
          break;
        }
      }
    }
    std::printf("hit parity across shard counts 1..%zu: %s\n", max_shards,
                shards_ok ? "ok" : "FAIL");
  }

  // Live ingestion: alternate windows in which a writer thread appends a
  // second synthetic corpus into the same engine with query-only windows of
  // the same length. A +ingest window runs until at least
  // kMinIngestedPerWindow documents have landed inside it, so the ratio
  // measures queries under sustained ingestion rather than a handful of
  // appends; the median over the pairs damps one noisy window on a shared
  // machine.
  bool ingest_ok = true;
  if (with_ingest) {
    constexpr int kIngestPairs = 3;
    constexpr size_t kMinIngestedPerWindow = 30;
    corpus::SyntheticNewsConfig ingest_config = corpus::CnnLikeConfig();
    ingest_config.num_stories = stories;
    ingest_config.seed = corpus_config.seed + 1;
    const corpus::SyntheticCorpus fresh =
        corpus::SyntheticNewsGenerator(&world->kg, ingest_config).Generate();

    const size_t docs_before = engine.num_indexed_docs();
    size_t next_doc = 0;
    size_t docs_added = 0;
    bool windows_full = true;
    uint64_t ingest_violations = 0;
    std::vector<double> ratios;
    for (int pair = 0; pair < kIngestPairs; ++pair) {
      std::atomic<bool> stop{false};
      std::atomic<bool> exhausted{false};
      std::atomic<size_t> landed{0};
      std::thread writer([&] {
        for (; next_doc < fresh.corpus.size() && !stop.load(); ++next_doc) {
          engine.AddDocument(fresh.corpus.doc(next_doc));
          landed.fetch_add(1, std::memory_order_relaxed);
          // Throttle: ingestion should contend with queries, not starve
          // them.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        exhausted.store(true);
      });
      const RunReport ingesting = RunWorkload(
          engine, queries, num_threads, kRounds, kK, /*exhaustive=*/false,
          [&] {
            return landed.load() < kMinIngestedPerWindow && !exhausted.load();
          });
      const size_t in_window = landed.load();
      stop.store(true);
      writer.join();
      docs_added += landed.load();
      // The query-only window serves as many rounds as the +ingest one did,
      // so both p99s are read off samples of the same size.
      const uint64_t per_round = queries.size() * num_threads;
      const int quiet_rounds =
          static_cast<int>((ingesting.queries + per_round - 1) / per_round);
      const RunReport quiet = RunWorkload(engine, queries, num_threads,
                                          quiet_rounds, kK,
                                          /*exhaustive=*/false);
      ingest_violations += quiet.violations + ingesting.violations;
      windows_full = windows_full && in_window >= kMinIngestedPerWindow;
      const double ratio =
          quiet.p99_ms > 0 ? ingesting.p99_ms / quiet.p99_ms : 1.0;
      ratios.push_back(ratio);

      std::snprintf(label, sizeof(label), "+ingest %d (%zu docs)", pair + 1,
                    in_window);
      PrintReport(label, ingesting);
      std::snprintf(label, sizeof(label), "query-only %d", pair + 1);
      PrintReport(label, quiet);
      std::printf("  p99 ratio %.2fx\n", ratio);
    }

    const uint64_t epochs_published =
        engine.Metrics().CounterValue(kEpochsPublished);
    const uint64_t current_epoch =
        static_cast<uint64_t>(engine.Metrics().GaugeValue(kCurrentEpoch));
    const bool docs_consistent =
        engine.num_indexed_docs() == docs_before + docs_added &&
        current_epoch + 1 == epochs_published;
    std::sort(ratios.begin(), ratios.end());
    const double median_ratio = ratios[ratios.size() / 2];
    const bool p99_ok = median_ratio <= 1.5;
    std::printf(
        "\ningest: %zu docs appended over %d windows (minimum %zu per "
        "window: %s), %zu epochs published, median p99 ratio %.2fx (gate "
        "1.50x): %s, isolation violations: %zu\n",
        docs_added, kIngestPairs, kMinIngestedPerWindow,
        windows_full ? "ok" : "FAIL",
        static_cast<size_t>(epochs_published), median_ratio,
        p99_ok ? "ok" : "FAIL",
        static_cast<size_t>(ingest_violations));
    ingest_ok = docs_consistent && windows_full && p99_ok &&
                ingest_violations == 0;
  }

  const metrics::Registry& metrics = engine.Metrics();
  const uint64_t cache_hits = metrics.CounterValue(embed::kLcagCacheHits);
  const uint64_t cache_misses = metrics.CounterValue(embed::kLcagCacheMisses);
  std::printf(
      "\nLCAG cache: %zu hits / %zu lookups (%.1f%% hit rate), "
      "%zu entries, %zu evictions\n",
      static_cast<size_t>(cache_hits),
      static_cast<size_t>(cache_hits + cache_misses),
      cache_hits + cache_misses > 0
          ? 100.0 * cache_hits / (cache_hits + cache_misses)
          : 0.0,
      static_cast<size_t>(metrics.GaugeValue(embed::kLcagCacheEntries)),
      static_cast<size_t>(metrics.CounterValue(embed::kLcagCacheEvictions)));
  std::printf("slow-query log: %zu entries over %.0fus threshold\n",
              engine.slow_query_log().size(),
              config.slow_query_threshold_seconds * 1e6);

  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f != nullptr) {
      const std::string body = metrics.RenderPrometheus();
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
  }

  // Coverage gate over the traced concurrent run: the span tree must
  // account for >= 95% of each query's wall-clock on average.
  const bool coverage_ok = prunedN.span_coverage >= 0.95;
  // Same queries, same top-k: block-max pruning must do at most half the
  // text-side scoring work of the exhaustive oracle.
  const double docs_reduction =
      pruned1.bow_docs_scored > 0
          ? static_cast<double>(exhaustive.bow_docs_scored) /
                static_cast<double>(pruned1.bow_docs_scored)
          : 0.0;
  // The 2x bar needs a corpus large enough for pruning to have headroom, so
  // it is only enforced under --prune-gate (CI runs that at >= 240 stories);
  // without the flag the ratio is reported but informational.
  const bool fewer_docs = !prune_gate || docs_reduction >= 2.0;
  const bool cache_ok = cache_hits > 0;
  const bool no_violations =
      exhaustive.violations + pruned1.violations + prunedN.violations == 0;
  std::printf(
      "docs-scored reduction %.1fx (gate 2.0x, %s): %s, cache hit rate "
      "nonzero: %s, snapshot isolation clean: %s, span coverage %.1f%% "
      "(gate 95%%): %s\n",
      docs_reduction, prune_gate ? "enforced" : "informational",
      prune_gate ? (docs_reduction >= 2.0 ? "ok" : "FAIL") : "--",
      cache_ok ? "yes" : "NO",
      no_violations ? "yes" : "NO", 100.0 * prunedN.span_coverage,
      coverage_ok ? "ok" : "FAIL");
  return (fewer_docs && cache_ok && no_violations && ingest_ok &&
          coverage_ok && warm_ok && batch_ok && oracle_ok && shards_ok)
             ? 0
             : 1;
}
