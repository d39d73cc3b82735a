// Streaming-churn benchmark for the tiered engine (DESIGN.md Sec. 15):
// sustained AddDocument ingestion into the today tier while query threads
// hammer the engine, with the background compactor folding the today tier
// into the base mid-run. Exercises the full time-aware path — every query
// mix includes recency-decayed and time-windowed requests. Recency decays
// in two classes: against the wall clock, years after every document, so
// each decay factor underflows to 0 and the zero-k-th exhaustive fallback
// runs; and against the newest stream document, the realistic case.
//
// The run alternates kPairs window pairs. In each churn window a writer
// appends the next slice of a live stream (the whole stream over all
// pairs) while the query threads run; a manual Compact() then drains the
// today tier untimed, and a steady (query-only) window serves as many
// rounds as the churn window did, so both p99s are read off samples of
// the same size and the same documents.
//
// Gates (exit 1 on any failure):
//   - query p99 under churn <= max(1.5x the steady-state p99, 5 ms), as
//     the median over the window pairs of each pair's churn p99 against
//     its own steady window's limit: ingestion and compaction must not
//     stall the wait-free query path, and one window disturbed by a noisy
//     neighbour cannot decide it;
//   - at least one background compaction completes inside the churn
//     windows (tier_compactions_total), and the manual Compact() after
//     the last one leaves the today tier empty;
//   - snapshot isolation holds under churn: every hit's doc_index stays
//     below its response's snapshot_docs, and epochs never move backwards
//     within a thread — across compaction swaps included;
//   - memory ceiling: resident set growth across all window pairs
//     (retired tiers reclaimed, compaction scratch released) stays under
//     NEWSLINK_BENCH_RSS_CEILING_MB (default 512);
//   - correctness: after the run, a probe query set (every class) answers
//     bit-identically to a fresh single NewsLinkEngine fed the same
//     documents in the same order.
//
// Each class's steady-window p99 is reported (median over the pairs).
//
// Env knobs: NEWSLINK_BENCH_STORIES (bulk corpus size, default 48),
//            NEWSLINK_BENCH_THREADS (query threads, default 3),
//            NEWSLINK_BENCH_RSS_CEILING_MB (churn RSS growth gate).

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "corpus/synthetic_news.h"
#include "newslink/newslink_engine.h"
#include "newslink/tiered_engine.h"

using namespace newslink;

namespace {

using Clock = std::chrono::steady_clock;

int ThreadsFromEnv(int fallback) {
  const char* env = std::getenv("NEWSLINK_BENCH_THREADS");
  if (env == nullptr) return fallback;
  const int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

double RssCeilingMbFromEnv(double fallback) {
  const char* env = std::getenv("NEWSLINK_BENCH_RSS_CEILING_MB");
  if (env == nullptr) return fallback;
  const double v = std::atof(env);
  return v > 0 ? v : fallback;
}

/// Resident set size in MB from /proc/self/statm (0.0 when unreadable —
/// the RSS gate then auto-passes on non-Linux hosts).
double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long total = 0;
  long resident = 0;
  const int matched = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (matched != 2) return 0.0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident) * static_cast<double>(page) / 1048576.0;
}

/// The request classes of the query mix, in MixedRequest's order.
constexpr size_t kClasses = 5;
constexpr std::array<const char*, kClasses> kClassNames = {
    "fused", "text", "decay@wall", "window", "decay@newest"};

/// Time bounds of the mix: the window [t0, t1) cuts across the bulk/stream
/// boundary; newest_ms is the last stream document's timestamp.
struct MixTimes {
  int64_t t0 = 0;
  int64_t t1 = 0;
  int64_t newest_ms = 0;
};

/// The per-thread query mix, request i of class i % kClasses, cycling over
/// corpus-derived query strings.
baselines::SearchRequest MixedRequest(const std::vector<std::string>& queries,
                                      size_t i, const MixTimes& times) {
  baselines::SearchRequest request;
  request.query = queries[i % queries.size()];
  request.k = 10;
  switch (i % kClasses) {
    case 0:
      break;  // engine defaults (fused pruned retrieval)
    case 1:
      request.beta = 0.0;  // pure text
      break;
    case 2:
      // Decay against the snapshot's wall-clock "now": every factor
      // underflows to 0.
      request.recency_half_life_seconds = 6.0 * 3600.0;
      break;
    case 3:
      request.time_range = baselines::TimeRange{times.t0, times.t1};
      break;
    case 4:
      // Decay against the newest document: no factor underflows.
      request.recency_half_life_seconds = 6.0 * 3600.0;
      request.now_ms = times.newest_ms;
      break;
  }
  return request;
}

struct Phase {
  double p99_ms = 0;
  double qps = 0;
  uint64_t queries = 0;
  uint64_t violations = 0;
  std::array<double, kClasses> class_p99_ms{};
};

Phase RunQueries(const TieredEngine& engine,
                 const std::vector<std::string>& queries, int num_threads,
                 int rounds, const MixTimes& times,
                 const std::atomic<bool>* stop = nullptr) {
  metrics::Histogram latencies(bench::LatencyHistogramOptions());
  std::array<std::unique_ptr<metrics::Histogram>, kClasses> by_class;
  for (auto& h : by_class) {
    h = std::make_unique<metrics::Histogram>(bench::LatencyHistogramOptions());
  }
  std::atomic<uint64_t> total{0};
  std::atomic<uint64_t> violations{0};
  const auto wall_start = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t last_epoch = 0;
      for (int round = 0; round < rounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          if (stop != nullptr && stop->load(std::memory_order_relaxed) &&
              round > 0) {
            return;  // the ingest slice ended; finish after >= 1 round
          }
          const size_t i = q * num_threads + t;
          const auto start = Clock::now();
          const baselines::SearchResponse response =
              engine.Search(MixedRequest(queries, i, times));
          const double seconds =
              std::chrono::duration<double>(Clock::now() - start).count();
          latencies.Observe(seconds);
          by_class[i % kClasses]->Observe(seconds);
          total.fetch_add(1, std::memory_order_relaxed);
          if (response.epoch < last_epoch) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          last_epoch = response.epoch;
          for (const baselines::SearchHit& hit : response.hits) {
            if (hit.doc_index >= response.snapshot_docs) {
              violations.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  Phase phase;
  phase.p99_ms = latencies.Percentile(0.99) * 1e3;
  for (size_t c = 0; c < kClasses; ++c) {
    phase.class_p99_ms[c] = by_class[c]->Percentile(0.99) * 1e3;
  }
  phase.queries = total.load();
  phase.violations = violations.load();
  const double wall =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  phase.qps = wall > 0 ? static_cast<double>(phase.queries) / wall : 0;
  return phase;
}

}  // namespace

int main() {
  std::printf("NewsLink reproduction — tiered-index churn (ingest + query + "
              "background compaction)\n\n");
  const int stories = bench::StoriesFromEnv(48);
  const int num_threads = ThreadsFromEnv(3);
  const double rss_ceiling_mb = RssCeilingMbFromEnv(512.0);

  auto world = bench::MakeWorld(7);
  corpus::SyntheticNewsConfig bulk_config = corpus::CnnLikeConfig();
  bulk_config.num_stories = stories;
  const corpus::SyntheticCorpus bulk =
      corpus::SyntheticNewsGenerator(&world->kg, bulk_config).Generate();
  // The live stream: a second corpus, stamped after the bulk one so the
  // recency and window mixes cut across both tiers.
  corpus::SyntheticNewsConfig stream_config = corpus::CnnLikeConfig();
  stream_config.seed = 1234;
  stream_config.num_stories = std::max(8, stories / 2);
  stream_config.timestamp_start_ms =
      bulk_config.timestamp_start_ms +
      static_cast<int64_t>(bulk.corpus.size()) *
          bulk_config.timestamp_spacing_ms;
  const corpus::SyntheticCorpus stream =
      corpus::SyntheticNewsGenerator(&world->kg, stream_config)
          .Generate("live");

  NewsLinkConfig config;
  config.beta = 0.2;
  config.num_threads = 2;
  TieredOptions tiered_options;
  tiered_options.compact_interval_seconds = 0.2;
  tiered_options.compact_min_today_docs = 8;
  TieredEngine engine(&world->kg.graph, &world->index, config, tiered_options);
  NL_CHECK(engine.Index(bulk.corpus).ok());

  // Query strings lifted from the bulk corpus (so they match), window
  // bounds cutting across the bulk/stream timestamp boundary.
  std::vector<std::string> queries;
  for (size_t d = 0; d < bulk.corpus.size() && queries.size() < 24; d += 3) {
    const std::string& text = bulk.corpus.doc(d).text;
    queries.push_back(text.substr(0, text.find('.') + 1));
  }
  MixTimes times;
  times.t0 = bulk.corpus.doc(bulk.corpus.size() / 2).timestamp_ms;
  times.t1 = stream_config.timestamp_start_ms +
             static_cast<int64_t>(stream.corpus.size() / 2) *
                 stream_config.timestamp_spacing_ms;
  times.newest_ms = stream.corpus.doc(stream.corpus.size() - 1).timestamp_ms;

  // One discarded warmup pass (first-touch allocations, cold LCAG cache).
  (void)RunQueries(engine, queries, num_threads, /*rounds=*/2, times);

  // --- Alternating churn / steady window pairs ---------------------------
  constexpr int kPairs = 5;
  const double rss_before_mb = ResidentMb();
  const uint64_t per_round = queries.size() * num_threads;
  uint64_t compactions = 0;
  uint64_t violations = 0;
  std::vector<double> steady_p99s;
  std::vector<double> churn_p99s;
  std::vector<double> ratios;  // churn p99 / that pair's limit
  std::array<std::vector<double>, kClasses> class_p99s;  // steady windows
  for (int pair = 0; pair < kPairs; ++pair) {
    const size_t begin = stream.corpus.size() * pair / kPairs;
    const size_t end = stream.corpus.size() * (pair + 1) / kPairs;
    const uint64_t compactions_before = engine.compactions();
    std::atomic<bool> slice_done{false};
    std::thread writer([&] {
      for (size_t d = begin; d < end; ++d) {
        engine.AddDocument(stream.corpus.doc(d));
        // A steady trickle, slow enough that several compactor ticks land
        // mid-stream and queries straddle multiple tier generations.
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
      }
      slice_done.store(true, std::memory_order_relaxed);
    });
    // The slice ending, not the round cap, is meant to close the window.
    const Phase churn = RunQueries(engine, queries, num_threads,
                                   /*rounds=*/256, times, &slice_done);
    writer.join();
    const uint64_t in_window = engine.compactions() - compactions_before;
    compactions += in_window;
    // Drain what the compactor has not folded yet, untimed, so the steady
    // window is query-only.
    NL_CHECK(engine.Compact().ok());
    const int steady_rounds =
        static_cast<int>((churn.queries + per_round - 1) / per_round);
    const Phase steady =
        RunQueries(engine, queries, num_threads, steady_rounds, times);
    violations += churn.violations + steady.violations;

    // The absolute floor absorbs pure CPU-contention noise on small CI
    // boxes: with one or two cores, a compaction timeslice inevitably adds
    // a scheduler quantum (~1-4 ms) to some query's tail, which is not a
    // locking bug. A stall (a query taking writer_mu_ would wait out a
    // whole compaction rebuild) is tens to hundreds of ms.
    const double limit = std::max(steady.p99_ms * 1.5, 5.0);
    steady_p99s.push_back(steady.p99_ms);
    churn_p99s.push_back(churn.p99_ms);
    ratios.push_back(churn.p99_ms / limit);
    for (size_t c = 0; c < kClasses; ++c) {
      class_p99s[c].push_back(steady.class_p99_ms[c]);
    }
    std::printf("pair %d  churn:  %7.0f qps   p99 %6.3f ms   (%llu queries, "
                "%zu docs, %llu compactions)\n",
                pair + 1, churn.qps, churn.p99_ms,
                static_cast<unsigned long long>(churn.queries), end - begin,
                static_cast<unsigned long long>(in_window));
    std::printf("        steady: %7.0f qps   p99 %6.3f ms   (%llu queries)   "
                "churn / limit %.2f\n",
                steady.qps, steady.p99_ms,
                static_cast<unsigned long long>(steady.queries),
                ratios.back());
  }
  const double rss_after_mb = ResidentMb();
  const double rss_growth_mb =
      rss_after_mb > rss_before_mb ? rss_after_mb - rss_before_mb : 0.0;
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double median_ratio = median(ratios);

  // --- Correctness: the churned engine vs a fresh single engine ---------
  NewsLinkEngine reference(&world->kg.graph, &world->index, config);
  NL_CHECK(reference.Index(bulk.corpus).ok());
  for (size_t d = 0; d < stream.corpus.size(); ++d) {
    reference.AddDocument(stream.corpus.doc(d));
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    baselines::SearchRequest probe = MixedRequest(queries, i, times);
    // Pin the decay reference so both engines age documents identically.
    if (!probe.now_ms.has_value()) probe.now_ms = times.t1;
    const baselines::SearchResponse a = engine.Search(probe);
    const baselines::SearchResponse b = reference.Search(probe);
    if (a.hits.size() != b.hits.size()) {
      ++mismatches;
      continue;
    }
    for (size_t r = 0; r < a.hits.size(); ++r) {
      if (a.hits[r].doc_index != b.hits[r].doc_index ||
          a.hits[r].score != b.hits[r].score) {
        ++mismatches;
        break;
      }
    }
  }

  // --- Gates -------------------------------------------------------------
  bool ok = true;
  if (median_ratio > 1.0) {
    std::printf("GATE FAIL: median churn p99 is %.2fx its limit (max of "
                "1.5x the pair's steady-state p99 and the 5 ms floor)\n",
                median_ratio);
    ok = false;
  }
  if (compactions == 0) {
    std::printf("GATE FAIL: no compaction completed in a churn window\n");
    ok = false;
  }
  if (engine.today_tier_docs() != 0) {
    std::printf("GATE FAIL: today tier still holds %zu docs after drain\n",
                engine.today_tier_docs());
    ok = false;
  }
  if (violations != 0) {
    std::printf("GATE FAIL: %llu snapshot-isolation violations\n",
                static_cast<unsigned long long>(violations));
    ok = false;
  }
  if (rss_growth_mb > rss_ceiling_mb) {
    std::printf("GATE FAIL: churn grew RSS by %.1f MB (ceiling %.1f MB)\n",
                rss_growth_mb, rss_ceiling_mb);
    ok = false;
  }
  if (mismatches != 0) {
    std::printf("GATE FAIL: %llu probe queries differ from the reference "
                "engine\n",
                static_cast<unsigned long long>(mismatches));
    ok = false;
  }
  const std::string scrape = engine.Metrics().RenderPrometheus();
  if (scrape.find("tier_compactions_total") == std::string::npos ||
      scrape.find("today_tier_docs") == std::string::npos) {
    std::printf("GATE FAIL: tier lifecycle series missing from /metrics\n");
    ok = false;
  }

  std::printf("\n%s: median p99 %.3f -> %.3f ms, median churn / limit "
              "%.2f (gate 1.00) over %d pairs, %llu compactions, rss +%.1f "
              "MB, %zu/%zu probes exact\n",
              ok ? "PASS" : "FAIL", median(steady_p99s), median(churn_p99s),
              median_ratio, kPairs,
              static_cast<unsigned long long>(compactions), rss_growth_mb,
              queries.size() - static_cast<size_t>(mismatches),
              queries.size());
  std::printf("steady p99 by class (median over pairs):");
  for (size_t c = 0; c < kClasses; ++c) {
    std::printf("  %s %.3f ms", kClassNames[c], median(class_p99s[c]));
  }
  std::printf("\n");
  return ok ? 0 : 1;
}
