// One-thread, in-process benchmark of the /v1 wire path.
//
// A single closed-loop client on the calling thread drives the serving
// stack exactly as a keep-alive connection would, minus the socket: raw
// HTTP/1.1 request bytes -> net::HttpRequestParser::Consume ->
// net::SearchService::HandleSearch / HandleAddDocument ->
// net::SerializeResponse. No server threads, no sockets, no batch fan-out.
//
// Set-up mirrors `newslink_cli build-index --reorder --sketches` followed by
// `newslink_cli serve --snapshot`: index a seeded corpus over a seeded KG
// with one indexing thread, save a snapshot, destroy the build engine, load
// the snapshot into a fresh serving engine (default config: sequential LCAG,
// the snapshot's sketches, a cold default-size LCAG cache) and bind a
// SearchService to it. Set-up runs several times per invocation and
// setup_s is the median; input generation is not part of it.
//
// Workloads (--workload):
//   news_search    reader queries: one sentence of a corpus document, the
//                  documents drawn Zipf-popular so stories repeat.
//   entity_search  analyst queries: 3-4 KG labels (adjacent entities plus
//                  one further along the hierarchy), every group distinct.
//   ingest_mix     news_search reads with one POST /v1/documents per four
//                  reads, the documents taken from a second seeded corpus.
// The read-only workloads also send a write probe (the same kind of
// documents ingest_mix writes), interleaved evenly with the reads but sent
// to a second serving stack loaded from the same snapshot: the engine that
// answers the reads never changes, and write latency is sampled over the
// whole run like read latency.
//
// The amount of work is fixed by --seconds: a workload sends
// ops_per_second x seconds reads (a per-workload constant), so one seed
// always replays the same operations and every count repeats exactly. The
// indexed world (KG and corpus) is one fixed dataset; --seed draws the
// traffic.
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// operations twice on two fresh serving engines, once through the service
// and once calling each layer itself with a timer around it, and prints the
// per-layer metrics. Either way every response is parsed and checked,
// document counts are checked against the writes acknowledged, and a seeded
// sample of queries is checked against the in-process Search and the
// exhaustive fusion oracle (see CheckOracle). The last line of stdout is the
// JSON result; a "detail" line before it carries provenance, sizes, op
// counts and the result digest.
//
// Usage:
//   wirebench --workload news_search --seed 1 --seconds 10 --trace 0
//             [--scale full|small] [--work-dir DIR]
//             [--git-sha SHA] [--source-digest HEX]

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "corpus/corpus.h"
#include "corpus/synthetic_news.h"
#include "embed/document_embedding.h"
#include "embed/lcag_cache.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "net/api_json.h"
#include "net/http.h"
#include "net/search_service.h"
#include "newslink/newslink_engine.h"

#ifndef WIREBENCH_BUILD_TYPE
#define WIREBENCH_BUILD_TYPE "unknown"
#endif
#ifndef WIREBENCH_COMPILER
#define WIREBENCH_COMPILER "unknown"
#endif

using namespace newslink;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Options and workload shapes

enum class Workload { kNewsSearch, kEntitySearch, kIngestMix };

struct Options {
  Workload workload = Workload::kNewsSearch;
  std::string workload_name;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool small = false;
  std::string work_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Size knobs of one run. The full scale is the benchmark proper; the small
/// scale exists for the benchmark's own determinism test.
struct Scale {
  int kg_countries;       // synthetic KG = bench world x (countries / 6)
  int corpus_stories;     // main corpus (indexed at set-up)
  int setup_reps;         // set-ups per invocation; setup_s is the median
  double read_ops_per_second;  // reads sent per second of --seconds
  double probe_writes_per_second;  // write probe of the read-only workloads
  size_t oracle_queries;  // exhaustive-oracle sample after the run
};

Scale ScaleFor(const Options& o) {
  if (o.small) return Scale{6, 60, 1, 30.0, 10, 12};
  // Read rates are sized so that --seconds is roughly the measured time on
  // a 4-vCPU x86-64 VM; they never depend on the machine the run is on.
  const double reads = o.workload == Workload::kEntitySearch ? 1300.0
                       : o.workload == Workload::kIngestMix  ? 880.0
                                                             : 1500.0;
  return Scale{24, 350, 3, reads, 50, 64};
}

bool ParseOptions(int argc, char** argv, Options* o, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "flag " + flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      have_workload = true;
      o->workload_name = value;
      if (value == "news_search") {
        o->workload = Workload::kNewsSearch;
      } else if (value == "entity_search") {
        o->workload = Workload::kEntitySearch;
      } else if (value == "ingest_mix") {
        o->workload = Workload::kIngestMix;
      } else {
        *error = "unknown workload " + value;
        return false;
      }
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atoi(value.c_str());
      if (o->seconds < 1) {
        *error = "--seconds must be >= 1";
        return false;
      }
    } else if (flag == "--trace") {
      o->trace = value == "1";
    } else if (flag == "--scale") {
      o->small = value == "small";
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else if (flag == "--git-sha") {
      o->git_sha = value;
    } else if (flag == "--source-digest") {
      o->source_digest = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) *error = "--workload is required";
  return have_workload;
}

// ---------------------------------------------------------------------------
// Inputs: the fixed world and the seeded operation stream

struct Op {
  bool write = false;
  std::string bytes;  // the full HTTP/1.1 request
  std::string query;  // reads: the query text (for the oracle check)
  /// Reads: the query is a sentence of an indexed document, so at least
  /// that document matches. A group of KG labels may match nothing.
  bool expect_hits = false;
};

struct Inputs {
  kg::SyntheticKg kg;
  std::unique_ptr<kg::LabelIndex> labels;
  corpus::Corpus corpus;
  std::vector<Op> ops;
  size_t reads = 0;
  size_t writes = 0;
  /// ingest_mix: reads see the writes. Otherwise writes are a probe served
  /// by a second stack, and reads always see the indexed corpus alone.
  bool shared_writes = false;
};

std::string HttpPost(std::string_view target, const std::string& body) {
  return StrCat("POST ", target,
                " HTTP/1.1\r\nHost: newslink\r\nContent-Type: "
                "application/json\r\nContent-Length: ",
                body.size(), "\r\n\r\n", body);
}

Op SearchOp(std::string query, bool expect_hits) {
  json::Value body = json::Value::Object();
  body.Set("query", json::Value::Str(query));
  body.Set("k", json::Value::Uint(10));
  Op op;
  op.bytes = HttpPost("/v1/search", body.Dump());
  op.query = std::move(query);
  op.expect_hits = expect_hits;
  return op;
}

Op WriteOp(const corpus::Document& doc) {
  json::Value body = json::Value::Object();
  body.Set("id", json::Value::Str(doc.id));
  body.Set("title", json::Value::Str(doc.title));
  body.Set("text", json::Value::Str(doc.text));
  body.Set("story_id", json::Value::Uint(doc.story_id));
  body.Set("timestamp_ms", json::Value::Int(doc.timestamp_ms));
  Op op;
  op.write = true;
  op.bytes = HttpPost("/v1/documents", body.Dump());
  return op;
}

/// Sentences of a document body (each ends with its '.').
std::vector<std::string> Sentences(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('.', start);
    if (end == std::string::npos) end = text.size() - 1;
    std::string sentence(Trim(text.substr(start, end - start + 1)));
    if (sentence.size() > 1) out.push_back(std::move(sentence));
    start = end + 1;
  }
  return out;
}

/// Reader queries: Zipf-popular documents, one of their sentences each.
std::vector<std::string> NewsQueries(const corpus::Corpus& corpus, size_t n,
                                     Rng* rng) {
  std::vector<size_t> by_popularity(corpus.size());
  for (size_t i = 0; i < by_popularity.size(); ++i) by_popularity[i] = i;
  rng->Shuffle(&by_popularity);
  const ZipfTable zipf(corpus.size(), 1.0);
  std::vector<std::string> out;
  out.reserve(n);
  while (out.size() < n) {
    const size_t doc = by_popularity[zipf.Sample(rng)];
    const std::vector<std::string> sentences = Sentences(corpus.doc(doc).text);
    if (sentences.empty()) continue;
    out.push_back(sentences[rng->Uniform(sentences.size())]);
  }
  return out;
}

/// Analyst queries: 2-3 hierarchy-adjacent KG labels (consecutive ids in
/// the synthetic generator) plus one label further along the hierarchy,
/// kDistantMin to kDistantMin + kDistantSpan - 1 ids past them. The span is
/// chosen so that about one group in eight falls back from the sketches to
/// the full LCAG search, and NE takes about half of Search. Every node
/// group is distinct, so the LCAG cache never serves a repeat.
constexpr size_t kDistantMin = 2;
constexpr size_t kDistantSpan = 30;

std::vector<std::string> EntityQueries(const kg::KnowledgeGraph& graph,
                                       size_t n, Rng* rng) {
  const size_t num_nodes = graph.num_nodes();
  std::set<std::vector<kg::NodeId>> seen;
  std::vector<std::string> out;
  out.reserve(n);
  while (out.size() < n) {
    const kg::NodeId start = static_cast<kg::NodeId>(
        rng->Uniform(num_nodes - 3 - kDistantMin - kDistantSpan));
    const size_t adjacent = 2 + rng->Uniform(2);
    std::vector<kg::NodeId> group;
    for (size_t j = 0; j < adjacent; ++j) {
      group.push_back(start + static_cast<kg::NodeId>(j));
    }
    group.push_back(start + static_cast<kg::NodeId>(
                                adjacent + kDistantMin +
                                rng->Uniform(kDistantSpan)));
    std::vector<kg::NodeId> key = group;
    std::sort(key.begin(), key.end());
    if (std::adjacent_find(key.begin(), key.end()) != key.end()) continue;
    if (!seen.insert(key).second) continue;
    std::string text;
    for (kg::NodeId v : group) {
      if (!text.empty()) text += ", ";
      text += graph.label(v);
    }
    out.push_back(text + ".");
  }
  return out;
}

/// The indexed world (KG + corpus) is one fixed dataset; --seed draws the
/// traffic: the query stream, the documents written and the oracle sample.
constexpr uint64_t kWorldSeed = 1;

/// Fills `in` in place: the label index and the generators keep pointers
/// into the KG, so Inputs never moves.
void MakeInputs(const Options& o, const Scale& scale, Inputs* out) {
  Inputs& in = *out;
  kg::SyntheticKgConfig kg_config;
  kg_config.seed = kWorldSeed;
  // The shared bench world of bench/bench_util.h, with more countries.
  kg_config.num_countries = scale.kg_countries;
  kg_config.provinces_per_country = 8;
  kg_config.districts_per_province = 5;
  kg_config.cities_per_district = 4;
  kg_config.companies_per_country = 14;
  kg_config.events_per_country = 20;
  in.kg = kg::SyntheticKgGenerator(kg_config).Generate();
  in.labels = std::make_unique<kg::LabelIndex>(in.kg.graph);

  corpus::SyntheticNewsConfig news = corpus::CnnLikeConfig();
  news.seed = kWorldSeed * 104729 + 1001;
  news.num_stories = scale.corpus_stories;
  in.corpus =
      corpus::SyntheticNewsGenerator(&in.kg, news).Generate("doc").corpus;

  Rng rng(o.seed * 1299709 + 17);
  // A traced invocation replays its operations twice (untraced, then
  // traced), so it sends half as many to take about as long.
  const double work_seconds = o.trace ? o.seconds / 2.0 : o.seconds;
  const size_t reads = static_cast<size_t>(
      std::llround(scale.read_ops_per_second * work_seconds));
  const std::vector<std::string> queries =
      o.workload == Workload::kEntitySearch
          ? EntityQueries(in.kg.graph, reads, &rng)
          : NewsQueries(in.corpus, reads, &rng);

  // Writes: one per four reads in ingest_mix, an evenly spread probe
  // otherwise. They come from a second corpus over the same KG.
  in.shared_writes = o.workload == Workload::kIngestMix;
  const size_t writes =
      in.shared_writes ? reads / 4
                       : static_cast<size_t>(std::llround(
                             scale.probe_writes_per_second * work_seconds));
  const size_t reads_per_write = std::max<size_t>(1, reads / writes);
  corpus::SyntheticNewsConfig live = corpus::CnnLikeConfig();
  live.seed = o.seed * 15485863 + 2002;
  live.num_stories = static_cast<int>(writes / 3 + 8);
  const std::vector<corpus::Document> live_docs =
      corpus::SyntheticNewsGenerator(&in.kg, live)
          .Generate("live")
          .corpus.docs();
  NL_CHECK(live_docs.size() >= writes);

  in.ops.reserve(reads + writes);
  size_t next_write = 0;
  for (size_t i = 0; i < reads; ++i) {
    in.ops.push_back(
        SearchOp(queries[i], o.workload != Workload::kEntitySearch));
    if (i % reads_per_write == reads_per_write - 1 && next_write < writes) {
      in.ops.push_back(WriteOp(live_docs[next_write++]));
    }
  }
  NL_CHECK(next_write == writes);
  in.reads = reads;
  in.writes = writes;
}

// ---------------------------------------------------------------------------
// Set-up: build-index --reorder --sketches, then serve --snapshot

/// One serving stack. Held by pointer: the service keeps pointers to the
/// engine and the corpus, and members are destroyed service first.
struct Serving {
  std::unique_ptr<NewsLinkEngine> engine;
  corpus::Corpus corpus;  // the service appends live writes here
  std::unique_ptr<net::SearchService> service;
};

/// What one set-up serves: `reader` answers the searches; `writer`, when
/// present, takes the write probe of a read-only workload.
struct Stacks {
  std::unique_ptr<Serving> reader;
  std::unique_ptr<Serving> writer;

  Serving* Writes() const { return writer ? writer.get() : reader.get(); }
  Serving* For(const Op& op) const {
    return op.write ? Writes() : reader.get();
  }
  /// The distinct engines, for counter deltas.
  std::vector<const NewsLinkEngine*> Engines() const {
    std::vector<const NewsLinkEngine*> out{reader->engine.get()};
    if (writer) out.push_back(writer->engine.get());
    return out;
  }
};

/// LoadSnapshot into a fresh default-config engine and bind a service to it
/// and to `corpus` (a copy of the indexed corpus).
std::unique_ptr<Serving> Serve(const Inputs& in,
                               const std::string& snapshot_path,
                               corpus::Corpus corpus) {
  auto s = std::make_unique<Serving>();
  s->corpus = std::move(corpus);
  s->engine = std::make_unique<NewsLinkEngine>(&in.kg.graph, in.labels.get(),
                                               NewsLinkConfig{});
  const Status loaded = s->engine->LoadSnapshot(snapshot_path);
  NL_CHECK(loaded.ok()) << loaded.ToString();
  s->service = std::make_unique<net::SearchService>(s->engine.get(),
                                                    &s->corpus, &in.kg.graph);
  return s;
}

struct SetupTimes {
  double total_s = 0;
  double build_s = 0;
  double save_s = 0;
  double load_s = 0;
  uint64_t snapshot_bytes = 0;
};

/// Times build-index + serve; the probe's second stack is loaded afterwards,
/// outside the timed region.
Stacks Setup(const Inputs& in, const std::string& snapshot_path,
             SetupTimes* times) {
  corpus::Corpus reader_corpus = in.corpus;  // input copy, not set-up work
  const auto t0 = Clock::now();
  {
    NewsLinkConfig build_config;
    build_config.num_threads = 1;
    build_config.reorder_docs = true;
    build_config.lcag_sketch.enabled = true;
    NewsLinkEngine indexer(&in.kg.graph, in.labels.get(), build_config);
    const Status indexed = indexer.Index(in.corpus);
    NL_CHECK(indexed.ok()) << indexed.ToString();
    times->build_s = Seconds(t0, Clock::now());
    const auto t1 = Clock::now();
    const Status saved = indexer.SaveSnapshot(snapshot_path);
    NL_CHECK(saved.ok()) << saved.ToString();
    times->save_s = Seconds(t1, Clock::now());
  }
  const auto t2 = Clock::now();
  Stacks stacks;
  stacks.reader = Serve(in, snapshot_path, std::move(reader_corpus));
  const auto t3 = Clock::now();
  times->load_s = Seconds(t2, t3);
  times->total_s = Seconds(t0, t3);
  if (!in.shared_writes) stacks.writer = Serve(in, snapshot_path, in.corpus);

  struct stat st;
  times->snapshot_bytes =
      stat(snapshot_path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                            : 0;
  std::remove(snapshot_path.c_str());
  return stacks;
}

// ---------------------------------------------------------------------------
// Client-side response checks

/// FNV-1a over the (doc_index, score bits) of every hit, in order.
struct Digest {
  uint64_t value = 1469598103934665603ULL;
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      value ^= (x >> (8 * i)) & 0xff;
      value *= 1099511628211ULL;
    }
  }
};

uint64_t ScoreBits(double score) {
  uint64_t bits;
  std::memcpy(&bits, &score, sizeof(bits));
  return bits;
}

struct Hit {
  uint64_t doc_index;
  double score;
};

/// Splits a serialized response into status and parsed JSON body.
bool ParseWireResponse(const std::string& wire, int* status,
                       json::Value* body) {
  if (wire.compare(0, 9, "HTTP/1.1 ") != 0 || wire.size() < 12) return false;
  *status = std::atoi(wire.c_str() + 9);
  const size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  Result<json::Value> parsed =
      json::Parse(std::string_view(wire).substr(head_end + 4));
  if (!parsed.ok()) return false;
  *body = std::move(*parsed);
  return true;
}

bool ReadHits(const json::Value& body, std::vector<Hit>* hits,
              uint64_t* snapshot_docs) {
  const json::Value* h = body.Find("hits");
  const json::Value* docs = body.Find("snapshot_docs");
  if (h == nullptr || !h->is_array() || docs == nullptr) return false;
  *snapshot_docs = docs->AsUint();
  hits->clear();
  for (const json::Value& hit : h->items()) {
    const json::Value* index = hit.Find("doc_index");
    const json::Value* score = hit.Find("score");
    if (index == nullptr || score == nullptr) return false;
    hits->push_back(Hit{index->AsUint(), score->AsDouble()});
  }
  return true;
}

/// Everything the client checks while the operations run.
struct Checker {
  size_t base_docs = 0;
  bool shared_writes = false;  // Inputs::shared_writes
  size_t acked_writes = 0;
  size_t failed = 0;
  Digest digest;
  std::vector<Hit> hits;

  void Fail(const char* what, size_t op) {
    if (failed < 5) std::fprintf(stderr, "op %zu: %s\n", op, what);
    ++failed;
  }

  void Check(const Op& op, size_t index, const std::string& wire) {
    int status = 0;
    json::Value body;
    if (!ParseWireResponse(wire, &status, &body)) {
      return Fail("unparseable response", index);
    }
    if (status < 200 || status > 299) return Fail("non-2xx status", index);
    if (op.write) {
      const json::Value* doc_index = body.Find("doc_index");
      if (doc_index == nullptr ||
          doc_index->AsUint() != base_docs + acked_writes) {
        return Fail("write acknowledged with an unexpected doc_index", index);
      }
      ++acked_writes;
      return;
    }
    uint64_t snapshot_docs = 0;
    if (!ReadHits(body, &hits, &snapshot_docs)) {
      return Fail("search response without hits", index);
    }
    if (snapshot_docs != base_docs + (shared_writes ? acked_writes : 0)) {
      return Fail("snapshot_docs differs from acknowledged writes", index);
    }
    if ((op.expect_hits && hits.empty()) || hits.size() > 10) {
      return Fail("search returned no hits or more than k", index);
    }
    digest.Add(hits.size());
    for (const Hit& hit : hits) {
      if (hit.doc_index >= snapshot_docs) {
        return Fail("hit beyond snapshot_docs", index);
      }
      digest.Add(hit.doc_index);
      digest.Add(ScoreBits(hit.score));
    }
  }
};

/// Outcome of the oracle comparison.
struct OracleReport {
  size_t queries = 0;
  size_t mismatches = 0;       // check failures
  size_t rank_diffs = 0;       // queries whose top-k differs from the oracle's
  size_t score_bit_diffs = 0;  // hits whose score differs in its last bits
};

/// After the run: re-send a seeded sample of the queries over the wire path
/// and hold each answer against two references.
///  - The in-process Search for the same request: the wire must add and lose
///    nothing, so doc indices and score bits must be identical.
///  - The exhaustive fusion oracle (every posting scored, k = every
///    document): each returned hit must carry the oracle's score for its
///    document (within the 1e-9 the engine's own oracle tests allow, since
///    the pruned path sums per-term contributions in another order) and the
///    hits must be in non-increasing score order. Pruned fusion keeps only
///    rerank_depth candidates per side, so its top-k may differ from the
///    oracle's top-k; those queries are counted, as are hits whose score
///    bits differ from the oracle's, and both counts are reported.
OracleReport CheckOracle(const Inputs& in, const Serving* s, size_t sample,
                         uint64_t seed) {
  std::vector<size_t> reads;
  for (size_t i = 0; i < in.ops.size(); ++i) {
    if (!in.ops[i].write) reads.push_back(i);
  }
  Rng rng(seed * 49979687 + 3);
  rng.Shuffle(&reads);
  reads.resize(std::min(sample, reads.size()));

  OracleReport report;
  std::vector<Hit> hits;
  for (size_t i : reads) {
    const Op& op = in.ops[i];
    net::HttpRequestParser parser;
    json::Value body;
    int status = 0;
    uint64_t snapshot_docs = 0;
    const bool ok =
        parser.Consume(op.bytes) == net::HttpRequestParser::State::kComplete &&
        ParseWireResponse(net::SerializeResponse(
                              s->service->HandleSearch(parser.request()), true),
                          &status, &body) &&
        status == 200 && ReadHits(body, &hits, &snapshot_docs);
    baselines::SearchRequest request;
    request.query = op.query;
    request.k = 10;
    const baselines::SearchResponse direct = s->engine->Search(request);
    request.exhaustive_fusion = true;
    request.k = s->engine->num_indexed_docs();
    const baselines::SearchResponse oracle = s->engine->Search(request);
    std::map<size_t, double> oracle_score;
    for (const baselines::SearchHit& hit : oracle.hits) {
      oracle_score[hit.doc_index] = hit.score;
    }

    bool same = ok && hits.size() == direct.hits.size();
    bool same_ranking = hits.size() <= oracle.hits.size();
    for (size_t j = 0; same && j < hits.size(); ++j) {
      const auto it = oracle_score.find(hits[j].doc_index);
      same = hits[j].doc_index == direct.hits[j].doc_index &&
             ScoreBits(hits[j].score) == ScoreBits(direct.hits[j].score) &&
             (j == 0 || hits[j].score <= hits[j - 1].score) &&
             it != oracle_score.end() &&
             std::fabs(hits[j].score - it->second) <= 1e-9;
      if (same && ScoreBits(hits[j].score) != ScoreBits(it->second)) {
        ++report.score_bit_diffs;
      }
      same_ranking = same_ranking &&
                     hits[j].doc_index == oracle.hits[j].doc_index;
    }
    ++report.queries;
    if (!same_ranking) ++report.rank_diffs;
    if (!same) {
      if (report.mismatches < 3) {
        std::fprintf(stderr, "oracle mismatch on query: %s\n",
                     op.query.c_str());
      }
      ++report.mismatches;
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// The measured passes

/// Per-operation timings of the untraced pass.
struct PassResult {
  std::vector<double> latency_ms;  // request bytes in -> response bytes out
  std::vector<double> done_s;      // completion time since the pass began
};

/// The untraced closed loop: bytes in, service, bytes out, then check.
PassResult RunPass(const Inputs& in, const Stacks& stacks, Checker* checker) {
  PassResult r;
  r.latency_ms.assign(in.ops.size(), 0.0);
  r.done_s.assign(in.ops.size(), 0.0);
  net::HttpRequestParser parser;
  const auto start = Clock::now();
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    const auto t0 = Clock::now();
    if (parser.Consume(op.bytes) != net::HttpRequestParser::State::kComplete) {
      checker->Fail("request did not parse", i);
      parser.Reset();
      continue;
    }
    const net::HttpRequest& request = parser.request();
    net::SearchService& service = *stacks.For(op)->service;
    const net::HttpResponse response = op.write
                                           ? service.HandleAddDocument(request)
                                           : service.HandleSearch(request);
    const std::string wire =
        net::SerializeResponse(response, request.KeepAlive());
    const auto t1 = Clock::now();
    parser.Reset();
    r.latency_ms[i] = Seconds(t0, t1) * 1e3;
    checker->Check(op, i, wire);
    r.done_s[i] = Seconds(start, Clock::now());
  }
  return r;
}

/// Per-layer time sums of the traced pass, seconds.
struct LayerTimes {
  double parse = 0, decode = 0, engine = 0, encode = 0, serialize = 0;
  double Sum() const { return parse + decode + engine + encode + serialize; }
};

struct TracedResult {
  double wall_s = 0;
  double request_s = 0;  // per-request wall time, summed
  LayerTimes reads, writes;
  double nlp_s = 0, ne_s = 0, ns_s = 0;
  uint64_t response_bytes = 0;
};

/// The traced pass: the same operations, each layer called directly (as
/// SearchService does) with a timer around it.
TracedResult RunTracedPass(const Inputs& in, const Stacks& stacks,
                           Checker* checker) {
  TracedResult r;
  net::HttpRequestParser parser;
  const auto start = Clock::now();
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    Serving* s = stacks.For(op);
    LayerTimes& layers = op.write ? r.writes : r.reads;
    const auto t0 = Clock::now();
    const net::HttpRequestParser::State state = parser.Consume(op.bytes);
    const auto t1 = Clock::now();
    if (state != net::HttpRequestParser::State::kComplete) {
      checker->Fail("request did not parse", i);
      parser.Reset();
      continue;
    }
    const net::HttpRequest& request = parser.request();
    net::HttpResponse response;
    Clock::time_point t2, t3, t4;
    if (op.write) {
      Result<json::Value> body = net::DecodeEnvelope(request.body);
      Result<corpus::Document> doc =
          body.ok() ? net::DocumentFromJson(*body)
                    : Result<corpus::Document>(body.status());
      t2 = Clock::now();
      NL_CHECK(doc.ok()) << doc.status().ToString();
      s->corpus.Add(*doc);
      const size_t doc_index = s->engine->AddDocument(*doc);
      t3 = Clock::now();
      json::Value out = json::Value::Object();
      out.Set("doc_index", json::Value::Uint(doc_index));
      out.Set("doc_id", json::Value::Str(doc->id));
      out.Set("epoch", json::Value::Uint(static_cast<uint64_t>(
                           s->engine->Metrics().GaugeValue(kCurrentEpoch))));
      response.status = 201;
      response.body = out.Dump();
      response.body.push_back('\n');
      t4 = Clock::now();
    } else {
      Result<net::SearchEnvelope> envelope =
          net::DecodeSearchEnvelope(request.body, 64);
      t2 = Clock::now();
      NL_CHECK(envelope.ok()) << envelope.status().ToString();
      // Search fills SearchResponse::timings (its nlp/ne/ns split) on every
      // call; the request keeps trace off so the encoded body is exactly
      // the one the untraced pass produces.
      const baselines::SearchResponse result =
          s->engine->Search(envelope->requests.front());
      t3 = Clock::now();
      response.body =
          net::SearchResponseToJson(result, &s->corpus, &in.kg.graph).Dump();
      response.body.push_back('\n');
      t4 = Clock::now();
      r.nlp_s += result.timings.TotalSeconds("nlp");
      r.ne_s += result.timings.TotalSeconds("ne");
      r.ns_s += result.timings.TotalSeconds("ns");
    }
    const std::string wire =
        net::SerializeResponse(response, request.KeepAlive());
    const auto t5 = Clock::now();
    parser.Reset();
    layers.parse += Seconds(t0, t1);
    layers.decode += Seconds(t1, t2);
    layers.engine += Seconds(t2, t3);
    layers.encode += Seconds(t3, t4);
    layers.serialize += Seconds(t4, t5);
    if (!op.write) r.response_bytes += wire.size();
    r.request_s += Seconds(t0, Clock::now());
    checker->Check(op, i, wire);
  }
  r.wall_s = Seconds(start, Clock::now());
  return r;
}

// ---------------------------------------------------------------------------
// Reporting

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// End-to-end figures of one untraced pass.
struct EndToEnd {
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double write_p50_ms = 0;
  double write_p99_ms = 0;
  std::vector<double> block_rps;
};

/// Throughput and read p99 are medians over kBlocks consecutive blocks of
/// the operation stream, so a burst of interference on a shared machine
/// moves one block rather than the figure; every block still has more than
/// ten reads beyond its p99. p50 and the write percentiles are taken over
/// every operation of their kind.
constexpr size_t kBlocks = 9;

EndToEnd Summarize(const Inputs& in, const PassResult& r) {
  std::vector<double> reads, writes, block_rps, block_p99;
  for (size_t b = 0; b < kBlocks; ++b) {
    const size_t lo = in.ops.size() * b / kBlocks;
    const size_t hi = in.ops.size() * (b + 1) / kBlocks;
    const double begin = lo == 0 ? 0.0 : r.done_s[lo - 1];
    block_rps.push_back((hi - lo) / (r.done_s[hi - 1] - begin));
    std::vector<double> block_reads;
    for (size_t i = lo; i < hi; ++i) {
      if (!in.ops[i].write) block_reads.push_back(r.latency_ms[i]);
    }
    block_p99.push_back(Percentile(block_reads, 0.99));
  }
  for (size_t i = 0; i < in.ops.size(); ++i) {
    (in.ops[i].write ? writes : reads).push_back(r.latency_ms[i]);
  }
  EndToEnd e;
  e.block_rps = block_rps;
  e.throughput_rps = Median(block_rps);
  e.p50_ms = Percentile(reads, 0.50);
  e.p99_ms = Median(block_p99);
  e.write_p50_ms = Percentile(writes, 0.50);
  e.write_p99_ms = Percentile(writes, 0.99);
  return e;
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

class MetricsOut {
 public:
  void Add(std::string name, double value, std::string unit) {
    json::Value m = json::Value::Object();
    m.Set("value", json::Value::Number(value));
    m.Set("unit", json::Value::Str(unit));
    metrics_.Set(name, std::move(m));
  }
  json::Value Take() { return std::move(metrics_); }

 private:
  json::Value metrics_ = json::Value::Object();
};

/// Counter and histogram readings summed over the serving engines, for
/// deltas over a pass.
struct CounterSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<double, uint64_t>> histograms;

  static CounterSnapshot Of(const Stacks& stacks) {
    CounterSnapshot s;
    for (const NewsLinkEngine* engine : stacks.Engines()) {
      const metrics::Registry& m = engine->Metrics();
      for (std::string_view name :
           {embed::kLcagCacheHits, embed::kLcagCacheMisses,
            embed::kEmbedderSketchHits, embed::kEmbedderSketchFallbacks,
            embed::kEmbedderBudgetExhausted, kBowDocsScored, kBonDocsScored,
            kBowBlocksSkipped, kEpochsPublished}) {
        s.counters[std::string(name)] += m.CounterValue(name);
      }
      for (std::string_view name :
           {kIndexNlpSeconds, kIndexNeSeconds, kIndexNsSeconds}) {
        const metrics::Histogram* h = m.FindHistogram(name);
        auto& [sum, count] = s.histograms[std::string(name)];
        sum += h ? h->Sum() : 0.0;
        count += h ? h->Count() : 0;
      }
    }
    return s;
  }

  uint64_t Delta(const CounterSnapshot& before, std::string_view name) const {
    const std::string key(name);
    return counters.at(key) - before.counters.at(key);
  }

  /// Mean microseconds per observation added since `before`.
  double MeanUs(const CounterSnapshot& before, std::string_view name) const {
    const std::string key(name);
    const auto& [sum, count] = histograms.at(key);
    const auto& [sum0, count0] = before.histograms.at(key);
    return count > count0 ? (sum - sum0) / (count - count0) * 1e6 : 0.0;
  }
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string error;
  if (!ParseOptions(argc, argv, &o, &error)) {
    std::fprintf(stderr, "wirebench: %s\n", error.c_str());
    return 2;
  }
  const Scale scale = ScaleFor(o);

  const auto gen_start = Clock::now();
  Inputs in;
  MakeInputs(o, scale, &in);
  const double gen_s = Seconds(gen_start, Clock::now());
  const std::string snapshot_path =
      StrCat(o.work_dir, "/wirebench-", getpid(), ".snapshot");

  // Set-up, several times; the last engine(s) serve the measured passes.
  // With --trace 1 the second-to-last engine runs the untraced pass and the
  // last one the traced pass, so both start from the same cold state.
  std::vector<SetupTimes> setups;
  Stacks stacks;
  PassResult untraced;
  Checker checker;
  checker.base_docs = in.corpus.size();
  checker.shared_writes = in.shared_writes;
  const int reps = std::max(scale.setup_reps, o.trace ? 2 : 1);
  for (int rep = 0; rep < reps; ++rep) {
    stacks = Stacks{};  // destroy the previous serving engines first
    SetupTimes times;
    stacks = Setup(in, snapshot_path, &times);
    setups.push_back(times);
    if (o.trace && rep == reps - 2) {
      untraced = RunPass(in, stacks, &checker);
    }
  }

  const CounterSnapshot before = CounterSnapshot::Of(stacks);
  Checker traced_checker;
  traced_checker.base_docs = in.corpus.size();
  traced_checker.shared_writes = in.shared_writes;
  Checker& run_checker = o.trace ? traced_checker : checker;
  PassResult measured;
  TracedResult traced;

  if (o.trace) {
    traced = RunTracedPass(in, stacks, &traced_checker);
  } else {
    measured = RunPass(in, stacks, &checker);
  }
  const double rss_mb = RssMb();

  const CounterSnapshot after = CounterSnapshot::Of(stacks);

  // Post-run checks: every write acknowledged, the engines hold exactly the
  // documents they were sent, and the sampled answers agree with the
  // in-process Search and the exhaustive oracle.
  size_t failed = checker.failed + (o.trace ? traced_checker.failed : 0);
  for (const Checker* c : {&checker, &traced_checker}) {
    if (c == &traced_checker && !o.trace) continue;
    if (c->acked_writes != in.writes) {
      std::fprintf(stderr, "acknowledged %zu of %zu writes\n", c->acked_writes,
                   in.writes);
      ++failed;
    }
  }
  const size_t written = stacks.Writes()->engine->num_indexed_docs();
  const size_t read = stacks.reader->engine->num_indexed_docs();
  if (written != in.corpus.size() + in.writes ||
      read != in.corpus.size() + (in.shared_writes ? in.writes : 0)) {
    std::fprintf(stderr, "engines hold %zu / %zu documents\n", read, written);
    ++failed;
  }
  const OracleReport oracle =
      CheckOracle(in, stacks.reader.get(), scale.oracle_queries, o.seed);
  failed += oracle.mismatches;
  if (o.trace && checker.digest.value != traced_checker.digest.value) {
    std::fprintf(stderr, "traced and untraced passes answered differently\n");
    ++failed;
  }

  std::vector<double> setup_total, build, save, load;
  for (const SetupTimes& t : setups) {
    setup_total.push_back(t.total_s);
    build.push_back(t.build_s);
    save.push_back(t.save_s);
    load.push_back(t.load_s);
  }

  MetricsOut metrics;
  EndToEnd e;
  if (!o.trace) {
    metrics.Add("setup_s", Median(setup_total), "s");
    metrics.Add("rss_mb", rss_mb, "MB");
    e = Summarize(in, measured);
    metrics.Add("throughput_rps", e.throughput_rps, "1/s");
    metrics.Add("p50_ms", e.p50_ms, "ms");
    metrics.Add("p99_ms", e.p99_ms, "ms");
    metrics.Add("write_p50_ms", e.write_p50_ms, "ms");
    metrics.Add("write_p99_ms", e.write_p99_ms, "ms");
  } else {
    const double reads = static_cast<double>(in.reads);
    const double writes = static_cast<double>(in.writes);
    const LayerTimes& rd = traced.reads;
    const LayerTimes& wr = traced.writes;
    const uint64_t cache_hits = after.Delta(before, embed::kLcagCacheHits);
    const uint64_t cache_misses = after.Delta(before, embed::kLcagCacheMisses);
    const uint64_t sketch_hits =
        after.Delta(before, embed::kEmbedderSketchHits);
    const uint64_t sketch_fallbacks =
        after.Delta(before, embed::kEmbedderSketchFallbacks);
    metrics.Add("net.parse_us", rd.parse / reads * 1e6, "us");
    metrics.Add("net.decode_us", rd.decode / reads * 1e6, "us");
    metrics.Add("net.encode_us", rd.encode / reads * 1e6, "us");
    metrics.Add("net.serialize_us", rd.serialize / reads * 1e6, "us");
    metrics.Add("net.response_bytes",
                static_cast<double>(traced.response_bytes) / reads, "bytes");
    metrics.Add("net.write_parse_us", wr.parse / writes * 1e6, "us");
    metrics.Add("net.write_decode_us", wr.decode / writes * 1e6, "us");
    metrics.Add("net.write_encode_us",
                (wr.encode + wr.serialize) / writes * 1e6, "us");
    metrics.Add("text.nlp_us", traced.nlp_s / reads * 1e6, "us");
    metrics.Add("text.index_nlp_us_per_doc",
                after.MeanUs(before, kIndexNlpSeconds), "us");
    metrics.Add("embed.ne_us", traced.ne_s / reads * 1e6, "us");
    metrics.Add("embed.index_ne_us_per_doc",
                after.MeanUs(before, kIndexNeSeconds), "us");
    metrics.Add("embed.lcag_cache_hit_ratio",
                Ratio(cache_hits, cache_hits + cache_misses), "ratio");
    metrics.Add("embed.sketch_hit_ratio",
                Ratio(sketch_hits, sketch_hits + sketch_fallbacks), "ratio");
    metrics.Add("embed.sketch_fallbacks", static_cast<double>(sketch_fallbacks),
                "count");
    metrics.Add("embed.budget_exhausted",
                static_cast<double>(
                    after.Delta(before, embed::kEmbedderBudgetExhausted)),
                "count");
    metrics.Add("ir.ns_us", traced.ns_s / reads * 1e6, "us");
    metrics.Add("ir.index_ns_us_per_doc", after.MeanUs(before, kIndexNsSeconds),
                "us");
    metrics.Add("ir.bow_docs_scored_per_query",
                after.Delta(before, kBowDocsScored) / reads, "count");
    metrics.Add("ir.bon_docs_scored_per_query",
                after.Delta(before, kBonDocsScored) / reads, "count");
    metrics.Add("ir.bow_blocks_skipped_per_query",
                after.Delta(before, kBowBlocksSkipped) / reads, "count");
    metrics.Add("ir.oracle_rank_diffs",
                static_cast<double>(oracle.rank_diffs), "count");
    metrics.Add("ir.oracle_score_bit_diffs",
                static_cast<double>(oracle.score_bit_diffs), "count");
    metrics.Add("newslink.search_us", rd.engine / reads * 1e6, "us");
    metrics.Add("newslink.add_document_us", wr.engine / writes * 1e6, "us");
    metrics.Add("newslink.epochs_published",
                static_cast<double>(after.Delta(before, kEpochsPublished)),
                "count");
    metrics.Add("setup.build_s", Median(build), "s");
    metrics.Add("setup.snapshot_save_s", Median(save), "s");
    metrics.Add("setup.snapshot_load_s", Median(load), "s");
    metrics.Add("setup.snapshot_bytes",
                static_cast<double>(setups.back().snapshot_bytes), "bytes");
    // Untraced / traced throughput over every operation of the two passes.
    metrics.Add("trace.overhead_ratio",
                traced.wall_s / untraced.done_s.back(), "ratio");
    const double coverage = (rd.Sum() + wr.Sum()) / traced.request_s;
    metrics.Add("trace.request_coverage", coverage, "ratio");
    if (coverage < 0.95) {
      std::fprintf(stderr, "layer timers cover only %.3f of request time\n",
                   coverage);
      ++failed;
    }
  }

  json::Value detail = json::Value::Object();
  detail.Set("workload", json::Value::Str(o.workload_name));
  detail.Set("seed", json::Value::Uint(o.seed));
  detail.Set("seconds", json::Value::Int(o.seconds));
  detail.Set("trace", json::Value::Bool(o.trace));
  detail.Set("scale", json::Value::Str(o.small ? "small" : "full"));
  detail.Set("nproc", json::Value::Uint(std::thread::hardware_concurrency()));
  detail.Set("build_type", json::Value::Str(WIREBENCH_BUILD_TYPE));
  detail.Set("compiler", json::Value::Str(WIREBENCH_COMPILER));
  detail.Set("git_sha", json::Value::Str(o.git_sha));
  detail.Set("source_digest", json::Value::Str(o.source_digest));
  detail.Set("kg_nodes", json::Value::Uint(in.kg.graph.num_nodes()));
  detail.Set("kg_edges", json::Value::Uint(in.kg.graph.num_edges()));
  detail.Set("corpus_docs", json::Value::Uint(in.corpus.size()));
  detail.Set("reads", json::Value::Uint(in.reads));
  detail.Set("writes", json::Value::Uint(in.writes));
  json::Value setup_s = json::Value::Array();
  for (double t : setup_total) setup_s.Append(json::Value::Number(t));
  detail.Set("setup_s", std::move(setup_s));

  json::Value block_rps = json::Value::Array();
  for (double t : e.block_rps) block_rps.Append(json::Value::Number(t));
  detail.Set("block_rps", std::move(block_rps));
  detail.Set("oracle_queries", json::Value::Uint(oracle.queries));
  detail.Set("oracle_mismatches", json::Value::Uint(oracle.mismatches));
  detail.Set("oracle_rank_diffs", json::Value::Uint(oracle.rank_diffs));
  detail.Set("oracle_score_bit_diffs",
             json::Value::Uint(oracle.score_bit_diffs));
  detail.Set("input_generation_s", json::Value::Number(gen_s));
  detail.Set("digest", json::Value::Str(StrCat(run_checker.digest.value)));
  std::printf("detail: %s\n", detail.Dump().c_str());

  json::Value result = json::Value::Object();
  result.Set("correct", json::Value::Bool(failed == 0));
  result.Set("attempted", json::Value::Uint(in.ops.size()));
  result.Set("failed", json::Value::Uint(std::min(failed, in.ops.size())));
  result.Set("metrics", metrics.Take());
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
