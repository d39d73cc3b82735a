// newslink_cli — command-line front end for the library.
//
//   newslink_cli generate-kg   <out_prefix> [--seed N] [--countries N]
//       Generate a synthetic KG and write <out_prefix>.{nodes,edges}.tsv.
//
//   newslink_cli generate-corpus <kg_prefix> <out_tsv> [--seed N]
//       [--stories N] [--preset cnn|kaggle|duediligence]
//       Generate a news corpus over an existing KG dump. The duediligence
//       preset anchors every story on an organization (KG dumps keep only
//       coarse entity types, so "company" is approximated by
//       organization-typed anchors) — the analyst scenario bench_explore
//       and the explore REPL are built around.
//
//   newslink_cli build-index <kg_prefix> <corpus_tsv> <out_snapshot>
//       [--snapshot IN] [--reorder] [--sketches]
//       Build the full engine state over the corpus (the expensive NLP/NE
//       pipeline) and persist it as a versioned snapshot. With --snapshot,
//       warm-start from an existing snapshot instead of rebuilding and
//       re-save (a load→save round trip is byte-identical, which CI
//       verifies with cmp). --reorder renumbers internal doc ids by SimHash
//       similarity at build time (better block-max pruning); search results
//       are identical, and the snapshot records the id map, so serving a
//       reordered snapshot needs no flag. --sketches precomputes the LCAG
//       distance-sketch index over the KG (persisted as the "lcag_sketch"
//       section, format v3) so NE answers most entity groups without a
//       graph search; like --reorder, results are bit-identical and a
//       sketch snapshot serves without any flag.
//
//   newslink_cli search <kg_prefix> <corpus_tsv> <query...> [--beta B]
//       [--k N] [--explain] [--trace] [--metrics-out FILE] [--snapshot PATH]
//       [--after-ms T] [--before-ms T] [--recency-half-life SECONDS]
//       Index the corpus — or warm-start from a snapshot — and run one
//       query, optionally with relationship-path explanations, the query's
//       span tree, a metrics dump, a publication-time window [after, before)
//       (epoch ms), and recency-decayed ranking.
//
//   newslink_cli explore <kg_prefix> <corpus_tsv> [--snapshot PATH]
//       [--k N] [--beta B]
//       Interactive roll-up / drill-down REPL over one local engine (the
//       offline twin of POST /v1/explore). Reads commands from stdin, so
//       it pipes:  any plain line starts a session with that query,
//       "d <node-id>" drills into a bucket, "u" rolls up one level,
//       "v" reprints the current view, "q" quits.
//
//   newslink_cli stats <kg_prefix> [<corpus_tsv>] [--query TEXT]
//       [--format prom|json] [--metrics-out FILE] [--snapshot PATH]
//       Without a corpus: structural statistics of a KG dump. With one:
//       index it (optionally run a query) and print the engine's metrics
//       registry — Prometheus text exposition by default, JSON on demand.
//
//   newslink_cli serve <kg_prefix> <corpus_tsv> [--snapshot PATH]
//       [--host ADDR] [--port N] [--workers N] [--max-inflight N]
//       [--port-file PATH] [--shard-index I --shard-count N]
//       Warm-start (or index) and serve the /v1 HTTP API (POST /v1/search,
//       POST /v1/documents, GET /metrics, /healthz, /v1/stats, plus the
//       /v1/shard RPC surface) until SIGINT/SIGTERM, then drain gracefully.
//       --port 0 picks an ephemeral port; --port-file writes the chosen
//       port for scripts to read. With --shard-index/--shard-count the
//       server indexes only corpus rows ≡ I (mod N) — one round-robin
//       shard of the corpus, ready to sit behind a coordinator.
//
//   newslink_cli serve <kg_prefix> --shards host:port,... [--shard-deadline S]
//       [--host ADDR] [--port N] [--workers N] [--max-inflight N]
//       [--port-file PATH]
//       Coordinator mode: no corpus — serve /v1/search by scatter-gather
//       over the listed shard servers (round-robin partition, shard i
//       first in the list), merging with the query pipeline every
//       in-process composition runs. Shards that are down or miss
//       --shard-deadline seconds are dropped from the merge: the response
//       stays HTTP 200 with "degraded": true. /v1/stats reports per-shard
//       health and epochs.
//
// Exit code 0 on success, 1 on usage errors, 2 on I/O failures (including
// corrupt, truncated, or stale snapshots).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "corpus/corpus_io.h"
#include "corpus/synthetic_news.h"
#include "kg/facet_hierarchy.h"
#include "kg/graph_stats.h"
#include "kg/kg_io.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "net/coordinator_service.h"
#include "net/drain.h"
#include "net/http_server.h"
#include "net/search_service.h"
#include "net/shard_client.h"
#include "newslink/explore_engine.h"
#include "newslink/newslink_engine.h"
#include "newslink/shard_api.h"

using namespace newslink;

namespace {

/// Minimal flag parsing: --name value pairs after the positional args.
struct Flags {
  std::vector<std::string> positional;
  std::map<std::string, std::string> named;

  bool Has(const std::string& name) const { return named.contains(name); }
  std::string Get(const std::string& name, std::string fallback) const {
    auto it = named.find(name);
    return it == named.end() ? fallback : it->second;
  }
  uint64_t GetInt(const std::string& name, uint64_t fallback) const {
    auto it = named.find(name);
    return it == named.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = named.find(name);
    return it == named.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
  }
};

/// Flags that take no value.
bool IsBooleanFlag(const std::string& name) {
  return name == "explain" || name == "trace" || name == "reorder" ||
         name == "sketches";
}

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--")) {
      const std::string name = arg.substr(2);
      if (IsBooleanFlag(name)) {
        flags.named[name] = "true";
      } else if (i + 1 < argc) {
        flags.named[name] = argv[++i];
      } else {
        std::fprintf(stderr, "flag %s needs a value\n", arg.c_str());
      }
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  newslink_cli generate-kg <out_prefix> [--seed N] [--countries N]\n"
      "  newslink_cli generate-corpus <kg_prefix> <out_tsv> [--seed N]\n"
      "               [--stories N] [--preset cnn|kaggle|duediligence]\n"
      "  newslink_cli build-index <kg_prefix> <corpus_tsv> <out_snapshot>\n"
      "               [--snapshot IN] [--reorder] [--sketches]\n"
      "  newslink_cli search <kg_prefix> <corpus_tsv> <query...> [--beta B]\n"
      "               [--k N] [--explain] [--trace] [--metrics-out FILE]\n"
      "               [--snapshot PATH] [--after-ms T] [--before-ms T]\n"
      "               [--recency-half-life SECONDS]\n"
      "  newslink_cli explore <kg_prefix> <corpus_tsv> [--snapshot PATH]\n"
      "               [--k N] [--beta B]\n"
      "  newslink_cli stats <kg_prefix> [<corpus_tsv>] [--query TEXT]\n"
      "               [--format prom|json] [--metrics-out FILE]\n"
      "               [--snapshot PATH]\n"
      "  newslink_cli serve <kg_prefix> <corpus_tsv> [--snapshot PATH]\n"
      "               [--host ADDR] [--port N] [--workers N]\n"
      "               [--max-inflight N] [--port-file PATH]\n"
      "               [--shard-index I --shard-count N]\n"
      "  newslink_cli serve <kg_prefix> --shards host:port,...\n"
      "               [--shard-deadline S] [--host ADDR] [--port N]\n"
      "               [--workers N] [--max-inflight N] [--port-file PATH]\n");
  return 1;
}

/// Chained fingerprint of the whole corpus, matching what an engine that
/// indexed these documents in order would report.
uint64_t CorpusFingerprintOf(const corpus::Corpus& docs) {
  uint64_t fp = 0;
  for (const corpus::Document& doc : docs.docs()) {
    fp = corpus::ChainCorpusFingerprint(fp, doc);
  }
  return fp;
}

/// Populate an empty engine: warm-start from `snapshot_path` when given
/// (verifying the snapshot's corpus fingerprint against the loaded corpus,
/// so a snapshot of a *different* corpus is rejected, not served), else run
/// the full indexing pipeline. Returns 0 or the process exit code.
int PopulateEngine(NewsLinkEngine* engine, const corpus::Corpus& docs,
                   const std::string& snapshot_path) {
  if (snapshot_path.empty()) {
    const Status status = engine->Index(docs);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 2;
    }
    return 0;
  }
  const Status status = engine->LoadSnapshot(snapshot_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  if (engine->num_indexed_docs() != docs.size() ||
      engine->corpus_fingerprint() != CorpusFingerprintOf(docs)) {
    std::fprintf(stderr,
                 "snapshot %s does not match the corpus (stale snapshot? "
                 "rebuild with build-index)\n",
                 snapshot_path.c_str());
    return 2;
  }
  return 0;
}

/// Render the engine's registry in the requested format ("prom" | "json").
std::string RenderMetrics(const NewsLinkEngine& engine,
                          const std::string& format) {
  return format == "json" ? engine.Metrics().RenderJson()
                          : engine.Metrics().RenderPrometheus();
}

/// Write a metrics dump to `path` (the extension does not matter; the
/// --format flag picks the exposition).
int WriteMetricsFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return 0;
}

int GenerateKg(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  kg::SyntheticKgConfig config;
  config.seed = flags.GetInt("seed", 7);
  config.num_countries =
      static_cast<int>(flags.GetInt("countries", config.num_countries));
  const kg::SyntheticKg world = kg::SyntheticKgGenerator(config).Generate();
  const Status status = kg::SaveTsv(world.graph, flags.positional[0]);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  std::printf("wrote %zu nodes / %zu edges to %s.{nodes,edges}.tsv\n",
              world.graph.num_nodes(), world.graph.num_edges(),
              flags.positional[0].c_str());
  return 0;
}

int GenerateCorpus(const Flags& flags) {
  if (flags.positional.size() < 2) return Usage();
  Result<kg::KnowledgeGraph> graph = kg::LoadTsv(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 2;
  }
  // Rebuild the SyntheticKg wrapper pieces the generator needs: the corpus
  // generator only uses `graph` and `story_anchors`; treat every node with
  // out-degree >= 2 as anchor-worthy.
  kg::SyntheticKg world;
  world.graph = std::move(graph).value();
  for (kg::NodeId v = 0; v < world.graph.num_nodes(); ++v) {
    if (world.graph.Degree(v) >= 2) {
      world.story_anchors.push_back(v);
      // TSV dumps keep only the coarse EntityType, not the generator's
      // fine-grained categories; organization-typed anchors stand in for
      // the duediligence preset's "company" pool.
      if (world.graph.type(v) == kg::EntityType::kOrganization) {
        world.categories["company"].push_back(v);
      }
    }
  }

  const std::string preset = flags.Get("preset", "cnn");
  corpus::SyntheticNewsConfig config =
      preset == "kaggle"        ? corpus::KaggleLikeConfig()
      : preset == "duediligence" ? corpus::DueDiligenceConfig()
                                 : corpus::CnnLikeConfig();
  config.seed = flags.GetInt("seed", config.seed);
  config.num_stories =
      static_cast<int>(flags.GetInt("stories", config.num_stories));
  const corpus::SyntheticCorpus news =
      corpus::SyntheticNewsGenerator(&world, config).Generate("doc");
  const Status status = corpus::SaveTsv(news.corpus, flags.positional[1]);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  std::printf("wrote %zu documents to %s\n", news.corpus.size(),
              flags.positional[1].c_str());
  return 0;
}

int BuildIndexCmd(const Flags& flags) {
  if (flags.positional.size() < 3) return Usage();
  Result<kg::KnowledgeGraph> graph = kg::LoadTsv(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 2;
  }
  Result<corpus::Corpus> docs = corpus::LoadTsv(flags.positional[1]);
  if (!docs.ok()) {
    std::fprintf(stderr, "%s\n", docs.status().ToString().c_str());
    return 2;
  }
  kg::LabelIndex labels(*graph);
  NewsLinkConfig config;
  config.reorder_docs = flags.Has("reorder");
  config.lcag_sketch.enabled = flags.Has("sketches");
  NewsLinkEngine engine(&*graph, &labels, config);
  WallTimer timer;
  const int rc = PopulateEngine(&engine, *docs, flags.Get("snapshot", ""));
  if (rc != 0) return rc;
  const double populate_seconds = timer.ElapsedSeconds();
  const Status status = engine.SaveSnapshot(flags.positional[2]);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  std::printf("%s %zu docs in %.3fs; snapshot written to %s\n",
              flags.Has("snapshot") ? "loaded" : "indexed", docs->size(),
              populate_seconds, flags.positional[2].c_str());
  return 0;
}

/// Start `server`, write the port file, announce readiness, wait for
/// SIGINT/SIGTERM, drain. Shared by single-engine and coordinator serving.
int RunServer(const Flags& flags, net::HttpServer* server,
              const std::string& bind_address, const std::string& summary) {
  const Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 2;
  }
  if (flags.Has("port-file")) {
    const int rc = WriteMetricsFile(flags.Get("port-file", ""),
                                    StrCat(server->port(), "\n"));
    if (rc != 0) return rc;
  }
  std::fprintf(stderr, "ready (%s); serving http://%s:%u/v1/search\n",
               summary.c_str(), bind_address.c_str(), server->port());

  net::DrainSignal::Instance().Wait();
  std::fprintf(stderr, "draining...\n");
  server->Shutdown();
  std::fprintf(stderr, "drained\n");
  return 0;
}

/// Coordinator mode: no corpus, scatter-gather over --shards.
int ServeCoordinator(const Flags& flags, const kg::KnowledgeGraph& graph,
                     const kg::LabelIndex& labels) {
  const std::vector<std::string> addresses =
      Split(flags.Get("shards", ""), ',');
  const size_t num_shards = addresses.size();
  const double shard_deadline = flags.GetDouble(
      "shard-deadline", net::ShardClient::kDefaultDeadlineSeconds);
  std::vector<std::unique_ptr<net::ShardClient>> shards;
  for (const std::string& address : addresses) {
    const std::vector<std::string> parts = Split(address, ':');
    const uint64_t port =
        parts.size() == 2 ? std::strtoull(parts[1].c_str(), nullptr, 10) : 0;
    if (parts.size() != 2 || parts[0].empty() || port == 0 || port > 65535) {
      std::fprintf(stderr, "--shards entry \"%s\" is not host:port\n",
                   address.c_str());
      return 1;
    }
    shards.push_back(std::make_unique<net::ShardClient>(
        shards.size(), num_shards, parts[0], static_cast<uint16_t>(port),
        shard_deadline));
  }
  if (shards.empty()) {
    std::fprintf(stderr, "--shards needs at least one host:port\n");
    return 1;
  }

  // The prep engine never indexes: it only runs the per-query NLP/NE
  // pipeline and hosts the coordinator's metrics registry.
  const NewsLinkConfig config;
  NewsLinkEngine prep(&graph, &labels, config);

  const Status installed = net::DrainSignal::Instance().Install();
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n", installed.ToString().c_str());
    return 2;
  }

  net::CoordinatorOptions options;
  options.max_inflight_searches =
      flags.GetInt("max-inflight", options.max_inflight_searches);
  net::CoordinatorService service(&prep, config, std::move(shards), options);

  net::HttpServerOptions server_options;
  server_options.bind_address = flags.Get("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(flags.GetInt("port", 8080));
  server_options.num_workers = flags.GetInt("workers", 8);
  net::HttpServer server(server_options, prep.mutable_metrics());
  service.RegisterRoutes(&server);
  return RunServer(flags, &server, server_options.bind_address,
                   StrCat("coordinator over ", num_shards, " shards"));
}

int ServeCmd(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  Result<kg::KnowledgeGraph> graph = kg::LoadTsv(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 2;
  }
  kg::LabelIndex labels(*graph);
  if (flags.Has("shards")) return ServeCoordinator(flags, *graph, labels);

  if (flags.positional.size() < 2) return Usage();
  Result<corpus::Corpus> docs = corpus::LoadTsv(flags.positional[1]);
  if (!docs.ok()) {
    std::fprintf(stderr, "%s\n", docs.status().ToString().c_str());
    return 2;
  }
  // Shard-slice mode: keep only rows ≡ shard-index (mod shard-count) — the
  // round-robin partition (ShardRows) a coordinator's merge assumes. A
  // snapshot given with --snapshot must then be a snapshot OF THE SLICE
  // (its fingerprint is checked against the sliced corpus).
  if (flags.Has("shard-count")) {
    const uint64_t count = flags.GetInt("shard-count", 1);
    const uint64_t index = flags.GetInt("shard-index", 0);
    // ShardRows holds 32-bit rows: a wider count would wrap.
    if (count == 0 || count > std::numeric_limits<uint32_t>::max() ||
        index >= count) {
      std::fprintf(stderr, "--shard-index %llu with --shard-count %llu\n",
                   static_cast<unsigned long long>(index),
                   static_cast<unsigned long long>(count));
      return 1;
    }
    *docs = ShardRows::RoundRobin(index, count).Slice(*docs);
  }
  NewsLinkEngine engine(&*graph, &labels, NewsLinkConfig{});
  const int rc = PopulateEngine(&engine, *docs, flags.Get("snapshot", ""));
  if (rc != 0) return rc;

  // Install the signal latch before the server starts so a SIGTERM racing
  // startup still drains instead of killing the process mid-listen.
  const Status installed = net::DrainSignal::Instance().Install();
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n", installed.ToString().c_str());
    return 2;
  }

  net::SearchServiceOptions service_options;
  service_options.max_inflight_searches =
      flags.GetInt("max-inflight", service_options.max_inflight_searches);
  net::SearchService service(&engine, &*docs, &*graph, service_options);

  // Exploration rides the same server: facet forest over the served KG,
  // sessions over the served engine. Both live on this frame until drain.
  kg::FacetHierarchy hierarchy(&*graph);
  ExploreEngine explore(&engine, &hierarchy);
  service.AttachExplore(&explore);

  net::HttpServerOptions server_options;
  server_options.bind_address = flags.Get("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(flags.GetInt("port", 8080));
  server_options.num_workers = flags.GetInt("workers", 8);
  net::HttpServer server(server_options, engine.mutable_metrics());
  service.RegisterRoutes(&server);
  return RunServer(flags, &server, server_options.bind_address,
                   StrCat(engine.num_indexed_docs(), " docs"));
}

int SearchCmd(const Flags& flags) {
  if (flags.positional.size() < 3) return Usage();
  Result<kg::KnowledgeGraph> graph = kg::LoadTsv(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 2;
  }
  Result<corpus::Corpus> docs = corpus::LoadTsv(flags.positional[1]);
  if (!docs.ok()) {
    std::fprintf(stderr, "%s\n", docs.status().ToString().c_str());
    return 2;
  }
  std::string query;
  for (size_t i = 2; i < flags.positional.size(); ++i) {
    if (i > 2) query += " ";
    query += flags.positional[i];
  }

  kg::LabelIndex labels(*graph);
  NewsLinkEngine engine(&*graph, &labels, NewsLinkConfig{});
  const int rc = PopulateEngine(&engine, *docs, flags.Get("snapshot", ""));
  if (rc != 0) return rc;
  std::printf("%s %zu docs (%.1f%% embedded); query: %s\n\n",
              flags.Has("snapshot") ? "loaded" : "indexed", docs->size(),
              100.0 * engine.EmbeddedDocumentFraction(), query.c_str());

  // All query knobs are per-request: the indexed engine itself is never
  // reconfigured, so repeated searches with different β reuse the indexes.
  baselines::SearchRequest request;
  request.query = query;
  request.k = flags.GetInt("k", 5);
  request.beta = flags.GetDouble("beta", 0.2);
  // Time-aware knobs (DESIGN.md Sec. 15): a half-open publication window
  // pushed into retrieval and/or recency decay fused into the ranking.
  if (flags.Has("after-ms") || flags.Has("before-ms")) {
    baselines::TimeRange range;
    range.after_ms = static_cast<int64_t>(flags.GetInt("after-ms", 0));
    if (flags.Has("before-ms")) {
      range.before_ms = static_cast<int64_t>(flags.GetInt("before-ms", 0));
    }
    request.time_range = range;
  }
  if (flags.Has("recency-half-life")) {
    request.recency_half_life_seconds =
        flags.GetDouble("recency-half-life", 0.0);
  }
  request.explain = flags.Has("explain");
  request.max_paths_per_result = 4;
  request.trace = flags.Has("trace");
  const baselines::SearchResponse response = engine.Search(request);
  for (const baselines::SearchHit& hit : response.hits) {
    const corpus::Document& d = docs->doc(hit.doc_index);
    std::printf("[%6.3f] %s  %.80s...\n", hit.score, d.id.c_str(),
                d.text.c_str());
    for (const embed::RelationshipPath& p : hit.paths) {
      std::printf("         why: %s\n", p.Render(*graph).c_str());
    }
  }
  if (request.trace) {
    std::printf("\ntrace: %s\n", response.trace.ToJson().c_str());
  }
  if (flags.Has("metrics-out")) {
    const int rc = WriteMetricsFile(
        flags.Get("metrics-out", ""),
        RenderMetrics(engine, flags.Get("format", "prom")));
    if (rc != 0) return rc;
  }
  return 0;
}

/// Print one exploration view: scope path, then one line per bucket.
void PrintExploreView(const ExploreResult& view, const kg::KnowledgeGraph& graph,
                      const corpus::Corpus& docs) {
  std::string scope = "(top)";
  for (const kg::NodeId v : view.scope) {
    scope = view.scope.front() == v ? std::string(graph.label(v))
                                    : StrCat(scope, " > ", graph.label(v));
  }
  std::printf("session %s | epoch %llu | %zu hits | scope: %s\n",
              view.session_id.c_str(),
              static_cast<unsigned long long>(view.epoch), view.total_hits,
              scope.c_str());
  for (const ExploreBucket& bucket : view.buckets) {
    if (bucket.other()) {
      std::printf("  [other ] %4zu docs  mass %7.3f\n", bucket.doc_count,
                  bucket.score_mass);
    } else {
      std::printf("  [%6u] %4zu docs  mass %7.3f  %s (%s)\n",
                  static_cast<unsigned>(bucket.node), bucket.doc_count,
                  bucket.score_mass, graph.label(bucket.node).c_str(),
                  kg::EntityTypeName(graph.type(bucket.node)));
    }
    for (const ExploreHit& hit : bucket.top_hits) {
      std::printf("           [%6.3f] %s  %.60s...\n", hit.score,
                  docs.doc(hit.doc_index).id.c_str(),
                  docs.doc(hit.doc_index).text.c_str());
    }
  }
}

int ExploreCmd(const Flags& flags) {
  if (flags.positional.size() < 2) return Usage();
  Result<kg::KnowledgeGraph> graph = kg::LoadTsv(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 2;
  }
  Result<corpus::Corpus> docs = corpus::LoadTsv(flags.positional[1]);
  if (!docs.ok()) {
    std::fprintf(stderr, "%s\n", docs.status().ToString().c_str());
    return 2;
  }
  kg::LabelIndex labels(*graph);
  NewsLinkEngine engine(&*graph, &labels, NewsLinkConfig{});
  const int rc = PopulateEngine(&engine, *docs, flags.Get("snapshot", ""));
  if (rc != 0) return rc;

  kg::FacetHierarchy hierarchy(&*graph);
  ExploreEngine explore(&engine, &hierarchy);
  std::fprintf(stderr,
               "%zu docs indexed. Type a query to start a session; then\n"
               "d <node-id> drills, u rolls up, v reprints, q quits.\n",
               engine.num_indexed_docs());

  std::string session;
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    if (trimmed == "q" || trimmed == "quit") break;

    Result<ExploreResult> view = Status::InvalidArgument("no session yet");
    if (trimmed == "u") {
      if (!session.empty()) view = explore.RollUp(session);
    } else if (trimmed == "v") {
      if (!session.empty()) view = explore.View(session);
    } else if (StartsWith(trimmed, "d ")) {
      if (!session.empty()) {
        view = explore.DrillDown(
            session, static_cast<kg::NodeId>(
                         std::strtoull(trimmed.c_str() + 2, nullptr, 10)));
      }
    } else {
      baselines::SearchRequest request;
      request.query = trimmed;
      request.k = flags.GetInt("k", 0);  // 0 -> options.result_set_size
      if (flags.Has("beta")) request.beta = flags.GetDouble("beta", 0.2);
      view = explore.StartSession(request);
    }
    if (!view.ok()) {
      std::fprintf(stderr, "error: %s\n", view.status().ToString().c_str());
      continue;
    }
    session = view->session_id;
    PrintExploreView(*view, *graph, *docs);
  }
  return 0;
}

int StatsCmd(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  Result<kg::KnowledgeGraph> graph = kg::LoadTsv(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 2;
  }

  if (flags.positional.size() < 2) {
    // KG-only mode: structural statistics of the graph dump.
    const kg::GraphStats stats = kg::ComputeGraphStats(*graph, 8);
    std::printf("nodes: %zu\nedges: %zu\ncomponents: %zu (largest %zu)\n"
                "avg degree: %.2f (max %zu)\nest. mean distance: %.2f\n",
                stats.num_nodes, stats.num_edges, stats.num_components,
                stats.largest_component, stats.average_degree, stats.max_degree,
                stats.estimated_mean_distance);
    return 0;
  }

  // Engine-metrics mode: index the corpus (and run an optional query) so
  // the registry carries real series, then expose it.
  Result<corpus::Corpus> docs = corpus::LoadTsv(flags.positional[1]);
  if (!docs.ok()) {
    std::fprintf(stderr, "%s\n", docs.status().ToString().c_str());
    return 2;
  }
  kg::LabelIndex labels(*graph);
  NewsLinkEngine engine(&*graph, &labels, NewsLinkConfig{});
  const int rc = PopulateEngine(&engine, *docs, flags.Get("snapshot", ""));
  if (rc != 0) return rc;
  if (flags.Has("query")) {
    baselines::SearchRequest request;
    request.query = flags.Get("query", "");
    request.k = flags.GetInt("k", 10);
    engine.Search(request);
  }

  const std::string body = RenderMetrics(engine, flags.Get("format", "prom"));
  std::fputs(body.c_str(), stdout);
  if (flags.Has("metrics-out")) {
    return WriteMetricsFile(flags.Get("metrics-out", ""), body);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags = ParseFlags(argc, argv, 2);
  if (command == "generate-kg") return GenerateKg(flags);
  if (command == "generate-corpus") return GenerateCorpus(flags);
  if (command == "build-index") return BuildIndexCmd(flags);
  if (command == "search") return SearchCmd(flags);
  if (command == "explore") return ExploreCmd(flags);
  if (command == "stats") return StatsCmd(flags);
  if (command == "serve") return ServeCmd(flags);
  return Usage();
}
