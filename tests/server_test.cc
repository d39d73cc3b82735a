// End-to-end tests for the serving subsystem over real loopback sockets:
// /v1/search parity with the in-process engine (hits, scores, paths,
// epoch), live ingestion through /v1/documents, the Prometheus scrape,
// admission control, malformed bodies (4xx — never a crash), routing
// fallbacks, searches racing ingestion, and graceful drain under load.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/logging.h"
#include "corpus/synthetic_news.h"
#include "kg/facet_hierarchy.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "net/api_json.h"
#include "net/drain.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/search_service.h"
#include "newslink/explore_engine.h"
#include "newslink/newslink_engine.h"

namespace newslink {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// A deliberately tiny HTTP client: one request per connection, read to EOF.
// ---------------------------------------------------------------------------

std::string RawExchange(uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::string Request(uint16_t port, const std::string& method,
                    const std::string& target, const std::string& body = "") {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    wire += "Content-Type: application/json\r\n";
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n" + body;
  return RawExchange(port, wire);
}

int StatusOf(const std::string& reply) {
  if (reply.size() < 12 || reply.compare(0, 9, "HTTP/1.1 ") != 0) return -1;
  return std::atoi(reply.c_str() + 9);
}

std::string BodyOf(const std::string& reply) {
  const size_t sep = reply.find("\r\n\r\n");
  return sep == std::string::npos ? "" : reply.substr(sep + 4);
}

json::Value JsonBodyOf(const std::string& reply) {
  Result<json::Value> v = json::Parse(BodyOf(reply));
  EXPECT_TRUE(v.ok()) << v.status().ToString() << "\nreply: " << reply;
  return v.ok() ? std::move(v).value() : json::Value();
}

/// A loopback peer that answers the i-th request head it reads (over all
/// connections) with replies[i], byte for byte — the last reply once they
/// run out — then closes the connection or, when `hold_open`, keeps it
/// open for the next request until the peer is destroyed.
class CannedPeer {
 public:
  CannedPeer(std::vector<std::string> replies, bool hold_open)
      : replies_(std::move(replies)), hold_open_(hold_open) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    NL_CHECK(listen_fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    NL_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0);
    NL_CHECK(::listen(listen_fd_, 4) == 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  CannedPeer(std::string reply, bool hold_open)
      : CannedPeer(std::vector<std::string>{std::move(reply)}, hold_open) {}
  ~CannedPeer() {
    stop_.store(true);
    thread_.join();
    for (const int fd : open_) ::close(fd);
    ::close(listen_fd_);
  }
  CannedPeer(const CannedPeer&) = delete;
  CannedPeer& operator=(const CannedPeer&) = delete;

  uint16_t port() const { return port_; }
  /// Request heads read so far.
  size_t requests() const { return requests_.load(); }

 private:
  void Serve() {
    while (!stop_.load()) {
      std::vector<pollfd> fds = {{listen_fd_, POLLIN, 0}};
      for (const int fd : open_) fds.push_back({fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (size_t i = 1; i < fds.size(); ++i) {
        if (fds[i].revents != 0) Answer(fds[i].fd);
      }
      if (fds[0].revents != 0) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) Answer(fd);
      }
    }
  }

  /// Read one request head from `fd` and answer it; closes `fd` when the
  /// client hung up, or after the reply unless `hold_open`.
  void Answer(int fd) {
    std::erase(open_, fd);
    std::string head;
    char buf[1024];
    while (head.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        ::close(fd);
        return;
      }
      head.append(buf, static_cast<size_t>(n));
    }
    const size_t i = requests_.fetch_add(1);
    const std::string& reply = replies_[std::min(i, replies_.size() - 1)];
    ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    if (hold_open_) {
      open_.push_back(fd);
    } else {
      ::close(fd);
    }
  }

  const std::vector<std::string> replies_;
  const bool hold_open_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> requests_{0};
  std::vector<int> open_;  // touched by thread_ only, until it joins
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Fixture: a small indexed engine behind a loopback server.
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : kg_(MakeKg()), labels_(kg_.graph) {
    corpus::SyntheticNewsConfig config = corpus::CnnLikeConfig();
    config.num_stories = 12;
    news_ = corpus::SyntheticNewsGenerator(&kg_, config).Generate("sv");
    corpus_ = news_.corpus;

    NewsLinkConfig engine_config;
    engine_config.beta = 0.2;
    engine_config.num_threads = 2;
    engine_ = std::make_unique<NewsLinkEngine>(&kg_.graph, &labels_,
                                               engine_config);
    NL_CHECK(engine_->Index(corpus_).ok());
  }

  static kg::SyntheticKg MakeKg() {
    kg::SyntheticKgConfig config;
    config.seed = 909;
    config.num_countries = 2;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  /// Start the /v1 API (search + explore) on an ephemeral loopback port.
  void StartServer(SearchServiceOptions service_options = {},
                   ExploreOptions explore_options = {},
                   HttpServerOptions options = {}) {
    service_ = std::make_unique<SearchService>(engine_.get(), &corpus_,
                                               &kg_.graph, service_options);
    hierarchy_ = std::make_unique<kg::FacetHierarchy>(&kg_.graph);
    explore_ = std::make_unique<ExploreEngine>(engine_.get(), hierarchy_.get(),
                                               explore_options);
    service_->AttachExplore(explore_.get());
    options.port = 0;
    options.num_workers = 4;
    server_ =
        std::make_unique<HttpServer>(options, engine_->mutable_metrics());
    service_->RegisterRoutes(server_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  std::string QueryFor(size_t doc) const {
    const std::string& text = corpus_.doc(doc).text;
    return text.substr(0, text.find('.') + 1);
  }

  kg::SyntheticKg kg_;
  kg::LabelIndex labels_;
  corpus::SyntheticCorpus news_;
  corpus::Corpus corpus_;
  std::unique_ptr<NewsLinkEngine> engine_;
  std::unique_ptr<SearchService> service_;
  std::unique_ptr<kg::FacetHierarchy> hierarchy_;
  std::unique_ptr<ExploreEngine> explore_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerTest, SearchOverSocketMatchesInProcessSearch) {
  StartServer();

  baselines::SearchRequest request;
  request.query = QueryFor(3);
  request.k = 5;
  request.explain = true;
  request.max_paths_per_result = 3;
  const baselines::SearchResponse expected = engine_->Search(request);
  ASSERT_FALSE(expected.hits.empty());

  json::Value wire = json::Value::Object();
  wire.Set("query", json::Value::Str(request.query));
  wire.Set("k", json::Value::Uint(request.k));
  wire.Set("explain", json::Value::Bool(true));
  wire.Set("max_paths", json::Value::Uint(request.max_paths_per_result));
  const std::string reply =
      Request(server_->port(), "POST", "/v1/search", wire.Dump());
  ASSERT_EQ(StatusOf(reply), 200) << reply;

  const json::Value body = JsonBodyOf(reply);
  EXPECT_EQ(body.Find("epoch")->AsUint(), expected.epoch);
  EXPECT_EQ(body.Find("snapshot_docs")->AsUint(), expected.snapshot_docs);
  const json::Value* hits = body.Find("hits");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), expected.hits.size());
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    const json::Value& hit = hits->at(i);
    const baselines::SearchHit& want = expected.hits[i];
    EXPECT_EQ(hit.Find("doc_index")->AsUint(), want.doc_index) << "hit " << i;
    // The writer emits the shortest round-tripping decimal, so the parsed
    // score is bit-identical to the in-process double.
    EXPECT_EQ(hit.Find("score")->AsDouble(), want.score) << "hit " << i;
    EXPECT_EQ(hit.Find("doc_id")->AsString(), corpus_.doc(want.doc_index).id);
    const json::Value* paths = hit.Find("paths");
    if (want.paths.empty()) {
      EXPECT_EQ(paths, nullptr);
    } else {
      ASSERT_NE(paths, nullptr) << "hit " << i;
      ASSERT_EQ(paths->size(), want.paths.size());
      for (size_t p = 0; p < want.paths.size(); ++p) {
        EXPECT_EQ(paths->at(p).Find("rendered")->AsString(),
                  want.paths[p].Render(kg_.graph));
      }
    }
  }
}

TEST_F(ServerTest, BatchedSearchAnswersEveryRequestInOrder) {
  StartServer();
  json::Value batch = json::Value::Array();
  for (size_t d = 0; d < 3; ++d) {
    json::Value one = json::Value::Object();
    one.Set("query", json::Value::Str(QueryFor(d)));
    one.Set("k", json::Value::Uint(4));
    batch.Append(std::move(one));
  }
  const std::string reply =
      Request(server_->port(), "POST", "/v1/search", batch.Dump());
  ASSERT_EQ(StatusOf(reply), 200) << reply;
  const json::Value body = JsonBodyOf(reply);
  ASSERT_TRUE(body.is_array());
  ASSERT_EQ(body.size(), 3u);
  for (size_t d = 0; d < 3; ++d) {
    const baselines::SearchResponse expected =
        engine_->Search({QueryFor(d), 4});
    const json::Value* hits = body.at(d).Find("hits");
    ASSERT_NE(hits, nullptr);
    ASSERT_EQ(hits->size(), expected.hits.size());
    for (size_t i = 0; i < expected.hits.size(); ++i) {
      EXPECT_EQ(hits->at(i).Find("doc_index")->AsUint(),
                expected.hits[i].doc_index);
    }
  }

  // Empty and oversized batches are client errors.
  EXPECT_EQ(StatusOf(Request(server_->port(), "POST", "/v1/search", "[]")),
            400);
}

TEST_F(ServerTest, IngestPublishesNewEpochAndDocBecomesVisible) {
  StartServer();
  const uint64_t epoch_before =
      JsonBodyOf(Request(server_->port(), "GET", "/v1/stats"))
          .Find("epoch")
          ->AsUint();
  const size_t docs_before = corpus_.size();

  json::Value doc = json::Value::Object();
  doc.Set("title", json::Value::Str("Breaking"));
  doc.Set("text", json::Value::Str(corpus_.doc(0).text));
  const std::string reply =
      Request(server_->port(), "POST", "/v1/documents", doc.Dump());
  ASSERT_EQ(StatusOf(reply), 201) << reply;
  const json::Value created = JsonBodyOf(reply);
  EXPECT_EQ(created.Find("doc_index")->AsUint(), docs_before);
  EXPECT_EQ(created.Find("doc_id")->AsString(),
            "live-" + std::to_string(docs_before));
  EXPECT_GT(created.Find("epoch")->AsUint(), epoch_before);

  // The new snapshot must cover the ingested document.
  json::Value probe = json::Value::Object();
  probe.Set("query", json::Value::Str(QueryFor(0)));
  probe.Set("k", json::Value::Uint(3));
  const json::Value search = JsonBodyOf(
      Request(server_->port(), "POST", "/v1/search", probe.Dump()));
  EXPECT_EQ(search.Find("snapshot_docs")->AsUint(), docs_before + 1);
}

TEST_F(ServerTest, TimeAwareSearchShapesOverSockets) {
  StartServer();
  const uint16_t port = server_->port();

  int64_t t_min = std::numeric_limits<int64_t>::max(), t_max = 0;
  for (const corpus::Document& d : corpus_.docs()) {
    t_min = std::min(t_min, d.timestamp_ms);
    t_max = std::max(t_max, d.timestamp_ms);
  }
  ASSERT_GT(t_min, 0);
  const baselines::TimeRange window{t_min, (t_min + t_max) / 2};

  // Grouped shape: ranking + filter objects. Must agree bit-exactly with
  // the in-process engine under the same knobs ("now" is pinned to the
  // snapshot, so wire and in-process recency decay agree).
  baselines::SearchRequest reference;
  reference.query = QueryFor(2);
  reference.k = 8;
  reference.beta = 0.3;
  reference.recency_half_life_seconds = 6 * 3600.0;
  reference.time_range = window;
  const baselines::SearchResponse expected = engine_->Search(reference);

  json::Value ranking = json::Value::Object();
  ranking.Set("beta", json::Value::Number(0.3));
  ranking.Set("recency_half_life_s", json::Value::Number(6 * 3600.0));
  json::Value time_range = json::Value::Object();
  time_range.Set("after_ms",
                 json::Value::Uint(static_cast<uint64_t>(window.after_ms)));
  time_range.Set("before_ms",
                 json::Value::Uint(static_cast<uint64_t>(window.before_ms)));
  json::Value filter = json::Value::Object();
  filter.Set("time_range", std::move(time_range));
  json::Value grouped = json::Value::Object();
  grouped.Set("query", json::Value::Str(reference.query));
  grouped.Set("k", json::Value::Uint(reference.k));
  grouped.Set("ranking", std::move(ranking));
  grouped.Set("filter", std::move(filter));

  const std::string reply =
      Request(port, "POST", "/v1/search", grouped.Dump());
  ASSERT_EQ(StatusOf(reply), 200) << reply;
  const json::Value body = JsonBodyOf(reply);
  const json::Value* hits = body.Find("hits");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), expected.hits.size());
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    EXPECT_EQ(hits->at(i).Find("doc_index")->AsUint(),
              expected.hits[i].doc_index)
        << "hit " << i;
    EXPECT_EQ(hits->at(i).Find("score")->AsDouble(), expected.hits[i].score)
        << "hit " << i;
    EXPECT_TRUE(window.Contains(
        corpus_.doc(expected.hits[i].doc_index).timestamp_ms));
  }

  // The removed flat shape is an unknown field: 400 naming it.
  json::Value legacy = json::Value::Object();
  legacy.Set("query", json::Value::Str(reference.query));
  legacy.Set("k", json::Value::Uint(4));
  legacy.Set("beta", json::Value::Number(0.3));
  const std::string legacy_reply =
      Request(port, "POST", "/v1/search", legacy.Dump());
  EXPECT_EQ(StatusOf(legacy_reply), 400) << legacy_reply;
  EXPECT_NE(BodyOf(legacy_reply).find("unknown search request field"),
            std::string::npos);

  // So is a flat field mixed with the grouped shape.
  json::Value mixed = json::Value::Object();
  mixed.Set("query", json::Value::Str(reference.query));
  mixed.Set("beta", json::Value::Number(0.3));
  json::Value mixed_ranking = json::Value::Object();
  mixed_ranking.Set("beta", json::Value::Number(0.3));
  mixed.Set("ranking", std::move(mixed_ranking));
  const std::string mixed_reply =
      Request(port, "POST", "/v1/search", mixed.Dump());
  EXPECT_EQ(StatusOf(mixed_reply), 400) << mixed_reply;
  EXPECT_NE(BodyOf(mixed_reply).find("unknown search request field"),
            std::string::npos);
}

TEST_F(ServerTest, IngestedTimestampIsFilterableImmediately) {
  StartServer();
  const uint16_t port = server_->port();
  int64_t t_max = 0;
  for (const corpus::Document& d : corpus_.docs()) {
    t_max = std::max(t_max, d.timestamp_ms);
  }
  const int64_t fresh_ts = t_max + 60000;

  json::Value doc = json::Value::Object();
  doc.Set("title", json::Value::Str("Fresh"));
  doc.Set("text", json::Value::Str(corpus_.doc(1).text));
  doc.Set("timestamp_ms", json::Value::Uint(static_cast<uint64_t>(fresh_ts)));
  const std::string created_reply =
      Request(port, "POST", "/v1/documents", doc.Dump());
  ASSERT_EQ(StatusOf(created_reply), 201) << created_reply;
  const uint64_t fresh_row =
      JsonBodyOf(created_reply).Find("doc_index")->AsUint();

  // A window holding only the fresh timestamp surfaces exactly that doc.
  json::Value time_range = json::Value::Object();
  time_range.Set("after_ms",
                 json::Value::Uint(static_cast<uint64_t>(fresh_ts)));
  time_range.Set("before_ms",
                 json::Value::Uint(static_cast<uint64_t>(fresh_ts + 1)));
  json::Value filter = json::Value::Object();
  filter.Set("time_range", std::move(time_range));
  json::Value probe = json::Value::Object();
  probe.Set("query", json::Value::Str(QueryFor(1)));
  probe.Set("k", json::Value::Uint(10));
  probe.Set("filter", std::move(filter));
  const json::Value search =
      JsonBodyOf(Request(port, "POST", "/v1/search", probe.Dump()));
  const json::Value* hits = search.Find("hits");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), 1u) << "window should isolate the ingested doc";
  EXPECT_EQ(hits->at(0).Find("doc_index")->AsUint(), fresh_row);
}

TEST_F(ServerTest, ExploreAcceptsTimeFilter) {
  StartServer();
  const uint16_t port = server_->port();

  json::Value unfiltered = json::Value::Object();
  unfiltered.Set("query", json::Value::Str(QueryFor(2)));
  const json::Value top =
      JsonBodyOf(Request(port, "POST", "/v1/explore", unfiltered.Dump()));
  const uint64_t total = top.Find("total_hits")->AsUint();
  ASSERT_GT(total, 0u);

  // An all-covering window changes nothing; a far-future one empties the
  // result set (still 200 — an empty exploration is not an error).
  json::Value wide_range = json::Value::Object();
  wide_range.Set("after_ms", json::Value::Uint(1));
  json::Value wide_filter = json::Value::Object();
  wide_filter.Set("time_range", std::move(wide_range));
  json::Value wide = json::Value::Object();
  wide.Set("query", json::Value::Str(QueryFor(2)));
  wide.Set("filter", std::move(wide_filter));
  const std::string wide_reply =
      Request(port, "POST", "/v1/explore", wide.Dump());
  ASSERT_EQ(StatusOf(wide_reply), 200) << wide_reply;
  EXPECT_EQ(JsonBodyOf(wide_reply).Find("total_hits")->AsUint(), total);

  json::Value far_range = json::Value::Object();
  far_range.Set("after_ms", json::Value::Uint(9999999999999ull));
  json::Value far_filter = json::Value::Object();
  far_filter.Set("time_range", std::move(far_range));
  json::Value far = json::Value::Object();
  far.Set("query", json::Value::Str(QueryFor(2)));
  far.Set("filter", std::move(far_filter));
  const std::string far_reply =
      Request(port, "POST", "/v1/explore", far.Dump());
  ASSERT_EQ(StatusOf(far_reply), 200) << far_reply;
  EXPECT_EQ(JsonBodyOf(far_reply).Find("total_hits")->AsUint(), 0u);
}

TEST_F(ServerTest, MetricsHealthAndStatsEndpoints) {
  StartServer();
  // Run one query so the engine series are non-trivial.
  json::Value probe = json::Value::Object();
  probe.Set("query", json::Value::Str(QueryFor(1)));
  ASSERT_EQ(StatusOf(Request(server_->port(), "POST", "/v1/search",
                             probe.Dump())),
            200);

  const std::string scrape = Request(server_->port(), "GET", "/metrics");
  EXPECT_EQ(StatusOf(scrape), 200);
  EXPECT_NE(scrape.find("text/plain"), std::string::npos);
  const std::string exposition = BodyOf(scrape);
  EXPECT_NE(exposition.find(std::string(baselines::kEngineQueries)),
            std::string::npos);
  EXPECT_NE(exposition.find(std::string(kHttpRequests)), std::string::npos);

  const json::Value health =
      JsonBodyOf(Request(server_->port(), "GET", "/healthz"));
  EXPECT_EQ(health.Find("status")->AsString(), "ok");

  const json::Value stats =
      JsonBodyOf(Request(server_->port(), "GET", "/v1/stats"));
  EXPECT_EQ(stats.Find("docs")->AsUint(), corpus_.size());
  ASSERT_NE(stats.Find("metrics"), nullptr);
  EXPECT_TRUE(stats.Find("metrics")->is_object());
}

TEST_F(ServerTest, MalformedBodiesAreClientErrorsNotCrashes) {
  StartServer();
  const uint16_t port = server_->port();
  EXPECT_EQ(StatusOf(Request(port, "POST", "/v1/search", "{not json")), 400);
  EXPECT_EQ(StatusOf(Request(port, "POST", "/v1/search", "{}")), 400);
  EXPECT_EQ(StatusOf(Request(port, "POST", "/v1/search",
                             "{\"query\":\"q\",\"zzz\":1}")),
            400);
  EXPECT_EQ(StatusOf(Request(port, "POST", "/v1/documents", "{\"id\":\"x\"}")),
            400);
  EXPECT_EQ(StatusOf(Request(port, "GET", "/nope")), 404);
  EXPECT_EQ(StatusOf(Request(port, "GET", "/v1/search")), 405);
  // Transport-level garbage gets an HTTP error, and the server survives.
  const std::string garbage = RawExchange(port, "]]]]\r\n\r\n");
  EXPECT_GE(StatusOf(garbage), 400);
  EXPECT_EQ(StatusOf(Request(port, "GET", "/healthz")), 200);
}

TEST_F(ServerTest, AdmissionControlShedsLoadWith503) {
  SearchServiceOptions options;
  options.max_inflight_searches = 0;  // reject-all mode
  StartServer(options);
  json::Value probe = json::Value::Object();
  probe.Set("query", json::Value::Str(QueryFor(0)));
  const std::string reply =
      Request(server_->port(), "POST", "/v1/search", probe.Dump());
  EXPECT_EQ(StatusOf(reply), 503) << reply;
  EXPECT_GE(engine_->Metrics().CounterValue(kSearchRejected), 1u);
  // Malformed bodies still cost a 400, not an admission slot.
  EXPECT_EQ(StatusOf(Request(server_->port(), "POST", "/v1/search", "nope")),
            400);
}

TEST_F(ServerTest, ConcurrentSearchesWhileIngesting) {
  StartServer();
  const uint16_t port = server_->port();
  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 6;
  std::atomic<int> failures{0};

  // Every request body is built before any thread starts: ingest appends to
  // corpus_, so reading it (QueryFor, doc texts) from a thread would race
  // with the service's writes.
  std::vector<std::string> doc_bodies;
  for (int d = 0; d < 5; ++d) {
    json::Value doc = json::Value::Object();
    doc.Set("text", json::Value::Str(corpus_.doc(d % 3).text));
    doc_bodies.push_back(doc.Dump());
  }
  std::vector<std::string> probe_bodies;
  for (int d = 0; d < 8; ++d) {
    json::Value probe = json::Value::Object();
    probe.Set("query", json::Value::Str(QueryFor(d)));
    probe.Set("k", json::Value::Uint(5));
    probe_bodies.push_back(probe.Dump());
  }

  std::thread writer([&] {
    for (const std::string& body : doc_bodies) {
      if (StatusOf(Request(port, "POST", "/v1/documents", body)) != 201) {
        failures.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const std::string reply = Request(port, "POST", "/v1/search",
                                          probe_bodies[(t + q) % 8]);
        if (StatusOf(reply) != 200) {
          failures.fetch_add(1);
          continue;
        }
        // Snapshot isolation, observed through the wire: every hit must be
        // covered by the response's own snapshot.
        const json::Value body = JsonBodyOf(reply);
        const uint64_t snapshot_docs = body.Find("snapshot_docs")->AsUint();
        for (const json::Value& hit : body.Find("hits")->items()) {
          if (hit.Find("doc_index")->AsUint() >= snapshot_docs) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerTest, GracefulDrainFinishesInflightThenRefuses) {
  StartServer();
  const uint16_t port = server_->port();

  // Keep a stream of requests in flight while another thread drains.
  std::atomic<bool> stop{false};
  std::atomic<int> ok{0}, refused{0}, broken{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      json::Value probe = json::Value::Object();
      probe.Set("query", json::Value::Str(QueryFor(t)));
      while (!stop.load(std::memory_order_acquire)) {
        const std::string reply =
            Request(port, "POST", "/v1/search", probe.Dump());
        const int status = StatusOf(reply);
        if (status == 200) {
          ok.fetch_add(1);
        } else if (status == 503) {
          refused.fetch_add(1);
        } else {
          // Empty replies are connections the drain already refused.
          broken.fetch_add(1);
        }
      }
    });
  }
  // Let the clients land a few successful queries first.
  while (ok.load() < 3) std::this_thread::yield();

  server_->Shutdown();
  EXPECT_FALSE(server_->running());
  stop.store(true, std::memory_order_release);
  for (std::thread& c : clients) c.join();
  EXPECT_GE(ok.load(), 3);

  // After drain, the port no longer accepts work.
  EXPECT_EQ(StatusOf(Request(port, "GET", "/healthz")), -1);
}

// ---------------------------------------------------------------------------
// POST /v1/explore: the session protocol over real sockets.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, ExploreRollUpDrillDownRollUpOverSockets) {
  StartServer();
  const uint16_t port = server_->port();

  json::Value start = json::Value::Object();
  start.Set("query", json::Value::Str(QueryFor(2)));
  const std::string reply =
      Request(port, "POST", "/v1/explore", start.Dump());
  ASSERT_EQ(StatusOf(reply), 200) << reply;
  const json::Value top = JsonBodyOf(reply);

  const std::string session = top.Find("session")->AsString();
  ASSERT_FALSE(session.empty());
  const uint64_t total = top.Find("total_hits")->AsUint();
  ASSERT_GT(total, 0u);
  EXPECT_EQ(top.Find("scope")->items().size(), 0u);

  // Buckets partition the result set on the wire too.
  const json::Value* buckets = top.Find("buckets");
  ASSERT_NE(buckets, nullptr);
  uint64_t sum = 0;
  uint64_t drill_node = 0;
  uint64_t drill_count = 0;
  bool have_target = false;
  for (const json::Value& bucket : buckets->items()) {
    sum += bucket.Find("doc_count")->AsUint();
    if (!have_target && bucket.Find("entity") != nullptr) {
      drill_node = bucket.Find("entity")->AsUint();
      drill_count = bucket.Find("doc_count")->AsUint();
      have_target = true;
      EXPECT_NE(bucket.Find("label"), nullptr);
    }
  }
  EXPECT_EQ(sum, total);
  ASSERT_TRUE(have_target) << "no drillable bucket in: " << reply;

  // Drill into the first entity bucket: scoped view, same session.
  json::Value drill = json::Value::Object();
  drill.Set("session", json::Value::Str(session));
  drill.Set("drill", json::Value::Uint(drill_node));
  const std::string drilled_reply =
      Request(port, "POST", "/v1/explore", drill.Dump());
  ASSERT_EQ(StatusOf(drilled_reply), 200) << drilled_reply;
  const json::Value drilled = JsonBodyOf(drilled_reply);
  EXPECT_EQ(drilled.Find("session")->AsString(), session);
  EXPECT_EQ(drilled.Find("total_hits")->AsUint(), drill_count);
  ASSERT_EQ(drilled.Find("scope")->items().size(), 1u);
  EXPECT_EQ(drilled.Find("scope")->items()[0].Find("node")->AsUint(),
            drill_node);

  // Roll up: back to the identical top-level view.
  json::Value up = json::Value::Object();
  up.Set("session", json::Value::Str(session));
  up.Set("up", json::Value::Bool(true));
  const std::string up_reply = Request(port, "POST", "/v1/explore", up.Dump());
  ASSERT_EQ(StatusOf(up_reply), 200) << up_reply;
  const json::Value back = JsonBodyOf(up_reply);
  EXPECT_EQ(back.Find("total_hits")->AsUint(), total);
  EXPECT_EQ(back.Find("scope")->items().size(), 0u);
  EXPECT_EQ(back.Find("buckets")->items().size(), buckets->items().size());

  // The session gauge made it into the Prometheus scrape.
  const std::string metrics = Request(port, "GET", "/metrics");
  EXPECT_NE(BodyOf(metrics).find("explore_sessions_active 1"),
            std::string::npos);
}

TEST_F(ServerTest, ExpiredExploreSessionIs404WithUniformErrorShape) {
  ExploreOptions explore_options;
  explore_options.session_ttl_seconds = 0.02;
  StartServer({}, explore_options);
  const uint16_t port = server_->port();

  json::Value start = json::Value::Object();
  start.Set("query", json::Value::Str(QueryFor(1)));
  const json::Value top =
      JsonBodyOf(Request(port, "POST", "/v1/explore", start.Dump()));
  const std::string session = top.Find("session")->AsString();

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  json::Value view = json::Value::Object();
  view.Set("session", json::Value::Str(session));
  const std::string reply =
      Request(port, "POST", "/v1/explore", view.Dump());
  EXPECT_EQ(StatusOf(reply), 404);
  const json::Value body = JsonBodyOf(reply);
  const json::Value* error = body.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->AsString(), "NotFound");
  EXPECT_EQ(error->Find("status")->AsInt(), 404);
  EXPECT_NE(error->Find("message"), nullptr);
}

TEST_F(ServerTest, ApiVersionSkewIs409OnEveryV1Route) {
  StartServer();
  const uint16_t port = server_->port();

  const struct {
    const char* route;
    std::string body;
  } cases[] = {
      {"/v1/search", R"({"query": "q", "api_version": 999})"},
      {"/v1/documents", R"({"id": "d", "text": "t", "api_version": 999})"},
      {"/v1/explore", R"({"query": "q", "api_version": 999})"},
  };
  for (const auto& c : cases) {
    const std::string reply = Request(port, "POST", c.route, c.body);
    EXPECT_EQ(StatusOf(reply), 409) << c.route << ": " << reply;
    const json::Value body = JsonBodyOf(reply);
    const json::Value* error = body.Find("error");
    ASSERT_NE(error, nullptr) << c.route;
    EXPECT_EQ(error->Find("code")->AsString(), "FailedPrecondition");
  }

  // The matching version — and the field-free legacy body — both pass.
  json::Value versioned = json::Value::Object();
  versioned.Set("query", json::Value::Str(QueryFor(0)));
  versioned.Set("api_version", json::Value::Uint(kApiVersion));
  EXPECT_EQ(StatusOf(Request(port, "POST", "/v1/search", versioned.Dump())),
            200);
  json::Value legacy = json::Value::Object();
  legacy.Set("query", json::Value::Str(QueryFor(0)));
  EXPECT_EQ(StatusOf(Request(port, "POST", "/v1/search", legacy.Dump())), 200);
}

// ---------------------------------------------------------------------------
// HttpClient keep-alive: reuse and stale-connection recovery.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, HttpClientReusesConnectionsAndRecoversFromStaleOnes) {
  // A short server-side idle timeout closes parked keep-alive connections
  // SILENTLY (no Connection: close header) — exactly the staleness the
  // client must absorb with its one-reconnect retry.
  HttpServerOptions server_options;
  server_options.read_timeout_seconds = 0.2;
  StartServer({}, {}, server_options);

  HttpClient client("127.0.0.1", server_->port());
  for (int i = 0; i < 3; ++i) {
    Result<HttpClientResponse> response = client.Get("/healthz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }
  // One TCP connection carried all three calls.
  EXPECT_EQ(client.connections_opened(), 1u);
  EXPECT_EQ(client.connection_reuses(), 2u);
  EXPECT_EQ(client.connection_reconnects(), 0u);

  // Let the server's idle timeout reap the parked connection, then call
  // again: the client must detect the stale socket and replay on a fresh
  // one without surfacing an error.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  Result<HttpClientResponse> after = client.Get("/healthz");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->status, 200);
  EXPECT_EQ(client.connections_opened(), 2u);
  EXPECT_EQ(client.connection_reuses(), 3u);
  EXPECT_EQ(client.connection_reconnects(), 1u);

  // POST bodies ride the same pool.
  json::Value probe = json::Value::Object();
  probe.Set("query", json::Value::Str(QueryFor(0)));
  Result<HttpClientResponse> post = client.Post("/v1/search", probe.Dump());
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post->status, 200);
}

TEST_F(ServerTest, HttpClientRejectsAnEmptyContentLength) {
  // "Content-Length:" with no digits is no length at all (the server side
  // answers such a request 400), not a complete empty body whose
  // connection may carry the next call.
  CannedPeer peer("HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\n",
                  /*hold_open=*/true);
  HttpClient client("127.0.0.1", peer.port());
  HttpClientOptions options;
  options.deadline_seconds = 2.0;
  for (int i = 0; i < 2; ++i) {
    const Result<HttpClientResponse> response = client.Get("/healthz", options);
    EXPECT_TRUE(response.status().IsIOError()) << response.status().ToString();
  }
  // Neither connection was parked for reuse.
  EXPECT_EQ(client.connections_opened(), 2u);
  EXPECT_EQ(client.connection_reuses(), 0u);
}

TEST_F(ServerTest, HttpClientRejectsChunkedResponses) {
  // Transfer codings are unsupported, as on the server side (501). A peer
  // that closes after a chunked body must not hand back the raw chunk
  // framing as the body, and one that keeps the connection open must not
  // keep the call waiting for its deadline.
  const std::string chunked =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n";
  for (const bool hold_open : {false, true}) {
    CannedPeer peer(chunked, hold_open);
    HttpClient client("127.0.0.1", peer.port());
    HttpClientOptions options;
    options.deadline_seconds = 2.0;
    for (int i = 0; i < 2; ++i) {
      const Result<HttpClientResponse> response =
          client.Get("/healthz", options);
      EXPECT_TRUE(response.status().IsIOError())
          << "hold_open " << hold_open << ": "
          << response.status().ToString();
    }
    EXPECT_EQ(client.connections_opened(), 2u) << hold_open;
    EXPECT_EQ(client.connection_reuses(), 0u) << hold_open;
  }
}

TEST_F(ServerTest, HttpClientDoesNotReplayARefusedResponse) {
  // A response that arrived on a reused connection but was refused (here
  // chunked) is the peer's answer, not a stale socket: replaying the
  // request on a fresh connection would make the peer serve it twice.
  const std::vector<std::string> replies = {
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n"};
  CannedPeer peer(replies, /*hold_open=*/true);
  HttpClient client("127.0.0.1", peer.port());
  HttpClientOptions options;
  options.deadline_seconds = 2.0;
  const Result<HttpClientResponse> first = client.Get("/healthz", options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->body, "ok");
  const Result<HttpClientResponse> second = client.Get("/healthz", options);
  EXPECT_TRUE(second.status().IsIOError()) << second.status().ToString();
  EXPECT_EQ(client.connection_reuses(), 1u);
  EXPECT_EQ(client.connection_reconnects(), 0u);
  EXPECT_EQ(peer.requests(), 2u);
}

TEST(DrainSignalTest, TriggerUnblocksWaitAndLatches) {
  DrainSignal& drain = DrainSignal::Instance();
  ASSERT_TRUE(drain.Install().ok());
  std::thread waiter([&] { drain.Wait(); });
  drain.Trigger();
  waiter.join();
  EXPECT_TRUE(drain.signaled());
  drain.Wait();  // already signaled: returns immediately
}

}  // namespace
}  // namespace net
}  // namespace newslink
