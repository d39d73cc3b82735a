// Minimal blocking HTTP/1.1 client for the internal shard RPC (DESIGN.md
// Sec. 12). Dependency-free like the rest of src/net: a wall-clock
// deadline covering connect + send + receive, and a strict parser for
// exactly the responses our own HttpServer produces (status line, headers,
// Content-Length-sized or to-EOF body; a Transfer-Encoding or an empty
// Content-Length is an IOError). Not a general browser-grade client on
// purpose — it talks to peers we control.
//
// One entry point, HttpClient: bound to one host:port, it keeps a small
// stack of idle keep-alive connections and reuses them across calls. A
// reused connection can always have gone stale (the server closed it
// between calls — idle timeout, request cap, restart); a transport failure
// on a REUSED connection before any response byte arrived is therefore
// retried exactly once on a fresh connection before surfacing. Reuse /
// reconnect / open counts are exposed for client metrics.

#ifndef NEWSLINK_NET_HTTP_CLIENT_H_
#define NEWSLINK_NET_HTTP_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace newslink {
namespace net {

/// \brief One parsed response: status + body (headers are consumed
/// internally — Content-Length drives the read; nothing else is needed).
struct HttpClientResponse {
  int status = 0;
  std::string body;
};

struct HttpClientOptions {
  /// Whole-call wall-clock budget (connect + send + receive), seconds.
  /// <= 0 means no deadline. Covers the stale-connection retry too.
  double deadline_seconds = 5.0;
  /// Response body ceiling; larger answers are IOError.
  size_t max_body_bytes = 64 * 1024 * 1024;
};

/// \brief Keep-alive client bound to one host:port.
///
/// Thread-safe: concurrent calls each check an idle connection out of the
/// pool (or open a fresh one) and return it when the response arrived
/// cleanly, so N concurrent callers use up to N connections and the pool
/// keeps at most `max_idle` of them warm between calls. A response is only
/// eligible for reuse when it was Content-Length framed and the server did
/// not answer "Connection: close" — read-to-EOF responses consume their
/// connection by definition.
class HttpClient {
 public:
  HttpClient(std::string host, uint16_t port, size_t max_idle = 4);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Blocking request to host:port (dotted-quad or "localhost"). `method`
  /// is "GET" or "POST"; `request_body` is sent with Content-Length (empty
  /// = none). Status codes are returned, not mapped: a 409 from a shard is
  /// a valid protocol answer, not a transport failure. Errors: Timeout when
  /// the deadline cuts connect/read short, IOError for refused
  /// connections, resets, and malformed responses.
  Result<HttpClientResponse> Call(std::string_view method,
                                  std::string_view path,
                                  std::string_view request_body,
                                  const HttpClientOptions& options = {});
  Result<HttpClientResponse> Get(std::string_view path,
                                 const HttpClientOptions& options = {});
  Result<HttpClientResponse> Post(std::string_view path,
                                  std::string_view request_body,
                                  const HttpClientOptions& options = {});

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

  // --- Client metrics (cumulative) --------------------------------------
  /// Fresh TCP connections opened.
  uint64_t connections_opened() const {
    return opened_.load(std::memory_order_relaxed);
  }
  /// Calls that started on an idle keep-alive connection.
  uint64_t connection_reuses() const {
    return reuses_.load(std::memory_order_relaxed);
  }
  /// Stale-connection retries: a reused connection failed before any
  /// response byte arrived and the call was replayed once on a fresh one.
  uint64_t connection_reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

 private:
  /// Pop an idle connection; -1 when none.
  int PopIdle();
  /// Park `fd` for reuse, or close it when the pool is full.
  void ParkOrClose(int fd);

  const std::string host_;
  const uint16_t port_;
  const size_t max_idle_;

  std::mutex mu_;
  std::vector<int> idle_;  // guarded by mu_

  std::atomic<uint64_t> opened_{0};
  std::atomic<uint64_t> reuses_{0};
  std::atomic<uint64_t> reconnects_{0};
};

}  // namespace net
}  // namespace newslink

#endif  // NEWSLINK_NET_HTTP_CLIENT_H_
