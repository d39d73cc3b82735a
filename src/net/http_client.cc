#include "net/http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"

namespace newslink {
namespace net {

namespace {

/// RAII socket so every early return closes the fd.
class OwnedFd {
 public:
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  int get() const { return fd_; }
  /// Hand ownership to the caller (destructor becomes a no-op).
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_;
};

void SetSocketTimeout(int fd, int option, double seconds) {
  if (seconds <= 0) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

/// Connect with a deadline: non-blocking connect + poll, then back to
/// blocking mode (per-syscall timeouts take over from there).
Status ConnectWithDeadline(int fd, const sockaddr_in& addr, double seconds) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Status::IOError(StrCat("connect: ", std::strerror(errno)));
  }
  if (rc != 0) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int timeout_ms =
        seconds > 0 ? static_cast<int>(seconds * 1e3) + 1 : -1;
    rc = ::poll(&pfd, 1, timeout_ms);
    if (rc == 0) return Status::Timeout("connect timed out");
    if (rc < 0) return Status::IOError(StrCat("poll: ", std::strerror(errno)));
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return Status::IOError(StrCat("connect: ", std::strerror(err)));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return Status::OK();
}

/// Open a connected TCP socket to host:port within `deadline_left`.
Result<int> OpenConnection(std::string_view host, uint16_t port,
                           double deadline_left) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string host_str(host == "localhost" ? "127.0.0.1" : host);
  if (::inet_pton(AF_INET, host_str.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrCat("host must be a dotted-quad address, got \"", host, "\""));
  }
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    return Status::IOError(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  NL_RETURN_IF_ERROR(ConnectWithDeadline(fd.get(), addr, deadline_left));
  return fd.release();
}

/// Send one serialized request within the shrinking budget.
Status SendAll(int fd, std::string_view request, const WallTimer& timer,
               double deadline) {
  const double left =
      deadline > 0 ? deadline - timer.ElapsedSeconds() : 0.0;
  SetSocketTimeout(fd, SO_SNDTIMEO, left);
  size_t sent = 0;
  while (sent < request.size()) {
    if (deadline > 0 && timer.ElapsedSeconds() >= deadline) {
      return Status::Timeout("send deadline exceeded");
    }
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Timeout("send timed out");
      }
      return Status::IOError(StrCat("send: ", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Read and parse one response. `reusable` is set to true only when the
/// response was Content-Length framed, fully consumed, and the server did
/// not announce "Connection: close" — the conditions under which the next
/// request may ride the same connection. `answered` is set once any byte
/// of a response arrived.
Result<HttpClientResponse> ReadResponse(int fd, const HttpClientOptions& options,
                                        const WallTimer& timer,
                                        bool* reusable, bool* answered) {
  *reusable = false;
  const double deadline = options.deadline_seconds;

  std::string data;
  size_t head_end = std::string::npos;
  size_t content_length = std::string::npos;
  bool server_closes = false;
  char buf[16384];
  while (true) {
    const double left =
        deadline > 0 ? deadline - timer.ElapsedSeconds() : 0.0;
    if (deadline > 0 && left <= 0) {
      return Status::Timeout("read deadline exceeded");
    }
    SetSocketTimeout(fd, SO_RCVTIMEO, left);
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Timeout("read timed out");
      }
      return Status::IOError(StrCat("recv: ", std::strerror(errno)));
    }
    if (n == 0) break;  // EOF
    *answered = true;
    data.append(buf, static_cast<size_t>(n));
    if (data.size() > options.max_body_bytes) {
      return Status::IOError("response exceeds size limit");
    }
    if (head_end == std::string::npos) {
      head_end = data.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        // Scan the (case-insensitive) Content-Length / Connection headers.
        std::string_view head(data.data(), head_end);
        size_t line_start = 0;
        while (line_start < head.size()) {
          size_t line_end = head.find("\r\n", line_start);
          if (line_end == std::string_view::npos) line_end = head.size();
          const std::string_view line =
              head.substr(line_start, line_end - line_start);
          const size_t colon = line.find(':');
          if (colon != std::string_view::npos) {
            std::string name(line.substr(0, colon));
            for (char& c : name) c = static_cast<char>(std::tolower(c));
            std::string value(line.substr(colon + 1));
            size_t v0 = 0;
            while (v0 < value.size() && value[v0] == ' ') ++v0;
            value.erase(0, v0);
            if (name == "content-length") {
              // No digits is no length (the server side answers 400).
              if (value.empty()) {
                return Status::IOError("malformed Content-Length");
              }
              content_length = 0;
              for (const char c : value) {
                if (c < '0' || c > '9') {
                  return Status::IOError("malformed Content-Length");
                }
                content_length =
                    content_length * 10 + static_cast<size_t>(c - '0');
                if (content_length > options.max_body_bytes) {
                  return Status::IOError("response exceeds size limit");
                }
              }
            } else if (name == "transfer-encoding") {
              // Unsupported, as on the server side (501): the body's
              // framing would be misread, so fail before waiting for it.
              return Status::IOError("transfer encodings are not supported");
            } else if (name == "connection") {
              for (char& c : value) c = static_cast<char>(std::tolower(c));
              if (value == "close") server_closes = true;
            }
          }
          line_start = line_end + 2;
        }
      }
    }
    if (head_end != std::string::npos &&
        content_length != std::string::npos &&
        data.size() >= head_end + 4 + content_length) {
      break;  // full body in hand; no need to wait for FIN
    }
  }

  if (head_end == std::string::npos) {
    return Status::IOError("connection closed before response head");
  }
  // Status line: "HTTP/1.1 200 OK".
  const size_t line_end = data.find("\r\n");
  std::string_view status_line(data.data(), line_end);
  const size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos || sp1 + 4 > status_line.size()) {
    return Status::IOError("malformed status line");
  }
  int status = 0;
  for (size_t i = sp1 + 1; i < sp1 + 4; ++i) {
    if (status_line[i] < '0' || status_line[i] > '9') {
      return Status::IOError("malformed status code");
    }
    status = status * 10 + (status_line[i] - '0');
  }

  HttpClientResponse response;
  response.status = status;
  response.body = data.substr(head_end + 4);
  if (content_length != std::string::npos &&
      response.body.size() < content_length) {
    return Status::IOError("connection closed mid-body");
  }
  if (content_length != std::string::npos) {
    // Exactly the framed body survived (no trailing bytes): only then is
    // the connection positioned at a request boundary and safe to reuse.
    *reusable = !server_closes && response.body.size() == content_length;
    response.body.resize(content_length);
  }
  return response;
}

std::string SerializeRequest(std::string_view method, std::string_view host,
                             uint16_t port, std::string_view path,
                             std::string_view request_body) {
  std::string request =
      StrCat(method, " ", path, " HTTP/1.1\r\nHost: ", host, ":", port,
             "\r\nConnection: keep-alive\r\n");
  if (!request_body.empty()) {
    request += StrCat("Content-Type: application/json\r\nContent-Length: ",
                      request_body.size(), "\r\n");
  }
  request += "\r\n";
  request.append(request_body);
  return request;
}

}  // namespace

// --- HttpClient (keep-alive pool) ----------------------------------------

HttpClient::HttpClient(std::string host, uint16_t port, size_t max_idle)
    : host_(std::move(host)), port_(port), max_idle_(max_idle) {}

HttpClient::~HttpClient() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const int fd : idle_) ::close(fd);
  idle_.clear();
}

int HttpClient::PopIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  if (idle_.empty()) return -1;
  const int fd = idle_.back();
  idle_.pop_back();
  return fd;
}

void HttpClient::ParkOrClose(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (idle_.size() < max_idle_) {
      idle_.push_back(fd);
      return;
    }
  }
  ::close(fd);
}

Result<HttpClientResponse> HttpClient::Call(std::string_view method,
                                            std::string_view path,
                                            std::string_view request_body,
                                            const HttpClientOptions& options) {
  WallTimer timer;
  const double deadline = options.deadline_seconds;
  const auto remaining = [&timer, deadline]() {
    return deadline > 0 ? deadline - timer.ElapsedSeconds() : 0.0;
  };
  const std::string request =
      SerializeRequest(method, host_, port_, path, request_body);

  OwnedFd fd(PopIdle());
  bool reused = fd.get() >= 0;
  if (reused) {
    reuses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    NL_ASSIGN_OR_RETURN(const int fresh,
                        OpenConnection(host_, port_, remaining()));
    fd.reset(fresh);
    opened_.fetch_add(1, std::memory_order_relaxed);
  }

  for (int attempt = 0;; ++attempt) {
    const Status send_status = SendAll(fd.get(), request, timer, deadline);
    bool reusable = false;
    bool answered = false;
    Result<HttpClientResponse> response =
        send_status.ok()
            ? ReadResponse(fd.get(), options, timer, &reusable, &answered)
            : Result<HttpClientResponse>(send_status);
    if (response.ok()) {
      if (reusable) {
        ParkOrClose(fd.release());
      }
      return response;
    }
    // A REUSED connection that fails at the transport layer before any
    // response byte arrived (EPIPE on send, a reset, or EOF) has almost
    // certainly been closed by the server while idle — retry ONCE on a
    // fresh connection. A response that arrived but was refused (a
    // transfer coding, an oversized body, a malformed head) is the
    // server's answer: replaying would run the request twice. Timeouts
    // are not retried (the server may be processing the request), and
    // fresh-connection failures are real errors.
    const bool stale_candidate = reused && attempt == 0 && !answered &&
                                 response.status().IsIOError();
    if (!stale_candidate) return response.status();
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    NL_ASSIGN_OR_RETURN(const int fresh,
                        OpenConnection(host_, port_, remaining()));
    fd.reset(fresh);
    opened_.fetch_add(1, std::memory_order_relaxed);
    reused = false;
  }
}

Result<HttpClientResponse> HttpClient::Get(std::string_view path,
                                           const HttpClientOptions& options) {
  return Call("GET", path, "", options);
}

Result<HttpClientResponse> HttpClient::Post(std::string_view path,
                                            std::string_view request_body,
                                            const HttpClientOptions& options) {
  return Call("POST", path, request_body, options);
}

}  // namespace net
}  // namespace newslink
