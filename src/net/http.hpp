// csmt::net — the loopback HTTP server under the telemetry endpoint
// (src/telemetry/server.hpp, DESIGN.md §12): bind 127.0.0.1, accept loop,
// per-connection handler threads reaped without blocking, and an orderly
// stop that unblocks streaming handlers.
//
// The server is deliberately minimal: HTTP/1.1, loopback only, one request
// per connection ("Connection: close"), requests bounded by
// kMaxRequestBytes. That is exactly the operational surface the telemetry
// console needs and nothing more.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace csmt::net {

/// Largest accepted request (head + body). Every endpoint is a bodyless
/// GET of a few hundred bytes, so a handler thread never needs to buffer
/// more than this; larger requests are answered 400.
constexpr std::size_t kMaxRequestBytes = 16u << 10;

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase as received)
  std::string path;    ///< path component only, query string split off
  std::string query;   ///< text after '?' (without the '?'), may be empty
  std::string body;    ///< Content-Length bytes (empty for bodyless GETs)
};

/// One accepted connection, passed to the handler. A handler either calls
/// respond() once (normal request/response) or streams with send_raw()
/// until it fails or stopping() flips (SSE). The socket is shut down and
/// reaped by the server after the handler returns.
class ClientConn {
 public:
  /// Full response with standard headers (CORS wide open — the endpoints
  /// carry loopback-only operational data and the static fleet-console
  /// page must work straight off the filesystem).
  bool respond(const char* status, const char* content_type,
               const std::string& body);
  /// Raw bytes (streaming responses write their own header). False once
  /// the peer is gone.
  bool send_raw(const std::string& bytes);
  bool send_raw(const char* data, std::size_t n);
  /// True once the server is stopping; long-lived handlers must return.
  bool stopping() const { return stopping_.load(); }

 private:
  friend class HttpServer;
  ClientConn(int fd, const std::atomic<bool>& stopping)
      : fd_(fd), stopping_(stopping) {}

  int fd_;
  const std::atomic<bool>& stopping_;
};

/// Builds a complete HTTP/1.1 response (status line, Content-Type,
/// Content-Length, permissive CORS, Connection: close).
std::string http_response(const char* status, const char* content_type,
                          const std::string& body);

class HttpServer {
 public:
  /// Called on a dedicated thread per accepted request.
  using Handler = std::function<void(const HttpRequest&, ClientConn&)>;

  HttpServer() = default;
  ~HttpServer() { stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and spawns
  /// the accept thread. Returns false (with a stderr message) if the socket
  /// can't be bound.
  bool start(std::uint16_t port, Handler handler);

  /// Stops accepting, unblocks and joins every in-flight handler (streaming
  /// ones observe ClientConn::stopping()), closes all sockets. Idempotent.
  void stop();

  bool running() const { return listen_fd_ != -1; }
  /// Actual bound port (resolves port 0), 0 when not running.
  std::uint16_t port() const { return port_; }

 private:
  /// One accepted connection: its handler thread and a done flag the
  /// accept loop uses to reap it (join + close) without blocking.
  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    int fd = -1;
  };

  void accept_loop();
  void reap_finished();
  void handle_client(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex mu_;            ///< guards conns_
  std::vector<Conn> conns_;  ///< live + finished-but-unreaped connections
};

}  // namespace csmt::net
