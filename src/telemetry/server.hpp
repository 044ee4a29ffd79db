// Embedded telemetry endpoint (DESIGN.md §12): serves live registry
// snapshots on 127.0.0.1 over the csmt::net loopback HTTP server.
//
//   GET /metrics   one JSON snapshot of every counter/gauge/series
//   GET /events    server-sent events: a "snapshot" event every
//                  ~sse_interval_ms until the client disconnects
//   GET /          a self-contained HTML console that renders the stream
//
// Other methods on these paths answer 405, other paths 404.
//
// All sampling happens on the server's own wall-clock threads, which read
// only registry atomics — they never touch simulation state, so a serving
// run is bit-identical to a non-serving one (the §12 contract; enforced by
// the CI telemetry smoke job). CORS is wide open (the metrics are
// loopback-only operational counters) so the examples/fleet_console static
// page works straight off the filesystem.
#pragma once

#include <cstdint>

#include "net/http.hpp"
#include "telemetry/registry.hpp"

namespace csmt::telemetry {

class Server {
 public:
  explicit Server(Registry& registry = Registry::global())
      : registry_(registry) {}
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port), spawns
  /// the accept thread, and enables the registry's per-run probes. Returns
  /// false (with a stderr message) if the socket can't be bound.
  bool start(std::uint16_t port);

  /// Stops accepting, unblocks and joins every streaming connection, and
  /// restores the registry's previous enabled state. Idempotent.
  void stop();

  bool running() const { return http_.running(); }
  /// Actual bound port (resolves port 0), 0 when not running.
  std::uint16_t port() const { return http_.port(); }

  /// Milliseconds between SSE snapshot events (default 250).
  void set_sse_interval_ms(unsigned ms) { sse_interval_ms_ = ms ? ms : 1; }

 private:
  /// Routes one request; runs on the connection's handler thread.
  void handle(const net::HttpRequest& req, net::ClientConn& conn);

  Registry& registry_;
  net::HttpServer http_;
  unsigned sse_interval_ms_ = 250;
  bool was_enabled_ = false;
};

/// Starts the process-wide server once (first caller wins; later calls
/// return the running server's port and ignore `port`). Returns 0 when the
/// server can't start. The server lives until process exit — every sweep
/// and bench in the process shares it, and a finished sweep stays
/// scrapeable until the binary exits.
std::uint16_t serve_global(std::uint16_t port);

}  // namespace csmt::telemetry
