#include "telemetry/server.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

namespace csmt::telemetry {

namespace {

/// The embedded console: the same stream the standalone
/// examples/fleet_console page renders, kept deliberately text-first (a
/// monospace ops view, not a dashboard) so it has zero dependencies.
constexpr const char* kConsoleHtml = R"html(<!doctype html>
<meta charset="utf-8">
<title>csmt fleet console</title>
<style>
  body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 1.5rem; background: #14151a; color: #d7dae0; }
  h1 { font-size: 15px; } h2 { font-size: 13px; margin: 1.2em 0 .3em; }
  table { border-collapse: collapse; }
  td, th { padding: .1em .8em .1em 0; text-align: left; white-space: pre; }
  .dim { opacity: .55; } .spark { letter-spacing: .05em; }
  .busy { color: #e8a33d; } .idle { color: #5fb4e8; }
  .mixed { color: #a98ae8; } .ok { color: #74c476; } .bad { color: #e06666; }
</style>
<h1>csmt fleet console <span id=link class=dim></span></h1>
<div id=sweep class=dim>waiting for snapshots…</div>
<h2>runs</h2><table id=runs></table>
<h2>counters</h2><table id=ctrs></table>
<script>
const BARS = '▁▂▃▄▅▆▇█';
const REGIME = ['busy', 'idle', 'mixed'];
const STATE = ['running', 'done', 'INVALID', 'TIMEOUT'];
function spark(xs) {
  if (!xs.length) return '';
  const lo = Math.min(...xs), hi = Math.max(...xs);
  return xs.map(x => BARS[hi > lo ?
      Math.round((x - lo) / (hi - lo) * 7) : 3]).join('');
}
function render(snap) {
  const g = snap.gauges || {}, c = snap.counters || {}, s = snap.series || {};
  const fmt = x => x >= 1e6 ? (x / 1e6).toFixed(2) + 'M' : x;
  document.getElementById('sweep').textContent =
    `sweep: ${g['sweep.points_done'] ?? 0}/${g['sweep.points_total'] ?? 0} ` +
    `done, ${g['sweep.resumed'] ?? 0} resumed, hits=${g['sweep.cache_hits'] ?? 0} ` +
    `| regimes busy=${c['sim.regime.busy'] ?? 0} idle=${c['sim.regime.idle'] ?? 0} ` +
    `mixed=${c['sim.regime.mixed'] ?? 0} | elapsed=${(g['sweep.elapsed_seconds'] ?? 0).toFixed(1)}s ` +
    `| snapshot #${snap.seq}`;
  const runs = {};
  for (const [k, v] of Object.entries(g)) {
    const m = k.match(/^(run\.\d+\.(.*))\.([a-z_]+)$/);
    if (m) (runs[m[1]] ??= { label: m[2] })[m[3]] = v;
  }
  for (const [k, v] of Object.entries(s)) {
    const m = k.match(/^(run\.\d+\..*)\.epoch_ipc$/);
    if (m && runs[m[1]]) runs[m[1]].ipc = v.points;
  }
  let html = '<tr class=dim><th>point</th><th>state</th><th>regime</th>' +
             '<th>cycles</th><th>Mcyc/s</th><th>epoch IPC</th></tr>';
  for (const key of Object.keys(runs).sort().reverse().slice(0, 40)) {
    const r = runs[key], st = STATE[r.state ?? 0] ?? '?';
    const rg = r.regime >= 0 ? REGIME[r.regime] : '';
    html += `<tr><td>${r.label}</td>` +
      `<td class=${st === 'done' ? 'ok' : st === 'running' ? 'dim' : 'bad'}>${st}</td>` +
      `<td class=${rg}>${rg}</td><td>${fmt(r.cycles ?? 0)}</td>` +
      `<td>${((r.cycles_per_sec ?? 0) / 1e6).toFixed(2)}</td>` +
      `<td class=spark>${spark(r.ipc ?? [])}</td></tr>`;
  }
  document.getElementById('runs').innerHTML = html;
  let ct = '';
  for (const [k, v] of Object.entries(c))
    ct += `<tr><td class=dim>${k}</td><td>${v}</td></tr>`;
  for (const [k, v] of Object.entries(g))
    if (!k.startsWith('run.'))
      ct += `<tr><td class=dim>${k}</td><td>${(+v).toFixed(3)}</td></tr>`;
  document.getElementById('ctrs').innerHTML = ct;
}
const es = new EventSource('/events');
es.addEventListener('snapshot', e => render(JSON.parse(e.data)));
es.onerror = () => { document.getElementById('link').textContent =
    '(stream closed — the serving process exited)'; };
</script>
)html";

void serve_events(net::ClientConn& conn, Registry& registry,
                  unsigned sse_interval_ms) {
  if (!conn.send_raw("HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
                     "Cache-Control: no-cache\r\n"
                     "Access-Control-Allow-Origin: *\r\n"
                     "Connection: keep-alive\r\n\r\n")) {
    return;
  }
  while (!conn.stopping()) {
    std::string event = "event: snapshot\ndata: ";
    event += registry.snapshot_json().dump();
    event += "\n\n";
    if (!conn.send_raw(event)) return;
    // Sleep in short slices so stop() never waits a full interval.
    for (unsigned slept = 0; slept < sse_interval_ms && !conn.stopping();
         slept += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

}  // namespace

void Server::handle(const net::HttpRequest& req, net::ClientConn& conn) {
  if (req.path != "/metrics" && req.path != "/events" && req.path != "/" &&
      req.path != "/index.html") {
    conn.respond("404 Not Found", "text/plain",
                 "try /metrics, /events, or /\n");
  } else if (req.method != "GET") {
    conn.respond("405 Method Not Allowed", "text/plain", "GET only\n");
  } else if (req.path == "/metrics") {
    conn.respond("200 OK", "application/json",
                 registry_.snapshot_json().dump(2) + "\n");
  } else if (req.path == "/events") {
    serve_events(conn, registry_, sse_interval_ms_);
  } else {
    conn.respond("200 OK", "text/html", kConsoleHtml);
  }
}

bool Server::start(std::uint16_t port) {
  if (running()) return true;
  const bool ok = http_.start(
      port, [this](const net::HttpRequest& req, net::ClientConn& conn) {
        handle(req, conn);
      });
  if (!ok) return false;
  was_enabled_ = registry_.enabled();
  registry_.set_enabled(true);
  return true;
}

void Server::stop() {
  if (!running()) return;
  http_.stop();
  registry_.set_enabled(was_enabled_);
}

std::uint16_t serve_global(std::uint16_t port) {
  static Server* server = new Server();  // lives until process exit
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  if (!server->running()) {
    if (!server->start(port)) return 0;
    std::fprintf(stderr,
                 "csmt: telemetry on http://127.0.0.1:%u/ "
                 "(/metrics, /events)\n",
                 static_cast<unsigned>(server->port()));
  }
  return server->port();
}

}  // namespace csmt::telemetry
