// csmt::telemetry (DESIGN.md §12): registry snapshot behavior under
// concurrent publishers, series ring semantics, the regime classifier's
// thresholds, probe gating in run_experiment, the HTTP endpoint end to
// end, and the no-perturbation contract — a serving sweep's counters must
// be identical to a non-serving one.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/regime.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/server.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CSMT_TELEMETRY_TEST_POSIX 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace csmt;
using telemetry::Regime;
using telemetry::classify_regime;
using telemetry::regime_name;

// ---------------------------------------------------------------------------
// Regime classifier: deterministic thresholds on the quiet-cycle fraction.

TEST(RegimeTest, ThresholdBoundaries) {
  EXPECT_EQ(classify_regime(0.0), Regime::kBusy);
  EXPECT_EQ(classify_regime(0.2499), Regime::kBusy);
  EXPECT_EQ(classify_regime(telemetry::kBusyCeiling), Regime::kMixed);
  EXPECT_EQ(classify_regime(0.5), Regime::kMixed);
  EXPECT_EQ(classify_regime(0.7499), Regime::kMixed);
  EXPECT_EQ(classify_regime(telemetry::kIdleFloor), Regime::kIdle);
  EXPECT_EQ(classify_regime(1.0), Regime::kIdle);
}

TEST(RegimeTest, SyntheticQuietFractionProfiles) {
  // Profiles as (quiet_cycles, sim_cycles) counter pairs, the way the
  // fraction is actually derived in SimSpeed::quiet_fraction().
  struct Profile {
    std::uint64_t quiet, total;
    Regime want;
  };
  const Profile profiles[] = {
      {0, 1000, Regime::kBusy},       // --no-skip: all full ticks
      {249, 1000, Regime::kBusy},     // just under the busy ceiling
      {250, 1000, Regime::kMixed},    // exactly at the ceiling
      {500, 1000, Regime::kMixed},
      {749, 1000, Regime::kMixed},    // just under the idle floor
      {750, 1000, Regime::kIdle},     // exactly at the floor
      {1000, 1000, Regime::kIdle},    // fully quiescent
  };
  for (const Profile& p : profiles) {
    const double f =
        static_cast<double>(p.quiet) / static_cast<double>(p.total);
    EXPECT_EQ(classify_regime(f), p.want)
        << p.quiet << "/" << p.total << " -> " << regime_name(p.want);
  }
}

TEST(RegimeTest, Names) {
  EXPECT_STREQ(regime_name(Regime::kBusy), "busy");
  EXPECT_STREQ(regime_name(Regime::kIdle), "idle");
  EXPECT_STREQ(regime_name(Regime::kMixed), "mixed");
}

// ---------------------------------------------------------------------------
// Registry primitives.

TEST(RegistryTest, CounterAndGaugeBasics) {
  telemetry::Registry reg;
  telemetry::Counter& c = reg.counter("a.count");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&reg.counter("a.count"), &c);

  telemetry::Gauge& g = reg.gauge("a.gauge");
  EXPECT_EQ(g.value(), 0.0);
  g.set(-2.5);
  EXPECT_EQ(g.value(), -2.5);
  g.set(1e300);
  EXPECT_EQ(g.value(), 1e300);
}

TEST(RegistryTest, SeriesRingKeepsMostRecent) {
  telemetry::Registry reg;
  telemetry::Series& s = reg.series("a.series", 4);
  std::uint64_t total = 0;
  EXPECT_TRUE(s.snapshot(&total).empty());
  EXPECT_EQ(total, 0u);

  for (int i = 1; i <= 3; ++i) s.push(i);
  EXPECT_EQ(s.snapshot(&total), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(total, 3u);

  for (int i = 4; i <= 6; ++i) s.push(i);
  // Capacity 4: the ring holds the most recent points, oldest first.
  EXPECT_EQ(s.snapshot(&total), (std::vector<double>{3, 4, 5, 6}));
  EXPECT_EQ(total, 6u);
}

TEST(RegistryTest, SnapshotIsStableWithoutWrites) {
  telemetry::Registry reg;
  reg.counter("x").add(7);
  reg.gauge("y").set(3.5);
  reg.series("z", 8).push(1.25);

  const json::Value a = reg.snapshot_json();
  const json::Value b = reg.snapshot_json();
  // Identical content (names in deterministic sorted order), except the
  // per-snapshot sequence number.
  ASSERT_NE(a.find("counters"), nullptr);
  EXPECT_EQ(a.find("counters")->dump(), b.find("counters")->dump());
  EXPECT_EQ(a.find("gauges")->dump(), b.find("gauges")->dump());
  EXPECT_EQ(a.find("series")->dump(), b.find("series")->dump());
  EXPECT_EQ(a.find("seq")->as_u64() + 1, b.find("seq")->as_u64());
}

TEST(RegistryTest, SnapshotUnderConcurrentPublishers) {
  telemetry::Registry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 20000;

  std::atomic<bool> go{false};
  std::atomic<bool> stop_snapshots{false};
  std::vector<json::Value> snaps;

  // A wall-clock consumer snapshotting while publishers hammer the
  // registry — the exact shape of the HTTP endpoint's sampling.
  std::thread snapshotter([&] {
    while (!stop_snapshots.load()) snaps.push_back(reg.snapshot_json());
  });

  std::vector<std::thread> publishers;
  for (int t = 0; t < kThreads; ++t) {
    publishers.emplace_back([&reg, &go, t] {
      while (!go.load()) {
      }
      telemetry::Counter& shared = reg.counter("shared.count");
      telemetry::Gauge& mine = reg.gauge("g." + std::to_string(t));
      telemetry::Series& series = reg.series("s." + std::to_string(t), 16);
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        shared.add();
        mine.set(static_cast<double>(i));
        if ((i & 1023) == 0) series.push(static_cast<double>(i));
      }
    });
  }
  go.store(true);
  for (std::thread& t : publishers) t.join();
  stop_snapshots.store(true);
  snapshotter.join();

  // Exact final total: no publication was lost or double-counted.
  EXPECT_EQ(reg.counter("shared.count").value(), kThreads * kAddsPerThread);

  // Every concurrent snapshot is well-formed, counters are monotone across
  // snapshots, and no value ever exceeds the true total (a torn read would
  // produce garbage far outside this range).
  std::uint64_t prev = 0;
  for (const json::Value& s : snaps) {
    const json::Value* counters = s.find("counters");
    ASSERT_NE(counters, nullptr);
    if (const json::Value* c = counters->find("shared.count")) {
      const std::uint64_t v = c->as_u64();
      EXPECT_GE(v, prev);
      EXPECT_LE(v, kThreads * kAddsPerThread);
      prev = v;
    }
  }
}

// ---------------------------------------------------------------------------
// Probe gating in run_experiment: per-run metrics exist only while a
// consumer is attached; cheap aggregates are always live.

sim::ExperimentSpec tiny_spec() {
  sim::ExperimentSpec spec;
  spec.workload = "swim";
  spec.arch = core::ArchKind::kSmt2;
  spec.chips = 1;
  spec.scale = 1;
  return spec;
}

bool has_run_metric(const json::Value& snap) {
  const json::Value* gauges = snap.find("gauges");
  if (!gauges) return false;
  // Object keys are visible only through dump() here; a "run.NNNN." gauge
  // name is unambiguous in the serialized form.
  return gauges->dump().find("\"run.") != std::string::npos;
}

TEST(ProbeTest, RunProbesRegisterOnlyWhenEnabled) {
  telemetry::Registry& reg = telemetry::Registry::global();
  reg.reset_for_test();
  reg.set_enabled(false);

  const sim::ExperimentResult r1 = sim::run_experiment(tiny_spec());
  EXPECT_TRUE(r1.validated);
  json::Value snap = reg.snapshot_json();
  ASSERT_NE(snap.find("counters"), nullptr);
  EXPECT_EQ(snap.find("counters")->find("sim.runs_completed")->as_u64(), 1u);
  EXPECT_FALSE(has_run_metric(snap));

  reg.set_enabled(true);
  const sim::ExperimentResult r2 = sim::run_experiment(tiny_spec());
  reg.set_enabled(false);
  snap = reg.snapshot_json();
  EXPECT_EQ(snap.find("counters")->find("sim.runs_completed")->as_u64(), 2u);
  EXPECT_TRUE(has_run_metric(snap));
  // The probe finished in the kDone state with a classified regime.
  const std::string gauges = snap.find("gauges")->dump();
  EXPECT_NE(gauges.find(".state\":1"), std::string::npos) << gauges;

  // The probe never perturbs the run: identical counters with and without.
  EXPECT_EQ(sim::to_json(r1).find("stats")->dump(),
            sim::to_json(r2).find("stats")->dump());
}

// ---------------------------------------------------------------------------
// HTTP endpoint, end to end against a live registry + sweep.

#if CSMT_TELEMETRY_TEST_POSIX

/// Minimal blocking HTTP client: sends `req` verbatim and reads until
/// EOF, or — for SSE — until `stop_after` occurrences of "event:" arrived.
std::string http_send(std::uint16_t port, const std::string& req,
                      int stop_after_events = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    ADD_FAILURE() << "cannot connect to 127.0.0.1:" << port;
    return "";
  }
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
    if (stop_after_events > 0) {
      int events = 0;
      for (std::size_t pos = 0;
           (pos = out.find("event:", pos)) != std::string::npos; ++pos)
        ++events;
      if (events >= stop_after_events) break;
    }
  }
  ::close(fd);
  return out;
}

std::string http_get(std::uint16_t port, const std::string& path,
                     int stop_after_events = 0) {
  return http_send(port, "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
                   stop_after_events);
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(ServerTest, MetricsEventsAndErrorsAgainstLiveSweep) {
  telemetry::Registry& reg = telemetry::Registry::global();
  reg.reset_for_test();

  telemetry::Server server;
  server.set_sse_interval_ms(10);
  ASSERT_TRUE(server.start(0));  // ephemeral port
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(reg.enabled()) << "serving must enable per-run probes";

  // A live two-point sweep publishing into the served registry.
  sweep::SweepOptions options;
  options.progress = false;
  sweep::SweepSpec grid;
  grid.workloads = {"swim"};
  grid.archs = {core::ArchKind::kSmt1, core::ArchKind::kSmt2};
  grid.scales = {1};
  const auto serving = sweep::SweepRunner(options).run(grid);
  ASSERT_EQ(serving.size(), 2u);

  // /metrics: one JSON snapshot carrying the sweep's publications.
  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/json"), std::string::npos);
  const auto doc = json::Value::parse(body_of(metrics));
  ASSERT_TRUE(doc.has_value()) << body_of(metrics);
  EXPECT_EQ(doc->find("counters")->find("sim.runs_completed")->as_u64(), 2u);
  EXPECT_EQ(doc->find("gauges")->find("sweep.points_total")->as_number(), 2.0);
  EXPECT_EQ(doc->find("gauges")->find("sweep.points_done")->as_number(), 2.0);
  EXPECT_TRUE(has_run_metric(*doc));

  // /events: an SSE stream of the same snapshots.
  const std::string events = http_get(server.port(), "/events", 2);
  EXPECT_NE(events.find("text/event-stream"), std::string::npos);
  EXPECT_NE(events.find("event: snapshot\ndata: {"), std::string::npos);

  // The embedded console and the error paths.
  EXPECT_NE(http_get(server.port(), "/").find("fleet console"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/nope").find("404"), std::string::npos);

  server.stop();
  EXPECT_FALSE(reg.enabled()) << "stop() must restore the previous gate";

  // No-perturbation (the acceptance contract): the same grid, served vs
  // not, produces identical machine counters, spec, validation, and the
  // derived regime tag — everything in the artifact except host wall time.
  const auto quiet = sweep::SweepRunner(options).run(grid);
  ASSERT_EQ(quiet.size(), serving.size());
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    const json::Value a = sim::to_json(serving[i]);
    const json::Value b = sim::to_json(quiet[i]);
    EXPECT_EQ(a.find("spec")->dump(), b.find("spec")->dump());
    EXPECT_EQ(a.find("stats")->dump(), b.find("stats")->dump());
    EXPECT_EQ(a.find("validated")->dump(), b.find("validated")->dump());
    EXPECT_EQ(a.find("sim_speed")->find("regime")->dump(),
              b.find("sim_speed")->find("regime")->dump());
    EXPECT_EQ(a.find("sim_speed")->find("sim_cycles")->as_u64(),
              b.find("sim_speed")->find("sim_cycles")->as_u64());
    EXPECT_EQ(a.find("sim_speed")->find("quiet_cycles")->as_u64(),
              b.find("sim_speed")->find("quiet_cycles")->as_u64());
  }
}

TEST(ServerTest, OversizedRequestIsRejectedAndServingContinues) {
  telemetry::Server server;
  ASSERT_TRUE(server.start(0));
  // A head that never ends within the limit. Exactly kMaxRequestBytes, so
  // the server has consumed every byte when it answers and closes.
  std::string head = "GET /metrics HTTP/1.1\r\nX-Pad: ";
  head.resize(net::kMaxRequestBytes, 'a');
  const std::string rejected = http_send(server.port(), head);
  EXPECT_NE(rejected.find("HTTP/1.1 400 Bad Request"), std::string::npos)
      << rejected;
  EXPECT_NE(http_get(server.port(), "/metrics").find("HTTP/1.1 200 OK"),
            std::string::npos);
}

TEST(ServerTest, NonGetMethodIsRejected) {
  telemetry::Server server;
  ASSERT_TRUE(server.start(0));
  const std::string resp = http_send(
      server.port(),
      "POST /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos)
      << resp;
}

// Keep last: serve_global starts a server that lives until process exit.
TEST(ServerTest, ServeGlobalIsProcessWideAndFirstCallerWins) {
  const std::uint16_t port = telemetry::serve_global(0);
  ASSERT_GT(port, 0);
  // Later callers (another sweep in the same process) get the same server.
  EXPECT_EQ(telemetry::serve_global(0), port);
  EXPECT_EQ(telemetry::serve_global(12345), port);
  EXPECT_TRUE(telemetry::Registry::global().enabled());
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
}

#endif  // CSMT_TELEMETRY_TEST_POSIX

}  // namespace
