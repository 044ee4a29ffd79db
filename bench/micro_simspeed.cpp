// Simulator-throughput microbenchmarks (google-benchmark): how many
// simulated cycles and dynamic instructions per wall-clock second the
// components and the full machine sustain.
//
// After the google-benchmark suites, a skip-ahead A/B section runs a set of
// machine points twice — quiescence scheduler vs --no-skip — and reports
// the skipped-cycle fraction and speedup per point, appending a run record
// to BENCH_simspeed.json (override with CSMT_SIMSPEED_JSON; empty
// disables): the file is a trajectory, {"runs": [...]}, one record per
// invocation (timestamped; CSMT_SIMSPEED_LABEL names the record, e.g. a
// commit sha in CI), so the perf history across PRs accumulates instead of
// being overwritten. Points are labeled by
// regime — "idle" (long quiescent spans, the scheduler's target) vs "busy"
// (short or no gaps, where skip support must cost ~nothing) — and each
// kernel timing is the best of CSMT_SIMSPEED_REPS runs (default 3) so the
// small busy points aren't noise-dominated. Per-point peak RSS and the
// point's own RSS delta (measured from a malloc-trimmed baseline) ride
// along.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "bench_util.hpp"
#include "branch/predictor.hpp"
#include "cache/backend.hpp"
#include "cache/memsys.hpp"
#include "common/json.hpp"
#include "exec/thread_group.hpp"
#include "sim/experiment.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace csmt;

void BM_Interpreter(benchmark::State& state) {
  const auto wl = workloads::make_workload("swim");
  std::uint64_t insts = 0;
  for (auto _ : state) {
    // Fresh memory per iteration: the kernel mutates its arrays.
    mem::PagedMemory memory;
    const auto build = wl->build(memory, 1, 1);
    exec::ThreadGroup group(build.program, memory, 1, build.args_base);
    exec::DynInst d;
    while (group.thread(0).step(d)) ++insts;
  }
  state.counters["inst/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Interpreter);

void BM_BranchPredictor(benchmark::State& state) {
  branch::BranchPredictor bp;
  std::uint64_t n = 0;
  for (auto _ : state) {
    for (std::uint64_t pc = 0; pc < 4096; ++pc) {
      benchmark::DoNotOptimize(bp.predict_and_update(pc, (pc & 3) != 0, pc + 1));
    }
    n += 4096;
  }
  state.counters["lookups/s"] =
      benchmark::Counter(static_cast<double>(n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BranchPredictor);

void BM_CacheAccess(benchmark::State& state) {
  cache::MemSysParams params;
  cache::LocalMemoryBackend backend(params);
  cache::MemSys memsys(0, params, backend);
  Cycle now = 0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < 1024; ++i) {
      benchmark::DoNotOptimize(memsys.load((i % 64) * 64, now));
      now += 2;
    }
    n += 1024;
  }
  state.counters["accesses/s"] =
      benchmark::Counter(static_cast<double>(n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheAccess);

void BM_FullMachine(benchmark::State& state) {
  sim::ExperimentSpec spec;
  spec.workload = "swim";
  spec.arch = static_cast<core::ArchKind>(state.range(0));
  spec.scale = 2;
  std::uint64_t cycles = 0, insts = 0;
  for (auto _ : state) {
    const sim::ExperimentResult r = sim::run_experiment(spec);
    cycles += r.stats.cycles;
    insts += r.stats.committed_useful + r.stats.committed_sync;
  }
  state.counters["sim-cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["sim-inst/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullMachine)
    ->Arg(static_cast<int>(core::ArchKind::kFa8))
    ->Arg(static_cast<int>(core::ArchKind::kSmt2))
    ->Arg(static_cast<int>(core::ArchKind::kSmt1));

// ---------------------------------------------------------------------------
// Skip-ahead A/B: quiescence scheduler vs per-cycle kernel (--no-skip).

/// One A/B point's outcome. `stats_equal` holds when every run validated
/// and all of RunStats (by stats digest) agrees across kernels and reps;
/// wall numbers are per kernel, best of `reps` runs each.
struct AbRow {
  sim::ExperimentSpec spec;
  std::string regime;  ///< "idle" or "busy" — which regime the point probes
  /// The first skip-kernel run's counters. Its cluster_quiet_cycles are
  /// per-cluster cycles skipped while the machine was busy (lazy replay,
  /// DESIGN.md §14) — cluster-cycles, so they can exceed sim_cycles.
  obs::SimSpeed speed;
  double skip_seconds = 0.0;
  double noskip_seconds = 0.0;
  std::uint64_t peak_rss_kb = 0;  ///< process high-water mark after the point
  /// RSS growth across this point (post-point minus pre-point, after the
  /// previous point's trim): the footprint *this* point adds.
  std::uint64_t rss_delta_kb = 0;
  bool stats_equal = false;

  double speedup() const {
    return skip_seconds > 0 ? noskip_seconds / skip_seconds : 0.0;
  }
  double skip_cps() const {
    return skip_seconds > 0 ? static_cast<double>(speed.sim_cycles) /
                                  skip_seconds
                            : 0.0;
  }
  double noskip_cps() const {
    return noskip_seconds > 0 ? static_cast<double>(speed.sim_cycles) /
                                    noskip_seconds
                              : 0.0;
  }
};

unsigned reps_from_env() {
  if (const char* s = std::getenv("CSMT_SIMSPEED_REPS")) {
    const unsigned v = static_cast<unsigned>(std::atoi(s));
    if (v >= 1) return v;
  }
  return 3;
}

AbRow run_workload_point(const std::string& workload, core::ArchKind arch,
                         unsigned chips, unsigned scale, const char* regime) {
  AbRow row;
  row.spec.workload = workload;
  row.spec.arch = arch;
  row.spec.chips = chips;
  row.spec.scale = scale;
  row.regime = regime;
  const std::uint64_t rss_before = bench::current_rss_bytes();
  const unsigned reps = reps_from_env();
  sim::ExperimentResult skip, noskip;
  row.stats_equal = true;
  // Kernels alternate within each rep (skip, noskip, skip, noskip, ...):
  // allocator warm-up and clock-drift effects then hit both flavors
  // symmetrically instead of biasing whichever block ran second.
  for (unsigned rep = 0; rep < reps; ++rep) {
    for (const bool no_skip : {false, true}) {
      row.spec.no_skip = no_skip;
      sim::ExperimentResult r = sim::run_experiment(row.spec);
      double& best = no_skip ? row.noskip_seconds : row.skip_seconds;
      if (rep == 0) {
        best = r.sim_speed.wall_seconds;
        (no_skip ? noskip : skip) = std::move(r);
      } else {
        best = std::min(best, r.sim_speed.wall_seconds);
        // Repetitions of a deterministic simulator must agree with rep 0.
        row.stats_equal =
            row.stats_equal && bench::same_stats(r, no_skip ? noskip : skip);
      }
    }
  }
  row.speed = skip.sim_speed;
  row.stats_equal = row.stats_equal && bench::same_stats(skip, noskip);
  // High-water + per-point RSS delta, then hand freed pages back to the OS
  // so the next point starts from a trimmed baseline.
  row.peak_rss_kb = bench::peak_rss_kb();
  const std::uint64_t rss_after = bench::current_rss_bytes();
  row.rss_delta_kb =
      rss_after > rss_before ? (rss_after - rss_before) / 1024 : 0;
  bench::trim_host_memory();
  return row;
}

json::Value points_json(const std::vector<AbRow>& rows) {
  json::Value points = json::Value::array();
  for (const AbRow& r : rows) {
    json::Value p = json::Value::object();
    p["name"] = r.spec.workload;
    p["arch"] = std::string(core::arch_name(r.spec.arch));
    p["regime"] = r.regime;
    p["chips"] = static_cast<std::uint64_t>(r.spec.chips);
    p["cycles"] = r.speed.sim_cycles;
    p["committed"] = r.speed.committed;
    p["quiet_cycles"] = r.speed.quiet_cycles;
    p["quiet_fraction"] = r.speed.quiet_fraction();
    p["cluster_quiet_cycles"] = r.speed.cluster_quiet_cycles;
    p["skip_seconds"] = r.skip_seconds;
    p["noskip_seconds"] = r.noskip_seconds;
    p["skip_cycles_per_sec"] = r.skip_cps();
    p["noskip_cycles_per_sec"] = r.noskip_cps();
    p["speedup"] = r.speedup();
    p["peak_rss_kb"] = r.peak_rss_kb;
    p["rss_delta_kb"] = r.rss_delta_kb;
    p["stats_equal"] = r.stats_equal;
    points.push_back(std::move(p));
  }
  return points;
}

/// Appends this run to the trajectory document instead of overwriting it:
/// BENCH_simspeed.json accumulates one run record per invocation, so the
/// perf history across PRs (and CI artifacts) reads straight off the file.
/// An unparseable file starts a fresh trajectory.
void write_ab_json(const std::string& path, const std::vector<AbRow>& rows) {
  json::Value doc = json::Value::object();
  doc["benchmark"] = std::string("micro_simspeed skip A/B");
  doc["runs"] = json::Value::array();

  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    if (const auto prev = json::Value::parse(text)) {
      if (const json::Value* runs = prev->find("runs")) {
        for (const json::Value& r : runs->items())
          doc["runs"].push_back(r);
      }
    } else {
      std::fprintf(stderr,
                   "micro_simspeed: '%s' is not valid JSON; starting a fresh "
                   "trajectory\n",
                   path.c_str());
    }
  }

  json::Value rec = json::Value::object();
  if (const char* label = std::getenv("CSMT_SIMSPEED_LABEL"))
    rec["label"] = std::string(label);
  {
    char stamp[32];
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    rec["recorded_at"] = std::string(stamp);
  }
  rec["reps"] = static_cast<std::uint64_t>(reps_from_env());
  // Wall timings only mean something relative to the host's width.
  rec["host_threads"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  rec["points"] = points_json(rows);
  doc["runs"].push_back(std::move(rec));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "micro_simspeed: cannot write '%s'\n", path.c_str());
    return;
  }
  const std::string text = doc.dump(2);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "micro_simspeed: wrote %s (%zu points, %zu runs)\n",
               path.c_str(), rows.size(), doc["runs"].items().size());
}

void run_skip_ab() {
  std::string json_path = "BENCH_simspeed.json";
  if (const char* p = std::getenv("CSMT_SIMSPEED_JSON")) json_path = p;

  std::vector<AbRow> rows;
  // Idle-regime points: long quiescent spans (dependent remote misses on
  // one-wide clusters) — where skipping must pay off big.
  rows.push_back(run_workload_point("chase", core::ArchKind::kFa1, 4, 20000,
                                    "idle"));
  // Busy-regime points: short or no quiescent gaps — where skip support
  // must cost ~nothing (the probe-amortization target). chase/SMT2 keeps a
  // second context issuing; the registry workloads are real busy kernels.
  rows.push_back(run_workload_point("chase", core::ArchKind::kSmt2, 4, 8000,
                                    "busy"));
  rows.push_back(run_workload_point("mgrid", core::ArchKind::kFa1, 4, 2,
                                    "busy"));
  rows.push_back(run_workload_point("ocean", core::ArchKind::kSmt2, 4, 2,
                                    "busy"));
  rows.push_back(run_workload_point("swim", core::ArchKind::kSmt2, 4, 2,
                                    "busy"));
  // Low-end contrast point.
  rows.push_back(run_workload_point("chase", core::ArchKind::kSmt2, 1, 20000,
                                    "busy"));

  std::printf(
      "\nskip-ahead A/B (quiescence scheduler vs --no-skip, best of %u)\n"
      "%-8s %-6s %-5s %5s %12s %8s %10s %10s %10s %8s %8s %6s\n",
      reps_from_env(), "point", "arch", "regime", "chips", "cycles", "quiet%",
      "cl-quiet", "skip-cps", "noskip-cps", "speedup", "drss-kb", "equal");
  for (const AbRow& r : rows) {
    std::printf(
        "%-8s %-6s %-5s %5u %12llu %7.1f%% %10llu %10.3e %10.3e %7.2fx "
        "%8llu %6s\n",
        r.spec.workload.c_str(), core::arch_name(r.spec.arch),
        r.regime.c_str(), r.spec.chips,
        static_cast<unsigned long long>(r.speed.sim_cycles),
        100.0 * r.speed.quiet_fraction(),
        static_cast<unsigned long long>(r.speed.cluster_quiet_cycles),
        r.skip_cps(),
        r.noskip_cps(), r.speedup(),
        static_cast<unsigned long long>(r.rss_delta_kb),
        r.stats_equal ? "yes" : "NO");
  }
  if (!json_path.empty()) write_ab_json(json_path, rows);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_skip_ab();
  return 0;
}
