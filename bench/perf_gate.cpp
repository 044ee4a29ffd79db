// CI perf-regression gate (DESIGN.md §9): times busy, idle, and
// cluster-idle (DESIGN.md §14) simspeed points in-process, median of three
// runs per kernel, and fails when the simulator got meaningfully slower.
//
// Two kinds of checks:
//  * hardware-independent ratios — the skip kernel's speedup over --no-skip
//    must stay above a per-point floor (busy points must not pay for
//    quiescence support; idle points must keep profiting from it);
//  * an absolute floor — the skip kernel's simulated cycles/sec must not
//    drop more than `max_drop_fraction` (default 25%) below the checked-in
//    baseline (bench/perf_baseline.json, override with CSMT_PERF_BASELINE).
//    The baseline is deliberately conservative so slower CI hardware does
//    not trip it; the ratio checks carry the precision.
//
// Stats divergence between the kernels (any RunStats field, compared by
// stats digest) or a run that fails validation is a hard failure regardless
// of timing. Results are written to perf_gate.json (CSMT_PERF_GATE_JSON) for
// the CI artifact.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"

namespace {

using namespace csmt;

struct GatePoint {
  std::string name;     ///< workload ("chase", "cluster-idle")
  core::ArchKind arch;
  unsigned chips;
  unsigned scale;       ///< the workload's iteration count
  std::string regime;   ///< "busy" | "idle"
};

struct GateResult {
  GatePoint point;
  std::uint64_t cycles = 0;
  double skip_seconds = 0.0;    ///< median of reps
  double noskip_seconds = 0.0;  ///< median of reps
  bool stats_equal = false;
  double baseline_cps = 0.0;    ///< 0 = no baseline entry found
  double min_speedup = 0.0;
  bool passed = true;
  std::string failure;

  double skip_cps() const {
    return skip_seconds > 0 ? static_cast<double>(cycles) / skip_seconds : 0.0;
  }
  /// The ratio's denominator: a change that speeds up the per-cycle kernel
  /// lowers speedup() without slowing the skip kernel.
  double noskip_cps() const {
    return noskip_seconds > 0 ? static_cast<double>(cycles) / noskip_seconds
                              : 0.0;
  }
  double speedup() const {
    return skip_seconds > 0 ? noskip_seconds / skip_seconds : 0.0;
  }
};

double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

/// Times one kernel flavor of a point: median of three in-process runs of
/// the point's workload, each timed inside Machine::run. `result` receives
/// the first run.
double time_kernel(const GatePoint& pt, bool no_skip,
                   sim::ExperimentResult* result) {
  sim::ExperimentSpec spec;
  spec.workload = pt.name;
  spec.arch = pt.arch;
  spec.chips = pt.chips;
  spec.scale = pt.scale;
  spec.no_skip = no_skip;
  double secs[3] = {};
  for (int rep = 0; rep < 3; ++rep) {
    sim::ExperimentResult r = sim::run_experiment(spec);
    secs[rep] = r.sim_speed.wall_seconds;
    if (rep == 0) *result = std::move(r);
  }
  return median3(secs[0], secs[1], secs[2]);
}

struct Baseline {
  json::Value doc;
  double max_drop_fraction = 0.25;
  bool loaded = false;
};

Baseline load_baseline(const std::string& path) {
  Baseline b;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perf_gate: no baseline at '%s'\n", path.c_str());
    return b;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  auto parsed = json::Value::parse(ss.str());
  if (!parsed) {
    std::fprintf(stderr, "perf_gate: cannot parse baseline '%s'\n",
                 path.c_str());
    return b;
  }
  b.doc = std::move(*parsed);
  if (const json::Value* v = b.doc.find("max_drop_fraction")) {
    b.max_drop_fraction = v->as_number(0.25);
  }
  b.loaded = true;
  return b;
}

/// Finds the baseline entry for a point; fills cps/min_speedup on match.
void apply_baseline(const Baseline& b, GateResult& r) {
  if (!b.loaded) return;
  const json::Value* points = b.doc.find("points");
  if (!points) return;
  for (const json::Value& p : points->items()) {
    const json::Value* name = p.find("name");
    const json::Value* arch = p.find("arch");
    const json::Value* chips = p.find("chips");
    if (!name || !arch || !chips) continue;
    if (name->as_string() != r.point.name) continue;
    if (arch->as_string() != core::arch_name(r.point.arch)) continue;
    if (static_cast<unsigned>(chips->as_number()) != r.point.chips) continue;
    if (const json::Value* v = p.find("cycles_per_sec")) {
      r.baseline_cps = v->as_number();
    }
    if (const json::Value* v = p.find("min_speedup")) {
      r.min_speedup = v->as_number();
    }
    return;
  }
}

void write_report(const std::string& path, const std::vector<GateResult>& rs,
                  double max_drop) {
  json::Value doc = json::Value::object();
  doc["benchmark"] = std::string("perf_gate median-of-3");
  doc["max_drop_fraction"] = max_drop;
  json::Value points = json::Value::array();
  for (const GateResult& r : rs) {
    json::Value p = json::Value::object();
    p["name"] = r.point.name;
    p["arch"] = std::string(core::arch_name(r.point.arch));
    p["chips"] = static_cast<std::uint64_t>(r.point.chips);
    p["regime"] = r.point.regime;
    p["cycles"] = r.cycles;
    p["skip_seconds"] = r.skip_seconds;
    p["noskip_seconds"] = r.noskip_seconds;
    p["skip_cycles_per_sec"] = r.skip_cps();
    p["speedup"] = r.speedup();
    p["baseline_cycles_per_sec"] = r.baseline_cps;
    p["min_speedup"] = r.min_speedup;
    p["peak_rss_kb"] = bench::peak_rss_kb();
    p["stats_equal"] = r.stats_equal;
    p["passed"] = r.passed;
    p["failure"] = r.failure;
    points.push_back(std::move(p));
  }
  doc["points"] = std::move(points);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "perf_gate: cannot write '%s'\n", path.c_str());
    return;
  }
  const std::string text = doc.dump(2);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "perf_gate: wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path = "bench/perf_baseline.json";
  if (const char* p = std::getenv("CSMT_PERF_BASELINE")) baseline_path = p;
  if (argc > 1) baseline_path = argv[1];
  std::string report_path = "perf_gate.json";
  if (const char* p = std::getenv("CSMT_PERF_GATE_JSON")) report_path = p;

  const Baseline baseline = load_baseline(baseline_path);

  const std::vector<GatePoint> points = {
      // Busy: a second SMT context keeps issuing through the misses, so
      // quiescent gaps are short — skip support must cost ~nothing here.
      {"chase", core::ArchKind::kSmt2, 4, 8000, "busy"},
      // Idle: one-wide clusters serialized on remote misses — long spans,
      // where the scheduler must keep its big win.
      {"chase", core::ArchKind::kFa1, 4, 20000, "idle"},
      // Cluster-idle: one cluster busy, seven blocked (DESIGN.md §14) — the
      // machine never quiesces, so the speedup here is purely per-cluster
      // sleep with lazy replay. Its floors lock the tentpole win in.
      {"cluster-idle", core::ArchKind::kFa2, 4, 20000, "busy"},
  };

  std::vector<GateResult> results;
  bool all_passed = true;
  for (const GatePoint& pt : points) {
    GateResult r;
    r.point = pt;
    sim::ExperimentResult skip, noskip;
    r.skip_seconds = time_kernel(pt, /*no_skip=*/false, &skip);
    r.noskip_seconds = time_kernel(pt, /*no_skip=*/true, &noskip);
    r.cycles = skip.stats.cycles;
    r.stats_equal = bench::same_stats(skip, noskip);
    apply_baseline(baseline, r);

    if (!r.stats_equal) {
      r.passed = false;
      r.failure = "kernel stats diverged or did not validate (skip vs "
                  "--no-skip)";
    } else if (r.min_speedup > 0 && r.speedup() < r.min_speedup) {
      r.passed = false;
      r.failure = "speedup below floor";
    } else if (r.baseline_cps > 0 &&
               r.skip_cps() <
                   (1.0 - baseline.max_drop_fraction) * r.baseline_cps) {
      r.passed = false;
      r.failure = "cycles/sec dropped >" +
                  std::to_string(100.0 * baseline.max_drop_fraction) +
                  "% below baseline";
    }
    all_passed = all_passed && r.passed;
    std::printf(
        "perf_gate %-5s %-6s chips=%u: %.3e cyc/s (baseline %.3e), "
        "no-skip %.3e cyc/s, speedup %.2fx (floor %.2fx), stats %s -> "
        "%s%s%s\n",
        r.point.regime.c_str(), core::arch_name(r.point.arch), r.point.chips,
        r.skip_cps(), r.baseline_cps, r.noskip_cps(), r.speedup(),
        r.min_speedup,
        r.stats_equal ? "equal" : "DIVERGED", r.passed ? "PASS" : "FAIL",
        r.passed ? "" : ": ", r.failure.c_str());
    results.push_back(std::move(r));
  }

  if (!report_path.empty()) {
    write_report(report_path, results, baseline.max_drop_fraction);
  }
  return all_passed ? 0 : 1;
}
