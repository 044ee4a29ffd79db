// The simulator-speed harness and CI gate (DESIGN.md §9). It runs a fixed
// point list through sim::run_experiment under both kernels (the skipping
// kernel kReps times, --no-skip kNoSkipReps times), prints one line per
// point and one verdict, and exits 1 when the verdict fails. With
// CSMT_SIMSPEED_JSON set it appends a run record, labelled by
// CSMT_SIMSPEED_LABEL, to that trajectory file ({"runs": [...]}, e.g.
// BENCH_simspeed.json); unset, it writes no file.
//
// The verdict has three checks and no others:
//  * hard: a run did not validate, or a run's stats digest, under either
//    kernel, differs from the first skip run's;
//  * structural: the idle and cluster-idle points skip fewer simulated
//    cycles than the constants in kPoints. Skip counts are simulated, so
//    this check never flakes;
//  * speed: every run is bracketed by short runs of a calibration loop
//    that touches no timing model, and its simulated cycles/s is divided
//    by the mean inst/s of its two brackets. The geometric mean over the
//    gated points of each point's median skip-kernel normalized rate must
//    reach kMinSpeed; the --no-skip runs feed only the recorded speedup.
//    A shared VM's speed can flip between levels 1.5x apart within
//    seconds; brackets taken right next to each run cancel that, so the
//    floor can sit close to measured values.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "cli/parse.hpp"
#include "common/json.hpp"
#include "exec/thread_group.hpp"
#include "obs/profile.hpp"
#include "sim/regime.hpp"

namespace {

using namespace csmt;

/// Repetitions of each point's skip-kernel run.
constexpr unsigned kReps = 11;
/// Repetitions of each point's --no-skip run: the median of three keeps
/// one slow run out of the recorded speedup.
constexpr unsigned kNoSkipReps = 3;
/// Wall time of one calibration bracket.
constexpr double kBracketSeconds = 0.03;
/// Floor on the geometric mean of the gated points' normalized rates
/// (simulated cycles per calibration instruction). Sized on a 4-vCPU
/// shared VM (DESIGN.md §9), where this code read 0.034-0.037 and a
/// planted slowdown of about 20% read 0.027-0.030.
constexpr double kMinSpeed = 0.031;

struct Point {
  const char* workload;
  core::ArchKind arch;
  unsigned chips;
  unsigned scale;  ///< problem scale; the chase kernels' iteration count
  bool gated;      ///< feeds the speed check's geometric mean
  /// Structural floors (0 = unchecked): the share of simulated cycles the
  /// clock jumped, and the share of cluster-cycles spent asleep.
  double min_quiet_fraction;
  double min_cluster_quiet_fraction;
};

const Point kPoints[] = {
    // Busy: a second SMT context keeps issuing through the misses, so
    // quiescent gaps are short and skip support must cost ~nothing.
    {"chase", core::ArchKind::kSmt2, 4, 8000, true, 0, 0},
    // Idle: one-wide clusters serialized on remote misses, so every
    // cluster sleeps through most of the run and the clock jumps.
    {"chase", core::ArchKind::kFa1, 4, 20000, true, 0.8, 0},
    // Cluster-idle: one cluster busy, the rest blocked at a barrier
    // (DESIGN.md §14), so the win is per-cluster sleep with lazy replay.
    // 200k iterations (~80 ms) keep timer and warm-up noise small.
    {"cluster-idle", core::ArchKind::kFa2, 4, 200000, true, 0, 0.8},
    // Real kernels and a low-end contrast point: recorded, not gated.
    {"mgrid", core::ArchKind::kFa1, 4, 2, false, 0, 0},
    {"ocean", core::ArchKind::kSmt2, 4, 2, false, 0, 0},
    {"swim", core::ArchKind::kSmt2, 4, 2, false, 0, 0},
    {"chase", core::ArchKind::kSmt2, 1, 20000, false, 0, 0},
};

/// The host's speed yardstick: the functional interpreter alone (swim at
/// scale 1 on one thread, exec::ThreadGroup::step with no timing model),
/// rerun on fresh memory until kBracketSeconds have passed. Returns
/// instructions per second of stepping. Each pass's build is left out of
/// the timing: right after a large point it mostly times the allocator
/// still reclaiming that point's heap.
double calibration_rate() {
  static const std::unique_ptr<workloads::Workload> swim =
      workloads::make_workload("swim");
  const obs::WallTimer bracket;
  std::uint64_t insts = 0;
  double stepping = 0.0;
  do {
    // Fresh memory per pass: the kernel mutates its arrays.
    mem::PagedMemory memory;
    const workloads::WorkloadBuild build = swim->build(memory, 1, 1);
    exec::ThreadGroup group(build.program, memory, 1, build.args_base);
    exec::DynInst d;
    const obs::WallTimer timer;
    while (group.thread(0).step(d)) ++insts;
    stepping += timer.elapsed_seconds();
  } while (bracket.elapsed_seconds() < kBracketSeconds);
  return static_cast<double>(insts) / stepping;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Row {
  const Point* point = nullptr;
  /// Repetition 0 of the skip kernel: its quiet counters are simulated,
  /// so they are the same in every repetition.
  obs::SimSpeed speed;
  double skip_seconds = 0.0;     ///< median over repetitions
  double noskip_seconds = 0.0;   ///< median over --no-skip repetitions
  double normalized_rate = 0.0;  ///< median over repetitions
  double noskip_normalized_rate = 0.0;  ///< median over --no-skip reps
  std::vector<double> calibrations;  ///< every bracket's inst/s
  std::uint64_t peak_rss_kb = 0;     ///< process high-water mark after it
  /// RSS growth across this point (after the previous point's trim): the
  /// footprint this point adds.
  std::uint64_t rss_delta_kb = 0;
  bool stats_equal = false;

  /// DESIGN.md §12's tag, derived from the simulated quiet fraction.
  const char* regime() const {
    return sim::regime_name(sim::classify_regime(speed.quiet_fraction()));
  }
  double cluster_quiet_fraction() const {
    const double cluster_cycles =
        static_cast<double>(speed.sim_cycles) * point->chips *
        core::arch_preset(point->arch).clusters;
    return cluster_cycles > 0 ? speed.cluster_quiet_cycles / cluster_cycles
                              : 0.0;
  }
  double skip_cps() const {
    return skip_seconds > 0 ? speed.sim_cycles / skip_seconds : 0.0;
  }
  double noskip_cps() const {
    return noskip_seconds > 0 ? speed.sim_cycles / noskip_seconds : 0.0;
  }
  /// Skip over --no-skip, from calibrated rates: host speed that shifts
  /// between the two kernels' runs cancels.
  double speedup() const {
    return noskip_normalized_rate > 0
               ? normalized_rate / noskip_normalized_rate
               : 0.0;
  }
};

Row run_point(const Point& pt) {
  Row row;
  row.point = &pt;
  sim::ExperimentSpec spec;
  spec.workload = pt.workload;
  spec.arch = pt.arch;
  spec.chips = pt.chips;
  spec.scale = pt.scale;
  const std::uint64_t rss_before = bench::current_rss_bytes();

  std::optional<sim::ExperimentResult> first;
  row.stats_equal = true;
  double before = calibration_rate();
  row.calibrations.push_back(before);
  // Runs `spec` `reps` times, each followed by a calibration bracket, and
  // returns the median wall seconds and normalized rate. Every run's
  // digest is compared with the first skip run's.
  const auto time_reps = [&](unsigned reps) {
    std::vector<double> seconds, rates;
    for (unsigned rep = 0; rep < reps; ++rep) {
      sim::ExperimentResult r = sim::run_experiment(spec);
      const double after = calibration_rate();
      row.calibrations.push_back(after);
      seconds.push_back(r.sim_speed.wall_seconds);
      rates.push_back(r.sim_speed.cycles_per_sec() /
                      (0.5 * (before + after)));
      before = after;
      if (first) {
        row.stats_equal = row.stats_equal && bench::same_stats(r, *first);
      } else {
        first = std::move(r);
      }
    }
    return std::pair{median(seconds), median(rates)};
  };
  std::tie(row.skip_seconds, row.normalized_rate) = time_reps(kReps);
  spec.no_skip = true;
  std::tie(row.noskip_seconds, row.noskip_normalized_rate) =
      time_reps(kNoSkipReps);

  row.speed = first->sim_speed;
  row.peak_rss_kb = bench::peak_rss_kb();
  const std::uint64_t rss_after = bench::current_rss_bytes();
  row.rss_delta_kb =
      rss_after > rss_before ? (rss_after - rss_before) / 1024 : 0;
  bench::trim_host_memory();
  return row;
}

std::string point_name(const Point& pt) {
  return std::string(pt.workload) + " " + core::arch_name(pt.arch) + "x" +
         std::to_string(pt.chips);
}

struct Verdict {
  double calibration = 0.0;  ///< median inst/s over every bracket
  double speed = 0.0;        ///< geometric mean of the gated rates
  std::vector<std::string> failures;
  bool passed() const { return failures.empty(); }
};

Verdict judge(const std::vector<Row>& rows) {
  Verdict v;
  std::vector<double> calibrations;
  double log_sum = 0.0;
  unsigned gated = 0;
  for (const Row& r : rows) {
    const Point& pt = *r.point;
    calibrations.insert(calibrations.end(), r.calibrations.begin(),
                        r.calibrations.end());
    if (!r.stats_equal) {
      v.failures.push_back(point_name(pt) +
                           ": stats diverged or did not validate");
    }
    char buf[160];
    if (r.speed.quiet_fraction() < pt.min_quiet_fraction) {
      std::snprintf(buf, sizeof buf, "%s: quiet fraction %.3f < %.3f",
                    point_name(pt).c_str(), r.speed.quiet_fraction(),
                    pt.min_quiet_fraction);
      v.failures.push_back(buf);
    }
    if (r.cluster_quiet_fraction() < pt.min_cluster_quiet_fraction) {
      std::snprintf(buf, sizeof buf, "%s: cluster-quiet fraction %.3f < %.3f",
                    point_name(pt).c_str(), r.cluster_quiet_fraction(),
                    pt.min_cluster_quiet_fraction);
      v.failures.push_back(buf);
    }
    if (pt.gated) {
      log_sum += std::log(r.normalized_rate);
      ++gated;
    }
  }
  v.calibration = median(calibrations);
  v.speed = std::exp(log_sum / gated);
  if (!(v.speed >= kMinSpeed)) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "speed %.4f < floor %.4f", v.speed,
                  kMinSpeed);
    v.failures.push_back(buf);
  }
  return v;
}

json::Value run_record(const std::vector<Row>& rows, const Verdict& v) {
  json::Value rec = json::Value::object();
  if (const char* label = cli::env("CSMT_SIMSPEED_LABEL"))
    rec["label"] = std::string(label);
  char stamp[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  rec["recorded_at"] = std::string(stamp);
  rec["reps"] = static_cast<std::uint64_t>(kReps);
  // Wall timings only mean something relative to the host's width.
  rec["host_threads"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  rec["calibration_inst_per_sec"] = v.calibration;
  rec["speed"] = v.speed;
  rec["speed_floor"] = kMinSpeed;
  rec["verdict"] = std::string(v.passed() ? "pass" : "fail");
  json::Value failures = json::Value::array();
  for (const std::string& f : v.failures) failures.push_back(f);
  rec["failures"] = std::move(failures);

  json::Value points = json::Value::array();
  for (const Row& r : rows) {
    json::Value p = json::Value::object();
    p["name"] = std::string(r.point->workload);
    p["arch"] = std::string(core::arch_name(r.point->arch));
    p["regime"] = std::string(r.regime());
    p["chips"] = static_cast<std::uint64_t>(r.point->chips);
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
    p["normalized_rate"] = r.normalized_rate;
    p["gated"] = r.point->gated;
    p["peak_rss_kb"] = r.peak_rss_kb;
    p["rss_delta_kb"] = r.rss_delta_kb;
    p["stats_equal"] = r.stats_equal;
    points.push_back(std::move(p));
  }
  rec["points"] = std::move(points);
  return rec;
}

/// Appends `rec` to the trajectory at `path`, so the speed history across
/// commits reads straight off the file. An unparseable file starts a fresh
/// trajectory.
void append_record(const std::string& path, json::Value rec) {
  json::Value doc = json::Value::object();
  doc["benchmark"] = std::string("perf_gate");
  doc["runs"] = json::Value::array();
  if (std::ifstream in(path, std::ios::binary); in) {
    std::ostringstream text;
    text << in.rdbuf();
    if (const auto prev = json::Value::parse(text.str())) {
      if (const json::Value* runs = prev->find("runs")) {
        for (const json::Value& r : runs->items()) doc["runs"].push_back(r);
      }
    } else {
      std::fprintf(stderr,
                   "perf_gate: '%s' is not valid JSON; starting a fresh "
                   "trajectory\n",
                   path.c_str());
    }
  }
  doc["runs"].push_back(std::move(rec));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << doc.dump(2);
  if (!out) {
    std::fprintf(stderr, "perf_gate: cannot write '%s'\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "perf_gate: appended run %zu to %s\n",
               doc["runs"].items().size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: %s  (takes no arguments; CSMT_SIMSPEED_JSON names a "
                 "trajectory to append to, CSMT_SIMSPEED_LABEL labels the "
                 "record)\n",
                 argv[0]);
    return 2;
  }
  cli::warn_unknown_env();
  std::vector<Row> rows;
  for (const Point& pt : kPoints) {
    rows.push_back(run_point(pt));
    const Row& r = rows.back();
    std::printf(
        "perf_gate %-5s %-18s %.3e cyc/s (normalized %.4f%s), no-skip "
        "%.3e cyc/s (%.2fx), quiet %.3f, cluster-quiet %.3f, stats %s\n",
        r.regime(), point_name(pt).c_str(), r.skip_cps(), r.normalized_rate,
        pt.gated ? ", gated" : "", r.noskip_cps(), r.speedup(),
        r.speed.quiet_fraction(), r.cluster_quiet_fraction(),
        r.stats_equal ? "equal" : "DIVERGED");
    std::fflush(stdout);
  }

  const Verdict v = judge(rows);
  std::string reasons;
  for (const std::string& f : v.failures)
    reasons += (reasons.empty() ? ": " : "; ") + f;
  std::printf(
      "perf_gate verdict: %s (speed %.4f, floor %.4f, calibration %.3e "
      "inst/s)%s\n",
      v.passed() ? "PASS" : "FAIL", v.speed, kMinSpeed, v.calibration,
      reasons.c_str());

  const char* path = cli::env("CSMT_SIMSPEED_JSON");
  if (path && *path) append_record(path, run_record(rows, v));
  return v.passed() ? 0 : 1;
}
