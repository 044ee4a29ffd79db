// Shared plumbing for the figure/table bench binaries.
//
// Every bench prints (a) the paper-style normalized stacked-bar figure,
// (b) a compact normalized table, and (c) a raw summary table, and can
// additionally write the full results as a JSON artifact. Grids run
// through csmt::sweep::SweepRunner: parallel across experiment points
// (--jobs / CSMT_JOBS), cached on disk (--cache-dir / CSMT_CACHE_DIR),
// deterministically ordered. The problem scale defaults to 4 (48..64-point
// grids — the paper's datasets shrunk to simulator-friendly sizes, see
// DESIGN.md) and can be overridden with --scale or CSMT_SCALE.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "cli/options.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sweep/sweep.hpp"
#include "workloads/workload.hpp"

namespace csmt::bench {

/// Resident-set size of this process right now, in bytes (0 where the
/// platform offers no cheap probe). Linux: VmRSS pages from /proc/self/statm.
inline std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long vm_pages = 0, rss_pages = 0;
    const int got = std::fscanf(f, "%lu %lu", &vm_pages, &rss_pages);
    std::fclose(f);
    if (got == 2) {
      return static_cast<std::uint64_t>(rss_pages) *
             static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    }
  }
#endif
  return 0;
}

/// Returns freed heap pages to the OS where the allocator supports it
/// (glibc malloc_trim; a no-op elsewhere). Bench points call this between
/// sweep points so each point's RSS delta measures *its* footprint rather
/// than whatever the allocator retained from earlier points.
inline void trim_host_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// High-water resident-set size of this process, in kilobytes (0 where
/// unavailable). Linux: ru_maxrss from getrusage.
inline std::uint64_t peak_rss_kb() {
#if defined(__linux__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<std::uint64_t>(ru.ru_maxrss);
  }
#endif
  return 0;
}

/// Skip-vs-`--no-skip` agreement: both results validated and their whole
/// RunStats, compared by stats digest, are equal.
inline bool same_stats(const sim::ExperimentResult& a,
                       const sim::ExperimentResult& b) {
  return a.validated && b.validated &&
         sweep::stats_digest(a) == sweep::stats_digest(b);
}

/// Per-binary options: the consolidated csmt::cli set (sweep controls,
/// problem scale, observability). The alias keeps the figure binaries'
/// historical spelling.
using BenchOptions = cli::Options;

/// Trace output path for point `index` of an `n`-point grid: the configured
/// path verbatim for a single point; with multiple points, ".p<index>" is
/// inserted before the extension ("trace.json" -> "trace.p3.json") so
/// parallel points never share a file.
inline std::string trace_path_for(const BenchOptions& opt, std::size_t index,
                                  std::size_t n) {
  if (opt.trace_path.empty()) return {};
  if (n <= 1) return opt.trace_path;
  const std::size_t dot = opt.trace_path.rfind('.');
  const std::string tag = ".p" + std::to_string(index);
  if (dot == std::string::npos || dot == 0) return opt.trace_path + tag;
  return opt.trace_path.substr(0, dot) + tag + opt.trace_path.substr(dot);
}

/// Flag/environment parsing, delegated to the shared csmt::cli parser (see
/// cli/options.hpp for the knob list and conventions).
inline BenchOptions parse_options(int argc, char** argv,
                                  unsigned default_scale = 4) {
  return cli::parse_options(argc, argv, default_scale);
}

/// Writes the machine-readable artifact when --json/CSMT_JSON asked for one.
inline void export_json(const BenchOptions& opt,
                        const std::vector<sim::ExperimentResult>& results) {
  if (opt.json_path.empty()) return;
  std::FILE* f = std::fopen(opt.json_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "csmt: cannot write JSON artifact '%s'\n",
                 opt.json_path.c_str());
    return;
  }
  const std::string doc = sim::render_json(results);
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "csmt: wrote %s (%zu results)\n",
               opt.json_path.c_str(), results.size());
}

/// Names each result that did not validate on stderr; true when all did.
inline bool all_validated(const std::vector<sim::ExperimentResult>& results) {
  bool ok = true;
  for (const sim::ExperimentResult& r : results) {
    if (r.validated) continue;
    std::fprintf(stderr, "csmt: %s on %s x%u at scale %u did not validate\n",
                 r.spec.workload.c_str(), core::arch_name(r.spec.arch),
                 r.spec.chips, r.spec.scale);
    ok = false;
  }
  return ok;
}

/// Runs an explicit point list through the sweep runner; results come back
/// in `points` order. Every bench that sweeps points runs them through
/// here, so --jobs, --cache-dir, --trace and --no-skip mean the same thing
/// in each.
/// Tracing (--trace / CSMT_TRACE) stamps a per-point trace path on every
/// point (see trace_path_for). Traced and --no-skip points bypass the
/// result cache, so the trace file is actually produced and the per-cycle
/// kernel actually runs.
inline std::vector<sim::ExperimentResult> run_points(
    const BenchOptions& opt, std::vector<sim::ExperimentSpec> points) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].trace_path = trace_path_for(opt, i, points.size());
    points[i].no_skip = opt.no_skip;
  }
  sweep::SweepRunner runner(opt.sweep);
  return runner.run(points);
}

/// Runs workloads x architectures on a machine with `chips` chips;
/// results come back in figure order (workload-major).
inline std::vector<sim::ExperimentResult> run_figure_grid(
    const BenchOptions& opt, const std::vector<std::string>& workloads,
    const std::vector<core::ArchKind>& archs, unsigned chips) {
  sweep::SweepSpec spec;
  spec.workloads = workloads;
  spec.archs = archs;
  spec.chips = {chips};
  spec.scales = {opt.scale};
  return run_points(opt, spec.expand());
}

/// Standard three-part report for one figure.
inline void print_figure(const std::string& title,
                         const std::vector<sim::ExperimentResult>& results,
                         const std::string& baseline) {
  std::printf("%s", sim::render_figure(title, results, baseline).c_str());
  std::printf("\nNormalized execution time (%s = 100):\n%s",
              baseline.c_str(),
              sim::render_normalized_table(results, baseline).c_str());
  std::printf("\nRaw results:\n%s\n",
              sim::render_summary_table(results).c_str());
}

inline std::vector<std::string> paper_workloads() {
  return workloads::workload_names();
}

}  // namespace csmt::bench
