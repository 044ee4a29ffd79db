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

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
#include "cli/parse.hpp"
#include "isa/builder.hpp"
#include "mem/paged_memory.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sweep/sweep.hpp"
#include "workloads/workload.hpp"

namespace csmt::bench {

/// The one timing utility every bench binary uses: a monotonic stopwatch on
/// std::chrono::steady_clock. Wall timings must never come from
/// system_clock (NTP steps corrupt measurements) or CPU clocks (they hide
/// blocked time); funnelling everything through here keeps the bench
/// binaries consistent with obs::WallTimer's choice.
class StopWatch {
 public:
  StopWatch() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

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

// ---------------------------------------------------------------------------
// The pointer-chase micro-workload shared by micro_simspeed and perf_gate:
// per-thread chains of dependent loads, each a cold miss on its own page,
// with nothing else to issue once the window fills — the long-latency
// regime the quiescence scheduler targets.

inline constexpr Addr kChaseBase = 1 << 20;
inline constexpr std::uint64_t kChaseRegionBytes = 8ull << 20;  ///< per thread
inline constexpr std::uint64_t kChaseRegionWords = kChaseRegionBytes / 8;
inline constexpr std::uint64_t kChaseStrideWords = 1031;  ///< odd: full-cycle walk

/// Per-thread pointer chase: `iters` dependent loads (p = mem[p]).
inline isa::Program chase_program(std::uint64_t iters) {
  isa::ProgramBuilder b("chase");
  const isa::Reg p = b.ireg();
  const isa::Reg cnt = b.ireg();
  const isa::Reg region = b.ireg();
  b.li(region, kChaseRegionBytes);
  b.mul(region, b.tid(), region);
  b.add(p, b.args(), region);
  b.li(cnt, static_cast<std::int64_t>(iters));
  const isa::Label loop = b.new_label();
  b.bind(loop);
  b.ld(p, p, 0);  // p = mem[p]: the serializing dependence
  b.addi(cnt, cnt, -1);
  b.bne(cnt, b.zero(), loop);
  b.halt();
  return b.take();
}

/// Lays out each thread's chain so every step lands on a fresh page.
inline void init_chase_memory(mem::PagedMemory& memory, unsigned threads,
                              std::uint64_t iters) {
  for (unsigned t = 0; t < threads; ++t) {
    const Addr base = kChaseBase + t * kChaseRegionBytes;
    std::uint64_t cur = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      const std::uint64_t next = (cur + kChaseStrideWords) % kChaseRegionWords;
      memory.write(base + cur * 8, base + next * 8);
      cur = next;
    }
  }
}

/// Counter equality between two kernels' RunStats (the exhaustive per-field
/// comparison lives in the golden-stats test; this is the cheap gate).
inline bool stats_match(const sim::RunStats& a, const sim::RunStats& b) {
  return a.cycles == b.cycles && a.committed_useful == b.committed_useful &&
         a.committed_sync == b.committed_sync && a.fetched == b.fetched &&
         a.timed_out == b.timed_out &&
         a.avg_running_threads == b.avg_running_threads &&
         a.slots.total() == b.slots.total();
}

inline unsigned scale_from_env(unsigned fallback = 4) {
  return static_cast<unsigned>(
      cli::env_u64("CSMT_SCALE", fallback, 1, "an integer >= 1"));
}

/// Per-binary options: the consolidated csmt::cli set (sweep controls,
/// problem scale, observability, allocation policy). The alias keeps the
/// figure binaries' historical spelling.
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

/// Runs workloads x architectures on a machine with `chips` chips through
/// the sweep runner; results come back in figure order (workload-major).
/// Tracing (--trace / CSMT_TRACE) stamps a per-point trace path on every
/// expanded point (see trace_path_for); traced points bypass the result
/// cache so the trace file is actually produced.
inline std::vector<sim::ExperimentResult> run_figure_grid(
    const BenchOptions& opt, const std::vector<std::string>& workloads,
    const std::vector<core::ArchKind>& archs, unsigned chips) {
  sweep::SweepSpec spec;
  spec.workloads = workloads;
  spec.archs = archs;
  spec.chips = {chips};
  spec.scales = {opt.scale};
  spec.metrics_interval = opt.metrics_interval;
  spec.alloc_policy = opt.alloc_policy;
  spec.alloc_epoch = opt.alloc_epoch;
  sweep::SweepRunner runner(opt.sweep);
  if (opt.trace_path.empty() && !opt.no_skip) return runner.run(spec);
  std::vector<sim::ExperimentSpec> points = spec.expand();
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].trace_path = trace_path_for(opt, i, points.size());
    points[i].no_skip = opt.no_skip;
  }
  return runner.run(points);
}

/// Deprecated serial-era entry point, kept for one release as a shim over
/// SweepRunner (options from the environment only).
[[deprecated("use bench::run_figure_grid / sweep::SweepRunner")]]
inline std::vector<sim::ExperimentResult> run_grid(
    const std::vector<std::string>& workloads,
    const std::vector<core::ArchKind>& archs, unsigned chips,
    unsigned scale) {
  sweep::SweepSpec spec;
  spec.workloads = workloads;
  spec.archs = archs;
  spec.chips = {chips};
  spec.scales = {scale};
  sweep::SweepRunner runner;
  return runner.run(spec);
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
