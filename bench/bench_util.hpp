// Shared plumbing for the figure/table bench binaries.
//
// Every figure bench prints (a) the paper-style normalized stacked-bar
// figure, (b) a compact normalized table, and (c) a raw summary table, and
// can additionally write the full results as a JSON artifact. Options and
// the run path are csmt::cli's (cli/options.hpp), shared with the csmt
// driver: grids run through csmt::sweep::SweepRunner, parallel across
// experiment points (--jobs / CSMT_JOBS), cached on disk (--cache-dir /
// CSMT_CACHE_DIR), deterministically ordered. The problem scale defaults to
// 4 (48..64-point grids — the paper's datasets shrunk to simulator-friendly
// sizes, see DESIGN.md) and can be overridden with --scale or CSMT_SCALE.
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

/// Runs workloads x architectures on a machine with `chips` chips;
/// results come back in figure order (workload-major).
inline std::vector<sim::ExperimentResult> run_figure_grid(
    const cli::Options& opt, const std::vector<std::string>& workloads,
    const std::vector<core::ArchKind>& archs, unsigned chips) {
  sweep::SweepSpec spec;
  spec.workloads = workloads;
  spec.archs = archs;
  spec.chips = {chips};
  spec.scales = {opt.scale};
  return cli::run_points(opt, spec.expand());
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

}  // namespace csmt::bench
