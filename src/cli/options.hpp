// csmt::cli::Options — the consolidated option set shared by the bench and
// figure binaries: problem scale, sweep controls (workers, result cache),
// observability knobs, and the thread-to-cluster allocation policy
// (DESIGN.md §11).
//
// Every knob has an environment default and a flag override; see
// parse_options for the full list. bench::BenchOptions is an alias of this
// struct, so the figure binaries keep their historical spelling.
#pragma once

#include <string>

#include "alloc/policy.hpp"
#include "common/types.hpp"
#include "sweep/sweep.hpp"

namespace csmt::cli {

struct Options {
  unsigned scale = 4;           ///< workload problem scale (>= 1)
  sweep::SweepOptions sweep;    ///< workers, cache dir
  std::string json_path;        ///< JSON artifact path; empty = none
  std::string trace_path;       ///< Chrome-trace path; empty = none
  /// Force the per-cycle kernel (A/B verification, DESIGN.md §8). Results
  /// are bit-identical either way; --no-skip points neither read nor write
  /// the result cache, so the per-cycle kernel always runs.
  bool no_skip = false;

  // --- thread-to-cluster allocation (csmt::alloc, DESIGN.md §11) ---
  /// Placement policy; `static` is the paper's fixed assignment.
  alloc::PolicyKind alloc_policy = alloc::PolicyKind::kStatic;
  /// Cycles between reallocation epochs; 0 = the policy default.
  Cycle alloc_epoch = 0;

  /// Environment defaults only: CSMT_SCALE, CSMT_JOBS, CSMT_CACHE_DIR,
  /// CSMT_JSON, CSMT_TRACE, CSMT_NO_SKIP, CSMT_ALLOC_POLICY,
  /// CSMT_ALLOC_EPOCH. Malformed values warn and keep the default.
  static Options from_env(unsigned default_scale = 4);
};

/// from_env() overridden by flags: --scale N, --jobs N, --cache-dir PATH,
/// --json PATH, --trace PATH, --no-skip, --alloc-policy NAME,
/// --alloc-epoch N (both "--flag value" and "--flag=value"). Unknown
/// arguments and malformed flag values abort with a usage message (exit 2)
/// so typos don't silently run the wrong experiment.
Options parse_options(int argc, char** argv, unsigned default_scale = 4);

}  // namespace csmt::cli
