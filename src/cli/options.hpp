// csmt::cli::Options — the consolidated option set shared by the bench and
// figure binaries: problem scale, sweep controls (workers, result cache)
// and observability knobs.
//
// Every knob has an environment default and a flag override; see
// parse_options for the full list. bench::BenchOptions is an alias of this
// struct, so the figure binaries keep their historical spelling.
#pragma once

#include <string>

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

  /// Environment defaults only: CSMT_SCALE, CSMT_JOBS (0 = every hardware
  /// thread), CSMT_CACHE_DIR, CSMT_JSON, CSMT_TRACE, CSMT_NO_SKIP.
  /// Malformed values warn and keep the default; any other CSMT_* variable
  /// warns (warn_unknown_env).
  static Options from_env(unsigned default_scale = 4);
};

/// from_env() overridden by flags: --scale N, --jobs N, --cache-dir PATH,
/// --json PATH, --trace PATH, --no-skip (both "--flag value" and
/// "--flag=value"). Unknown arguments and malformed flag values abort with
/// a usage message (exit 2) so typos don't silently run the wrong
/// experiment.
Options parse_options(int argc, char** argv, unsigned default_scale = 4);

}  // namespace csmt::cli
