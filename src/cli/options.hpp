// csmt::cli — what the bench binaries and the csmt driver share: the option
// set (problem scale, sweep controls, observability knobs) and the one run
// path, run_points, that runs a point list under it.
//
// Every knob has an environment default and a flag override; see
// parse_options for the full list.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
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
};

/// Environment defaults overridden by flags. The environment: CSMT_SCALE,
/// CSMT_JOBS (0 = every hardware thread), CSMT_CACHE_DIR, CSMT_JSON,
/// CSMT_TRACE, CSMT_NO_SKIP; malformed values warn and keep the default,
/// and any other CSMT_* variable warns (warn_unknown_env). The flags:
/// --scale N, --jobs N, --cache-dir PATH, --json PATH, --trace PATH,
/// --no-skip (both "--flag value" and "--flag=value"). An unknown argument
/// or a malformed flag value prints why and the usage line, which lists
/// `own_flags` (a binary's own flags, already taken out of argv) ahead of
/// these, and exits 2, so a typo never silently runs the wrong experiment.
Options parse_options(int argc, char** argv, const char* own_flags = "");

/// Trace output path for point `index` of an `n`-point grid: the configured
/// path verbatim for a single point; with multiple points, ".p<index>" goes
/// between the file name's stem and its extension ("trace.json" ->
/// "trace.p3.json", "run.d/trace" -> "run.d/trace.p3") so parallel points
/// never share a file.
std::string trace_path_for(const Options& opt, std::size_t index,
                           std::size_t n);

/// Runs an explicit point list through the sweep runner; results come back
/// in `points` order. Every binary that sweeps points runs them through
/// here, so --jobs, --cache-dir, --trace and --no-skip mean the same thing
/// in each. Tracing stamps a per-point trace path (trace_path_for) on every
/// point and profiles its phases. Traced and --no-skip points bypass the
/// result cache, so the trace file is actually produced and the per-cycle
/// kernel actually runs.
std::vector<sim::ExperimentResult> run_points(
    const Options& opt, std::vector<sim::ExperimentSpec> points);

/// Writes the machine-readable artifact when --json/CSMT_JSON asked for one.
void export_json(const Options& opt,
                 const std::vector<sim::ExperimentResult>& results);

/// Names each result that did not validate on stderr; true when all did.
bool all_validated(const std::vector<sim::ExperimentResult>& results);

}  // namespace csmt::cli
