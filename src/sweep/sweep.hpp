// The batch experiment API: every figure/table of the paper reproduction is
// a grid of independent (workload, architecture, machine) points, so this
// subsystem runs whole grids instead of single experiments — on a worker
// pool (each point owns its Machine and functional memory, making points
// embarrassingly parallel), with deterministic result ordering, an on-disk
// result cache keyed by a stable spec hash, and JSON artifacts via
// sim::render_json.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/arch_config.hpp"
#include "sim/experiment.hpp"

namespace csmt::sweep {

/// A cartesian grid of experiment points: workloads x archs x chips x
/// scales, expanded workload-major (the order the paper's figures group
/// bars in). Per-point settings (the ablations' fetch policy, window and
/// L1 organization, E1's allocation policy) are set on the expanded
/// ExperimentSpecs.
struct SweepSpec {
  std::vector<std::string> workloads;
  std::vector<core::ArchKind> archs;
  std::vector<unsigned> chips = {1};
  std::vector<unsigned> scales = {3};

  /// Expansion order: workload-major, then arch, then chips, then scale —
  /// identical to the nesting of the old per-bench loops.
  std::vector<sim::ExperimentSpec> expand() const;
};

struct SweepOptions {
  /// Worker threads. 1 = serial (the default); 0 = one per hardware thread.
  unsigned jobs = 1;
  /// Result-cache directory; empty disables caching.
  std::string cache_dir;
  /// Progress line on stderr: "k/N done (hits=H)
  /// regimes[busy/mixed/idle]=b/m/i elapsed=Xs" — rewritten in place on a
  /// terminal, throttled newline-terminated lines when piped.
  bool progress = true;
  /// Unread: mid-run checkpointing was removed (an interrupted sweep
  /// resumes from the result cache). The field stays because
  /// perfbench/csmt_perfbench.cpp still assigns it, and that benchmark is
  /// kept unchanged so its runs compare across commits.
  Cycle ckpt_interval = 0;
  /// Unread: live telemetry serving was removed. Kept for the same reason
  /// as ckpt_interval.
  int serve_telemetry = -1;
};

/// Tally of how a run's points were satisfied.
struct SweepCounters {
  std::uint64_t executed = 0;    ///< points actually simulated
  std::uint64_t cache_hits = 0;  ///< points served from the result cache
};

/// Stable 64-bit key of an experiment point: FNV-1a over a canonical
/// encoding of the spec *and* the resolved Table 2 preset, salted with the
/// cache schema version — so editing a preset or the result schema
/// invalidates stale cache entries, while rebuilding the binary does not.
std::uint64_t spec_hash(const sim::ExperimentSpec& spec);

/// File name ("csmt-<16 hex digits>.json") of a point's cache entry.
std::string cache_entry_name(const sim::ExperimentSpec& spec);

/// RunStats digest: FNV-1a over the compact dump of the "stats" object
/// that sim::to_json writes (host timing, sim_speed, lies outside it). The
/// paper-grid fingerprints pin this digest.
std::uint64_t stats_digest(const sim::ExperimentResult& result);
/// The same digest of an already-built "stats" object.
std::uint64_t stats_digest(const json::Value& stats);

/// Cache-entry seal: FNV-1a over the spec's canonical encoding (the one
/// spec_hash keys on) followed by the compact dump of the "stats" object.
/// Every cache entry carries it as "seal" (16 hex digits).
std::uint64_t entry_seal(const sim::ExperimentSpec& spec,
                         const json::Value& stats);

/// Single-entry cache probe: the cached result for `spec` in `cache_dir`,
/// or nullopt on a miss. A traced or --no-skip spec always misses: it must
/// run the kernel it asks for. Entries fail closed: a missing or unparsable
/// file, a spec mismatch, any field the decoder rejects, a seal that does
/// not match `spec` and the decoded stats, and a `validated` other than
/// true are all misses, which the runner recomputes and overwrites. Safe
/// against concurrent writers (entries are only ever renamed into place,
/// never written in place), so a killed sweep leaves only whole entries.
std::optional<sim::ExperimentResult> cache_probe(
    const std::string& cache_dir, const sim::ExperimentSpec& spec);

/// Atomically publishes `result` into `cache_dir` (write-tmp-then-rename
/// with a pid-unique tmp name, so any number of processes can race the same
/// entry and readers still only ever see a complete file). No-op on an
/// empty dir, an unwritable path, a traced or --no-skip spec (whose
/// sim_speed skipped nothing), or a result that did not validate: only
/// validated points are served from the cache.
void cache_publish(const std::string& cache_dir,
                   const sim::ExperimentResult& result);

class SweepRunner {
 public:
  /// The runner reads no environment; cli::parse_options(...).sweep
  /// carries --jobs/CSMT_JOBS and --cache-dir/CSMT_CACHE_DIR.
  explicit SweepRunner(SweepOptions options);

  /// Runs every point of the grid; results arrive in expand() order
  /// regardless of jobs, and are bit-identical to a serial run.
  std::vector<sim::ExperimentResult> run(const SweepSpec& spec);

  /// Runs an explicit point list (for non-cartesian sweeps such as the
  /// window-size ablation); results arrive in `points` order.
  std::vector<sim::ExperimentResult> run(
      const std::vector<sim::ExperimentSpec>& points);

  const SweepOptions& options() const { return options_; }
  const SweepCounters& counters() const { return counters_; }

 private:
  SweepOptions options_;
  SweepCounters counters_;
};

}  // namespace csmt::sweep
