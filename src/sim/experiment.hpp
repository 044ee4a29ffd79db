// Experiment: one (workload, architecture, machine) simulation with
// functional validation — the unit from which every figure is assembled.
#pragma once

#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "obs/profile.hpp"
#include "sim/machine.hpp"
#include "workloads/workload.hpp"

namespace csmt::sim {

struct ExperimentSpec {
  /// A registered workload ("swim", "chase") or a multiprogrammed mix of
  /// them ("swim+ocean", "tomcatv*2+mgrid*6"): see workloads::split_contexts.
  std::string workload;
  core::ArchKind arch = core::ArchKind::kSmt2;
  unsigned chips = 1;            ///< 1 = low-end, 4 = high-end
  unsigned scale = 3;            ///< workload problem scale
  /// Optional fetch-policy override (ablation A1); default = preset policy.
  std::optional<core::FetchPolicy> fetch_policy;
  /// Optional per-cluster window override (ablation A2): the window's
  /// entries (ROB, IQ and both renaming-register files alike).
  std::optional<unsigned> window_size;
  /// Optional L1 organization override (ablation A5): true = per-cluster
  /// private L1s, false = the paper's shared L1.
  std::optional<bool> l1_private;

  // --- thread-to-cluster allocation (csmt::alloc, DESIGN.md §11) — part of
  // spec identity: a dynamic policy migrates threads and changes RunStats ---
  /// Migration policy; `static` keeps the historical fill and never
  /// migrates.
  alloc::PolicyKind alloc_policy = alloc::PolicyKind::kStatic;
  /// Cycles between reallocation decisions (0 = the policy default).
  Cycle alloc_epoch = 0;

  // --- observability knobs excluded from identity (they never perturb
  // RunStats; see DESIGN.md §7) ---
  /// Chrome-trace output path; empty = no tracing.
  std::string trace_path;
  /// Record the per-phase host-time breakdown in the result's SimSpeed.
  bool profile_phases = false;
  /// Force the per-cycle kernel (no idle-cycle skipping, DESIGN.md §8).
  /// Excluded from identity like the other knobs here: the two kernels
  /// produce bit-identical RunStats, they just spend different host time.
  /// Traced and no_skip points never touch the sweep's result cache.
  bool no_skip = false;

  /// Specs are value types; equality is what the sweep cache keys on.
  /// trace_path, profile_phases and no_skip are deliberately not compared:
  /// two runs differing only in them produce identical RunStats.
  bool operator==(const ExperimentSpec& o) const {
    return workload == o.workload && arch == o.arch && chips == o.chips &&
           scale == o.scale && fetch_policy == o.fetch_policy &&
           window_size == o.window_size && l1_private == o.l1_private &&
           alloc_policy == o.alloc_policy && alloc_epoch == o.alloc_epoch;
  }
};

struct ExperimentResult {
  ExperimentSpec spec;
  RunStats stats;
  /// Completion cycle of each job of a mix, in name order; empty for a
  /// single workload. Serialized inside "stats", so the cache seal covers
  /// it. The mix's makespan is stats.cycles.
  std::vector<Cycle> job_finish;
  bool validated = false;  ///< every job's host reference matched
  /// Wall-clock simulator speed of the run that produced `stats` (host-
  /// dependent, hence outside RunStats; a cached result reports the speed
  /// of the original run).
  obs::SimSpeed sim_speed;
};

/// Builds each job of the workload in its own address space, runs them
/// together on the machine, and validates every job functionally. Aborts
/// when the workload name cannot run on the machine (split_contexts).
ExperimentResult run_experiment(const ExperimentSpec& spec);

}  // namespace csmt::sim
