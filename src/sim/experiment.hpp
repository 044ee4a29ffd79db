// Experiment: one (workload, architecture, machine) simulation with
// functional validation — the unit from which every figure is assembled.
#pragma once

#include <string>

#include "core/arch_config.hpp"
#include "obs/profile.hpp"
#include "sim/machine.hpp"
#include "workloads/workload.hpp"

namespace csmt::sim {

struct ExperimentSpec {
  std::string workload;          ///< one of workloads::workload_names()
  core::ArchKind arch = core::ArchKind::kSmt2;
  unsigned chips = 1;            ///< 1 = low-end, 4 = high-end
  unsigned scale = 3;            ///< workload problem scale
  /// Optional fetch-policy override (ablation A1); default = preset policy.
  std::optional<core::FetchPolicy> fetch_policy;
  /// Optional per-cluster window override (ablation A2): sets IQ, ROB and
  /// both renaming-register files to this many entries.
  std::optional<unsigned> window_size;
  /// Optional L1 organization override (ablation A5): true = per-cluster
  /// private L1s, false = the paper's shared L1.
  std::optional<bool> l1_private;

  /// Epoch length for interval metrics, in cycles (0 = off). Part of spec
  /// identity: the epoch series lives in the cached RunStats.
  Cycle metrics_interval = 0;

  // --- thread-to-cluster allocation (csmt::alloc, DESIGN.md §11) — part of
  // spec identity: a dynamic policy migrates threads and changes RunStats ---
  /// Placement policy; `static` reproduces the historical fill bit for bit.
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
  bool no_skip = false;

  // --- fault tolerance (csmt::ckpt, DESIGN.md §10) — also excluded from
  // identity: a resumed run produces bit-identical RunStats, so the result
  // cache needs no new key material ---
  /// Snapshot the machine every this many cycles (0 = off).
  Cycle ckpt_interval = 0;
  /// Checkpoint file to resume from and overwrite (empty = off).
  std::string ckpt_path;
  /// Identity tag for the checkpoint header (sweep passes spec_hash).
  std::uint64_t ckpt_tag = 0;

  /// Specs are value types; equality is what the sweep cache keys on.
  /// trace_path and profile_phases are deliberately not compared: two runs
  /// differing only in them produce identical RunStats.
  bool operator==(const ExperimentSpec& o) const {
    return workload == o.workload && arch == o.arch && chips == o.chips &&
           scale == o.scale && fetch_policy == o.fetch_policy &&
           window_size == o.window_size && l1_private == o.l1_private &&
           metrics_interval == o.metrics_interval &&
           alloc_policy == o.alloc_policy && alloc_epoch == o.alloc_epoch;
  }
};

struct ExperimentResult {
  ExperimentSpec spec;
  RunStats stats;
  bool validated = false;  ///< host reference matched the simulated result
  /// Wall-clock simulator speed of the run that produced `stats` (host-
  /// dependent, hence outside RunStats; a cached result reports the speed
  /// of the original run).
  obs::SimSpeed sim_speed;
  /// Cycle this run resumed from (0 = ran fresh; the first snapshot is
  /// taken at cycle ckpt_interval >= 1, so 0 is unambiguous).
  Cycle resumed_from_cycle = 0;
};

/// Builds the workload, runs it on the machine, validates functionally.
ExperimentResult run_experiment(const ExperimentSpec& spec);

}  // namespace csmt::sim
