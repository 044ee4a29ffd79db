// Machine: the full simulated system. Low-end = one chip over a local
// memory controller (§5, "a simple workstation"); high-end = four chips over
// the DASH-like coherent interconnect (§3.4, Figure 3).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "alloc/policy.hpp"
#include "cache/backend.hpp"
#include "common/types.hpp"
#include "core/chip.hpp"
#include "exec/thread_group.hpp"
#include "isa/program.hpp"
#include "noc/dash.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace csmt::alloc {
class Controller;
}

namespace csmt::sim {

class Scheduler;

struct MachineConfig {
  core::ArchConfig arch;
  unsigned chips = 1;  ///< 1 = low-end, 4 = high-end (paper's two machines)
  cache::MemSysParams mem;
  noc::NocParams noc;
  /// Watchdog: abort the run (timed_out=true) after this many cycles.
  Cycle max_cycles = 500'000'000;

  /// Force the per-cycle kernel: disable the scheduler's idle-cycle
  /// skipping (DESIGN.md §8). RunStats, epochs, and traces are
  /// bit-identical either way — this is the A/B verification escape hatch,
  /// not a fidelity knob.
  bool no_skip = false;

  // --- observability (all off by default; RunStats counters are
  // bit-identical with these on or off, see DESIGN.md §7) ---
  /// Event sink for the whole machine; not owned, must outlive the machine.
  obs::TraceSink* trace = nullptr;
  /// Host-time phase profiler; not owned, must outlive the machine.
  obs::PhaseProfiler* profiler = nullptr;
  /// Epoch length for interval metrics, in cycles; 0 = no epochs.
  Cycle metrics_interval = 0;

  // --- thread-to-cluster allocation (csmt::alloc, DESIGN.md §11) ---
  /// Placement policy and dynamic-migration knobs. The default (`static`,
  /// epoch 0) reproduces the historical startup fill bit for bit and adds
  /// nothing to the run loop.
  alloc::AllocConfig alloc;

  /// Hardware thread contexts across the machine — the paper creates
  /// exactly this many software threads (§4).
  unsigned total_threads() const {
    return chips * arch.threads_per_chip();
  }
};

struct MemCounters {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::array<std::uint64_t, 6> by_level = {};  ///< ServiceLevel order
  std::uint64_t bank_rejections = 0;
  std::uint64_t mshr_rejections = 0;
  std::uint64_t upgrades = 0;
  /// Write-invalidate traffic between private L1s (0 with a shared L1).
  std::uint64_t l1_cross_invalidations = 0;
  double l1_miss_rate = 0.0;
  double l2_miss_rate = 0.0;
  double tlb_miss_rate = 0.0;
};

struct RunStats {
  Cycle cycles = 0;
  core::SlotStats slots;
  std::uint64_t committed_useful = 0;
  std::uint64_t committed_sync = 0;
  std::uint64_t fetched = 0;
  bool timed_out = false;

  /// Average number of running (non-halted, non-spinning) threads per chip —
  /// the Figure 6 x-axis.
  double avg_running_threads = 0.0;

  branch::PredictorStats predictor;
  MemCounters mem;
  std::optional<noc::DashStats> dash;  ///< high-end machines only

  /// Allocation-subsystem counters (all zero for `static` runs).
  alloc::AllocStats alloc;

  /// Interval-metrics time series; empty unless
  /// MachineConfig::metrics_interval was set. Deterministic (pure cycle
  /// counters), so it participates in result caching like any counter.
  std::vector<obs::EpochSample> epochs;

  /// Useful instructions committed per cycle across the machine — the
  /// Figure 6 y-axis when measured on FA1.
  double useful_ipc() const {
    return cycles ? static_cast<double>(committed_useful) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
};

/// One job of a multiprogrammed run: an independent program with its own
/// functional memory, given `threads` hardware contexts.
struct Job {
  const isa::Program* program = nullptr;
  mem::PagedMemory* memory = nullptr;
  Addr args_base = 0;
  unsigned threads = 1;
};

/// The unified workload description: one or more jobs whose thread counts
/// sum to the machine's hardware contexts. A single-program SPMD run is the
/// one-job special case.
struct Mix {
  std::vector<Job> jobs;

  /// One job over all of the machine's contexts — the classic SPMD run.
  static Mix single(const isa::Program& program, mem::PagedMemory& memory,
                    Addr args_base, unsigned threads) {
    return Mix{{Job{&program, &memory, args_base, threads}}};
  }
};

struct MultiRunStats {
  Cycle makespan = 0;                ///< all jobs complete
  std::vector<Cycle> job_finish;     ///< per-job completion cycle
  RunStats combined;                 ///< machine-wide statistics
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);
  ~Machine();

  /// Runs a mix to completion (all threads halted, pipelines drained,
  /// migrations settled). Each job runs in its own address space on its own
  /// share of the machine's hardware contexts (the multiprogrammed style of
  /// the paper's SMT citations [16,9]); job thread counts must be nonzero
  /// and sum to total_threads(). One Machine instance runs one mix.
  MultiRunStats run(const Mix& mix);

  const MachineConfig& config() const { return cfg_; }
  core::Chip& chip(unsigned i) { return *chips_[i]; }
  unsigned num_chips() const { return static_cast<unsigned>(chips_.size()); }

  /// Simulated cycles the last run() advanced through the scheduler's
  /// quiet path (0 with no_skip). Observability only — it feeds SimSpeed,
  /// never RunStats.
  Cycle quiet_cycles() const { return quiet_cycles_; }

  /// Per-cluster cycles skipped while the machine was busy and replayed
  /// lazily at wake time (DESIGN.md §14; 0 with no_skip or tracing).
  /// Observability only — it feeds SimSpeed, never RunStats.
  std::uint64_t cluster_quiet_cycles() const {
    std::uint64_t n = 0;
    for (const auto& chip : chips_) n += chip->lazy_replayed();
    return n;
  }

 private:
  friend class Scheduler;

  RunStats collect_stats(Cycle cycles, double running_accum, bool timed_out);

  // --- Scheduler-facing stepping interface ---
  bool all_finished() const;
  /// Ticks every chip; returns true when any chip changed observable state
  /// this cycle (the scheduler's activity signal — no second poll needed).
  bool tick_chips(Cycle now);
  /// Running-thread count after the last tick (constant across a span).
  unsigned running_now() const;
  /// Machine-wide horizon: min over chips and the interconnect. `now` is
  /// the cycle of the tick just executed.
  Cycle next_event(Cycle now);
  /// Replays the `n` cycles of a machine-wide quiescent span starting at
  /// `from` on every awake cluster. Untraced, each cluster replays the
  /// span at once; traced, cycle by cycle with every chip inside each
  /// cycle, so the trace file's event order is the per-cycle kernel's.
  void quiet_span_chips(Cycle from, Cycle n);
  /// Replays sleeping clusters' skipped cycles < `upto` (DESIGN.md §14);
  /// required before any external read of cluster stats (epoch closes, end
  /// of run).
  void settle_chips(Cycle upto);

  /// Cumulative machine-wide counters for the epoch sampler.
  obs::EpochCounters snapshot_counters() const;
  /// Names the trace tracks of `group`'s threads on the sync pseudo-process.
  void trace_name_sync_tracks(const exec::ThreadGroup& group);
  /// Closes open trace slices at end of run.
  void trace_flush(Cycle end);

  MachineConfig cfg_;
  std::unique_ptr<cache::LocalMemoryBackend> local_backend_;
  std::unique_ptr<noc::DashInterconnect> dash_;
  std::vector<std::unique_ptr<core::Chip>> chips_;
  Cycle quiet_cycles_ = 0;
  /// Live only while run() executes a dynamic-allocation mix; all_finished
  /// consults it so a run cannot end with a thread mid-migration.
  alloc::Controller* alloc_ctl_ = nullptr;
};

}  // namespace csmt::sim
