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
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace csmt::alloc {
class Controller;
}

namespace csmt::sim {

struct MachineConfig {
  core::ArchConfig arch;
  unsigned chips = 1;  ///< 1 = low-end, 4 = high-end (paper's two machines)
  cache::MemSysParams mem;
  noc::NocParams noc;
  /// Watchdog: abort the run (timed_out=true) after this many cycles.
  Cycle max_cycles = 500'000'000;

  /// Force the per-cycle kernel: no cluster sleeps, so no cycle is skipped
  /// (DESIGN.md §8). RunStats and traces are bit-identical either
  /// way — this is the A/B verification escape hatch, not a fidelity knob.
  bool no_skip = false;

  // --- observability (all off by default; RunStats counters are
  // bit-identical with these on or off, see DESIGN.md §7) ---
  /// Trace writer for the whole machine; not owned, must outlive the machine.
  obs::ChromeTraceWriter* trace = nullptr;
  /// Host-time phase profiler; not owned, must outlive the machine.
  obs::PhaseProfiler* profiler = nullptr;

  // --- thread-to-cluster allocation (csmt::alloc, DESIGN.md §11) ---
  /// Migration policy and epoch. Every run starts from the historical
  /// startup fill; the default (`static`) keeps it, builds no controller
  /// and adds nothing to the run loop.
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

  /// Simulated cycles run() jumped while every cluster slept (0 with
  /// no_skip or tracing). Observability only — it feeds SimSpeed, never
  /// RunStats.
  Cycle quiet_cycles() const { return quiet_cycles_; }

  /// Per-cluster cycles skipped while asleep and replayed lazily at wake
  /// time (DESIGN.md §14; 0 with no_skip or tracing). Observability only —
  /// it feeds SimSpeed, never RunStats.
  std::uint64_t cluster_quiet_cycles() const {
    std::uint64_t n = 0;
    for (const auto& chip : chips_) n += chip->lazy_replayed();
    return n;
  }

 private:
  /// `running_accum` is the running-thread count summed over cycles.
  RunStats collect_stats(Cycle cycles, std::uint64_t running_accum,
                         bool timed_out);

  bool all_finished() const;
  /// Ticks every chip; returns true when any chip changed observable state
  /// this cycle.
  bool tick_chips(Cycle now);
  /// Running-thread count after the last tick (constant while every
  /// cluster sleeps).
  unsigned running_now() const;
  /// The cycle run() may jump to: the earliest sleeper wake when every
  /// cluster on every chip sleeps and none is flagged for a wake, else at
  /// most now_.
  Cycle sleep_horizon() const;
  /// Replays sleeping clusters' skipped cycles < `upto` (DESIGN.md §14);
  /// required before the end-of-run stats read.
  void settle_chips(Cycle upto);

  /// Names the trace tracks of `group`'s threads on the sync pseudo-process.
  void trace_name_sync_tracks(const exec::ThreadGroup& group);
  /// Closes open trace slices at end of run.
  void trace_flush(Cycle end);

  MachineConfig cfg_;
  std::unique_ptr<cache::LocalMemoryBackend> local_backend_;
  std::unique_ptr<noc::DashInterconnect> dash_;
  std::vector<std::unique_ptr<core::Chip>> chips_;
  /// The machine clock: the next cycle to tick. Sync tracing timestamps
  /// its events from it.
  Cycle now_ = 0;
  Cycle quiet_cycles_ = 0;
  /// Live only while run() executes a dynamic-allocation mix; all_finished
  /// consults it so a run cannot end with a thread mid-migration.
  alloc::Controller* alloc_ctl_ = nullptr;
};

}  // namespace csmt::sim
