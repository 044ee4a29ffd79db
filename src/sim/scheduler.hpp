// Scheduler: the quiescence-aware simulation kernel (DESIGN.md §8/§9).
//
// The machine loop used to tick every cluster on every simulated cycle,
// even when every thread was blocked on an outstanding miss, paying a sync
// wake latency, or halted. The scheduler keeps the per-cycle tick as the
// ground truth but, whenever a full tick changes nothing observable
// (no fetch/issue/commit/memory access/wake anywhere), asks every
// component for the next cycle at which it could make progress
// (`next_event(now)`) and replays the in-between cycles through the
// components' quiet-span paths — which reproduce the round-robin pointer
// rotation and the per-cycle accounting bit for bit, in closed form where
// every cycle of the span is the same (repeat_add), so a span costs about
// as much as one cycle. RunStats, epoch samples, and traces are therefore
// identical to the per-cycle kernel; MachineConfig::no_skip forces the old
// stepping for A/B verification.
//
// Horizon probes are amortized (DESIGN.md §9): a probe visits every
// cluster's threads and every chip's memory system, so on busy workloads
// whose quiescent gaps are only a cycle or two long the probe costs more
// than the skipped cycles save. The scheduler therefore tracks how
// productive recent probes were and, after a run of short spans, defers the
// next probe until the machine has been continuously quiescent for a
// threshold of full ticks (exponential backoff, reset by the first long
// span). Deferred cycles run through the ordinary full tick — always valid,
// bit-identical by construction — so the heuristic trades only host time,
// never fidelity.
#pragma once

#include <functional>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace csmt::sim {

class Machine;

class Scheduler {
 public:
  /// What one run produced, in the units the machine's stat collection
  /// wants: total simulated cycles, the per-cycle running-thread integral,
  /// and whether the watchdog fired.
  struct Result {
    Cycle cycles = 0;
    double running_accum = 0.0;
    bool timed_out = false;
  };

  Scheduler(Machine& machine, obs::EpochSampler& sampler)
      : m_(machine), sampler_(sampler) {}

  /// The live machine clock, for timestamping events raised from inside a
  /// tick (sync tracing). Stable for the scheduler's lifetime.
  const Cycle* clock() const { return &now_; }

  /// Simulated cycles advanced through the quiet path (0 with no_skip).
  /// Observability only: it never feeds RunStats.
  Cycle quiet_cycles() const { return quiet_cycles_; }

  /// Runs the machine to completion or to the max_cycles watchdog —
  /// skipping clamps to max_cycles exactly, so a timed-out run reports the
  /// same cycle count either way. `after_tick` (optional) runs after every
  /// full tick with the post-increment clock; quiescent spans cannot
  /// change what it observes (nothing fetches, so no thread halts), so it
  /// is not called for skipped cycles.
  Result run(const std::function<void(Cycle)>& after_tick = {});

  /// Arms the allocation-epoch clock (DESIGN.md §11): `fire` runs at the
  /// top of the run loop — after the exit checks, before the tick —
  /// whenever the clock reaches the next multiple of `interval`. interval
  /// 0 disarms (the default: static runs never test the clock).
  void set_alloc_epoch(Cycle interval, std::function<void(Cycle)> fire);

 private:
  /// A probe that skips at least this many cycles paid for itself; shorter
  /// (zero-yield) probes raise the deferral threshold. With the component
  /// horizons O(1)-cached, even a 1-cycle skip beats a full tick, so only
  /// probes whose horizon was not in the future at all count as wasted.
  static constexpr Cycle kShortSpan = 1;
  /// Ceiling on the deferral threshold: after a burst of unproductive
  /// probes, at most this many quiescent full ticks pass between probes,
  /// so a workload that turns idle-heavy is re-detected quickly.
  static constexpr Cycle kMaxDefer = 64;

  Machine& m_;
  obs::EpochSampler& sampler_;
  Cycle now_ = 0;
  Cycle quiet_cycles_ = 0;

  // Allocation-epoch schedule (set_alloc_epoch). next_alloc_ = kNeverCycle
  // when disarmed, so the armed test in the loop stays a single compare.
  Cycle alloc_interval_ = 0;
  Cycle next_alloc_ = kNeverCycle;
  std::function<void(Cycle)> alloc_fn_;
};

}  // namespace csmt::sim
