#include "sim/scheduler.hpp"

#include <algorithm>

#include "sim/machine.hpp"

namespace csmt::sim {

void Scheduler::set_alloc_epoch(Cycle interval,
                                std::function<void(Cycle)> fire) {
  alloc_interval_ = interval;
  alloc_fn_ = std::move(fire);
  if (interval == 0 || !alloc_fn_) {
    alloc_interval_ = 0;
    next_alloc_ = kNeverCycle;
    alloc_fn_ = nullptr;
    return;
  }
  next_alloc_ = (now_ / interval + 1) * interval;
}

Scheduler::Result Scheduler::run(
    const std::function<void(Cycle)>& after_tick) {
  const MachineConfig& cfg = m_.config();
  Result out;
  double running_accum = 0.0;
  std::int64_t last_running_traced = -1;
  Cycle inactive_streak = 0;  // consecutive quiescent full ticks
  Cycle probe_defer = 0;      // quiescent ticks to absorb before probing
  // A quiescent tick cannot finish the machine (finishing requires a halt
  // commit, which is an active tick), so the finish check only needs to run
  // after active ticks. `true` initially: nothing has ticked yet.
  bool check_finished = true;
  while (true) {
    if (check_finished && m_.all_finished()) break;
    if (now_ >= cfg.max_cycles) {
      out.timed_out = true;
      break;
    }
    if (now_ >= next_alloc_) {
      alloc_fn_(now_);
      while (next_alloc_ <= now_) next_alloc_ += alloc_interval_;
    }
    const bool active = m_.tick_chips(now_);
    check_finished = active;
    const unsigned running = m_.running_now();
    running_accum += running;
    if (cfg.trace && running != last_running_traced) {
      cfg.trace->counter({0, 0}, "running_threads", now_, running);
      last_running_traced = running;
    }
    ++now_;
    if (sampler_.enabled()) {
      sampler_.note_running(running);
      if (sampler_.due(now_)) {
        // Epoch samples read cluster slot stats: settle sleepers first so
        // the sample matches the per-cycle kernel's bit for bit.
        m_.settle_chips(now_);
        sampler_.close(now_, m_.snapshot_counters());
      }
    }
    if (after_tick) after_tick(now_);

    if (cfg.no_skip) continue;
    if (active) {
      inactive_streak = 0;
      continue;
    }
    if (m_.all_finished()) {  // drained: let the loop header exit
      check_finished = true;
      continue;
    }
    // The whole machine is quiescent: every live thread is blocked on a
    // completion, wake, or release with a known (or externally-driven)
    // horizon. Probing that horizon walks every component, so on busy
    // workloads with short gaps we absorb up to probe_defer quiescent
    // cycles through ordinary full ticks before paying for a probe.
    if (++inactive_streak <= probe_defer) continue;
    // Skip to the earliest horizon — clamped to the watchdog, so a
    // deadlocked machine times out at exactly max_cycles — replaying each
    // skipped cycle's accounting through the cheap quiet path. The
    // running-thread count is constant across the span by construction.
    const Cycle horizon = m_.next_event(now_ - 1);
    Cycle stop = horizon < cfg.max_cycles ? horizon : cfg.max_cycles;
    // A pending allocation epoch clamps the span: the epoch must see the
    // loop-header telemetry at its scheduled cycle.
    if (next_alloc_ < stop) stop = next_alloc_;
    if (stop < now_ + kShortSpan) {
      probe_defer = probe_defer == 0
                        ? 1
                        : (probe_defer < kMaxDefer ? probe_defer * 2
                                                   : kMaxDefer);
    } else {
      probe_defer = 0;
    }
    inactive_streak = 0;
    while (now_ < stop) {
      // The span is replayed in one piece per epoch: a sample must close on
      // its boundary cycle.
      const Cycle end =
          sampler_.enabled() ? std::min(stop, sampler_.epoch_end()) : stop;
      const Cycle n = end - now_;
      m_.quiet_span_chips(now_, n);
      // An integer-valued accumulator far below 2^53: one exact addition.
      running_accum += static_cast<double>(n * running);
      quiet_cycles_ += n;
      now_ = end;
      if (sampler_.enabled()) {
        sampler_.note_running(running, n);
        if (sampler_.due(now_)) {
          m_.settle_chips(now_);
          sampler_.close(now_, m_.snapshot_counters());
        }
      }
    }
  }
  // Clusters still asleep at exit (deadlock clamp, or sleeping through the
  // final commit elsewhere) replay their remaining span before the caller
  // reads any stats.
  m_.settle_chips(now_);
  out.cycles = now_;
  out.running_accum = running_accum;
  return out;
}

}  // namespace csmt::sim
