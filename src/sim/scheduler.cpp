#include "sim/scheduler.hpp"

#include <algorithm>

#include "ckpt/serializer.hpp"
#include "sim/machine.hpp"

namespace csmt::sim {

void Scheduler::set_checkpoint(Cycle interval, std::function<void(Cycle)> save) {
  ckpt_interval_ = interval;
  save_fn_ = std::move(save);
  if (interval == 0 || !save_fn_) {
    ckpt_interval_ = 0;
    next_ckpt_ = kNeverCycle;
    save_fn_ = nullptr;
    return;
  }
  // First snapshot at the first multiple of `interval` strictly beyond the
  // current clock (which is the restore point after a resume, or 0 fresh).
  next_ckpt_ = (now_ / interval + 1) * interval;
}

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

void Scheduler::serialize(ckpt::Serializer& s) {
  s.io(now_);
  s.io(quiet_cycles_);
  s.io(inactive_streak_);
  s.io(probe_defer_);
  s.io(running_accum_);
  s.io(last_running_traced_);
  s.io(check_finished_);
  s.io(next_alloc_);
}

Scheduler::Result Scheduler::run(
    const std::function<void(Cycle)>& after_tick) {
  const MachineConfig& cfg = m_.config();
  Result out;
  while (true) {
    if (check_finished_ && m_.all_finished()) break;
    if (now_ >= cfg.max_cycles) {
      out.timed_out = true;
      break;
    }
    // The snapshot point: past both exit checks, before the tick. The
    // machine state here is exactly the loop-header state, so a restored
    // run re-enters this loop and replays the identical suffix.
    if (now_ >= next_ckpt_) {
      // Sleeping clusters settle (replay their skipped cycles) before the
      // snapshot so the saved stats match the per-cycle kernel's; sleep
      // itself is transient and not captured (DESIGN.md §14).
      m_.settle_chips(now_);
      save_fn_(now_);
      while (next_ckpt_ <= now_) next_ckpt_ += ckpt_interval_;
    }
    // Allocation epochs fire after any checkpoint save at the same cycle,
    // so a snapshot observes the pre-epoch state and a resumed run replays
    // the epoch decision itself — the decision is never half-captured.
    if (now_ >= next_alloc_) {
      alloc_fn_(now_);
      while (next_alloc_ <= now_) next_alloc_ += alloc_interval_;
    }
    const bool active = m_.tick_chips(now_);
    check_finished_ = active;
    const unsigned running = m_.running_now();
    running_accum_ += running;
    if (cfg.trace && running != last_running_traced_) {
      cfg.trace->counter({0, 0}, "running_threads", now_, running);
      last_running_traced_ = running;
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
      inactive_streak_ = 0;
      continue;
    }
    if (m_.all_finished()) {  // drained: let the loop header exit
      check_finished_ = true;
      continue;
    }
    // The whole machine is quiescent: every live thread is blocked on a
    // completion, wake, or release with a known (or externally-driven)
    // horizon. Probing that horizon walks every component, so on busy
    // workloads with short gaps we absorb up to probe_defer_ quiescent
    // cycles through ordinary full ticks before paying for a probe.
    if (++inactive_streak_ <= probe_defer_) continue;
    // Skip to the earliest horizon — clamped to the watchdog, so a
    // deadlocked machine times out at exactly max_cycles — replaying each
    // skipped cycle's accounting through the cheap quiet path. The
    // running-thread count is constant across the span by construction.
    // A pending checkpoint also clamps the span: the snapshot must observe
    // the loop-header state at its scheduled cycle, not the post-span one.
    const Cycle horizon = m_.next_event(now_ - 1);
    Cycle stop = horizon < cfg.max_cycles ? horizon : cfg.max_cycles;
    if (next_ckpt_ < stop) stop = next_ckpt_;
    // A pending allocation epoch clamps the span too: the epoch must see
    // the loop-header telemetry at its scheduled cycle.
    if (next_alloc_ < stop) stop = next_alloc_;
    if (stop < now_ + kShortSpan) {
      probe_defer_ = probe_defer_ == 0
                         ? 1
                         : (probe_defer_ < kMaxDefer ? probe_defer_ * 2
                                                     : kMaxDefer);
    } else {
      probe_defer_ = 0;
    }
    inactive_streak_ = 0;
    while (now_ < stop) {
      // The span is replayed in one piece per epoch: a sample must close on
      // its boundary cycle.
      const Cycle end =
          sampler_.enabled() ? std::min(stop, sampler_.epoch_end()) : stop;
      const Cycle n = end - now_;
      m_.quiet_span_chips(now_, n);
      // An integer-valued accumulator far below 2^53: one exact addition.
      running_accum_ += static_cast<double>(n * running);
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
  out.running_accum = running_accum_;
  return out;
}

}  // namespace csmt::sim
