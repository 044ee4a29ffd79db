// SyncManager: MINT-style synchronization. The paper's front end (MINT)
// intercepts the ANL-macro lock/barrier calls and *blocks* the calling
// thread inside the simulator instead of running a literal spin loop; the
// issue slots the blocked thread cannot use are what §4.1 charges to the
// `sync` hazard. This class is the functional half of that mechanism; the
// timing half (fetch suppression + wake latency + sync-slot accounting)
// lives in core::Cluster.
//
// The literal spin-loop implementations remain available through
// ProgramBuilder::spin_barrier / spin_lock_* for the sync-modeling ablation.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"

namespace csmt::exec {

class ThreadContext;

class SyncManager {
 public:
  /// Attaches a trace writer plus the machine clock to timestamp sync
  /// events with (the manager is functional and has no clock of its own;
  /// `clock` must outlive the attached writer's use).
  void set_trace(obs::ChromeTraceWriter* trace, const Cycle* clock) {
    trace_ = trace;
    clock_ = clock;
  }

  /// Thread `t` arrives at the barrier at `addr` with `participants` total
  /// arrivals expected. Returns true if `t` was the last arriver (all
  /// waiters have been unblocked); otherwise `t` has been blocked.
  bool barrier_arrive(Addr addr, ThreadContext* t, std::uint64_t participants);

  /// Thread `t` tries to take the lock at `addr`. Returns true on
  /// acquisition; otherwise `t` has been blocked and will own the lock when
  /// unblocked (FIFO handoff).
  bool lock_acquire(Addr addr, ThreadContext* t);

  /// Thread `t` releases the lock at `addr`; the oldest waiter (if any) is
  /// granted ownership and unblocked.
  void lock_release(Addr addr, ThreadContext* t);

 private:
  struct BarrierState {
    std::uint64_t arrived = 0;
    std::vector<ThreadContext*> waiters;
  };
  struct LockState {
    ThreadContext* holder = nullptr;
    std::deque<ThreadContext*> waiters;
  };

  /// Emits an instant event on the sync pseudo-process track of thread `t`.
  void trace_sync(const char* name, const ThreadContext* t, Addr addr);

  std::unordered_map<Addr, BarrierState> barriers_;
  std::unordered_map<Addr, LockState> locks_;
  obs::ChromeTraceWriter* trace_ = nullptr;
  const Cycle* clock_ = nullptr;
};

}  // namespace csmt::exec
