#include "exec/sync.hpp"

#include "exec/thread_context.hpp"

namespace csmt::exec {

void SyncManager::trace_sync(const char* name, const ThreadContext* t,
                             Addr addr) {
  trace_->instant({obs::kSyncPid, t->tid()}, name, clock_ ? *clock_ : 0,
                  static_cast<std::int64_t>(addr));
}

bool SyncManager::barrier_arrive(Addr addr, ThreadContext* t,
                                 std::uint64_t participants) {
  CSMT_ASSERT(participants >= 1);
  BarrierState& bs = barriers_[addr];
  ++bs.arrived;
  if (trace_) trace_sync("barrier_enter", t, addr);
  if (bs.arrived >= participants) {
    if (trace_) {
      for (const ThreadContext* w : bs.waiters) {
        trace_sync("barrier_exit", w, addr);
      }
      trace_sync("barrier_exit", t, addr);
    }
    for (ThreadContext* w : bs.waiters) w->set_sync_blocked(false);
    bs.waiters.clear();
    bs.arrived = 0;
    ++barrier_episodes_;
    return true;
  }
  bs.waiters.push_back(t);
  t->set_sync_blocked(true);
  return false;
}

bool SyncManager::lock_acquire(Addr addr, ThreadContext* t) {
  LockState& ls = locks_[addr];
  if (ls.holder == nullptr) {
    ls.holder = t;
    if (trace_) trace_sync("lock_acquire", t, addr);
    return true;
  }
  if (trace_) trace_sync("lock_wait", t, addr);
  ls.waiters.push_back(t);
  t->set_sync_blocked(true);
  ++lock_contentions_;
  return false;
}

void SyncManager::lock_release(Addr addr, ThreadContext* t) {
  LockState& ls = locks_[addr];
  CSMT_ASSERT_MSG(ls.holder == t, "lock released by a non-holder");
  if (trace_) trace_sync("lock_release", t, addr);
  if (ls.waiters.empty()) {
    ls.holder = nullptr;
    return;
  }
  // FIFO handoff: the oldest waiter owns the lock as it wakes.
  ls.holder = ls.waiters.front();
  ls.waiters.pop_front();
  if (trace_) trace_sync("lock_acquire", ls.holder, addr);
  ls.holder->set_sync_blocked(false);
}

}  // namespace csmt::exec
