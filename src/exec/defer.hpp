// Deferred cross-chip-visible thread operations (DESIGN.md §13).
//
// Under the domain-decomposed tick, atomics and sync primitives touch state
// that other chips read in the same cycle (shared functional memory words,
// the SyncManager's waiter lists). So that cross-chip hand-offs resolve in
// a fixed order, a chip whose machine has more than one chip *defers* the
// functional side effect of these operations: the fetch stage records the
// operation here and the Machine drains all chips' queues in chip order at
// the end-of-cycle barrier.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "isa/inst.hpp"

namespace csmt::exec {

class ThreadContext;

/// One functional side effect postponed to the cycle barrier.
struct DeferredThreadOp {
  enum class Kind : std::uint8_t {
    kAmoSwap,  ///< rd = swap(addr, operand)
    kAmoAdd,   ///< rd = fetch_add(addr, operand)
    kBarrier,  ///< arrival tally + barrier_arrive(addr, operand)
    kLockAcq,  ///< amo_swap(addr, 1) + lock_acquire(addr)
    kLockRel,  ///< write(addr, 0) + lock_release(addr)
  };
  Kind kind;
  ThreadContext* tc;
  Addr addr;
  std::uint64_t operand;
  isa::RegIdx rd;
};

/// Per-chip queue of deferred operations, drained in issue order. Owned by
/// core::Chip; threads only ever push into their own chip's queue.
class DeferQueue {
 public:
  void push(const DeferredThreadOp& op) { ops_.push_back(op); }
  bool empty() const { return ops_.empty(); }

  /// Replays every queued operation against the shared functional state.
  /// Runs only at the cycle barrier, after every chip has ticked.
  void drain();

 private:
  std::vector<DeferredThreadOp> ops_;
};

}  // namespace csmt::exec
