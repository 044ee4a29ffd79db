// ThreadContext: the per-thread functional interpreter.
//
// The simulator is execution-driven in the MINT style: an instruction is
// functionally executed at the moment the timing model *fetches* it, so
// branch outcomes and effective addresses are available to the fetch stage
// and the predictor, and spin loops interact with other threads through the
// shared functional memory at fetch-time granularity.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "exec/dyninst.hpp"
#include "isa/program.hpp"
#include "mem/paged_memory.hpp"

namespace csmt::exec {
class SyncManager;
}

namespace csmt::exec {

class ThreadContext {
 public:
  /// The context starts at instruction 0 of `program`. `memory` is the
  /// application-wide shared functional memory. Entry-register conventions
  /// (r1 = tid value, r2 = nthreads, r3 = args block) are applied here.
  ThreadContext(ThreadId tid, const isa::Program& program,
                mem::PagedMemory& memory, std::uint64_t tid_value,
                std::uint64_t nthreads, Addr args_base,
                SyncManager* sync = nullptr);

  /// True once the thread has executed HALT (or run off the program's end).
  bool done() const { return done_; }

  /// True while the thread is blocked in a sync primitive (MINT-style).
  /// The timing model suppresses fetch and charges the thread's slots to
  /// the sync hazard while this holds.
  bool sync_blocked() const { return sync_blocked_; }
  void set_sync_blocked(bool b) {
    const bool was = sync_blocked_;
    sync_blocked_ = b;
    if (was && !b && unblock_hook_) unblock_hook_(unblock_ctx_, this);
  }

  /// Unblock notification (DESIGN.md §14): a released thread is the one
  /// *external* input a sleeping cluster cannot predict from its own state,
  /// so the owning cluster registers a hook here and the false transition
  /// of sync_blocked_ wakes it. The hook is a binding, not state: it is
  /// registered at attach time.
  using UnblockHook = void (*)(void*, ThreadContext*);
  void set_unblock_hook(UnblockHook hook, void* ctx) {
    unblock_hook_ = hook;
    unblock_ctx_ = ctx;
  }

  /// Address-space tag applied by the *timing* model only (multiprogrammed
  /// runs give each job a disjoint simulated physical address space so
  /// their cache lines, MSHRs, and TLB entries never collide). Functional
  /// execution is unaffected — each job has its own PagedMemory.
  Addr timing_addr_offset() const { return timing_addr_offset_; }
  void set_timing_addr_offset(Addr off) { timing_addr_offset_ = off; }

  ThreadId tid() const { return tid_; }
  std::uint64_t pc() const { return pc_; }
  std::uint64_t instret() const { return instret_; }

  /// Functionally executes the next instruction and fills `out`.
  /// Returns false (and leaves `out` untouched) when the thread is done.
  bool step(DynInst& out);

  /// The next instruction step() would execute. Only valid while !done():
  /// the fetch stage peeks to check resource needs before committing to
  /// functional execution.
  const isa::Inst& peek() const { return program_.at(pc_); }

  /// Architectural state accessors (tests and debugging).
  std::uint64_t ireg(isa::RegIdx r) const { return iregs_[r]; }
  double freg(isa::RegIdx r) const { return fregs_[r]; }
  void set_ireg(isa::RegIdx r, std::uint64_t v) {
    if (r != isa::kRegZero) iregs_[r] = v;
  }
  void set_freg(isa::RegIdx r, double v) { fregs_[r] = v; }

 private:
  ThreadId tid_;
  const isa::Program& program_;
  mem::PagedMemory& mem_;
  SyncManager* sync_;
  UnblockHook unblock_hook_ = nullptr;  ///< not state: rebound at attach
  void* unblock_ctx_ = nullptr;
  std::uint64_t pc_ = 0;
  std::uint64_t instret_ = 0;
  bool done_ = false;
  bool sync_blocked_ = false;
  Addr timing_addr_offset_ = 0;
  std::uint64_t iregs_[isa::kNumIntRegs] = {};
  double fregs_[isa::kNumFpRegs] = {};
};

}  // namespace csmt::exec
