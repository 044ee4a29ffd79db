// ThreadGroup: launches the SPMD threads of one application instance.
#pragma once

#include <memory>
#include <vector>

#include "exec/sync.hpp"
#include "exec/thread_context.hpp"

namespace csmt::exec {

/// Owns the ThreadContexts of one application run. The timing model maps
/// these software threads onto hardware contexts; the paper creates "as many
/// threads as are required by the processor" (§4), which the machine layer
/// decides.
class ThreadGroup {
 public:
  /// Creates `nthreads` contexts over the shared `memory`, all starting at
  /// instruction 0 of `program`, with tids 0..nthreads-1 and a common
  /// argument block at `args_base`.
  ThreadGroup(const isa::Program& program, mem::PagedMemory& memory,
              unsigned nthreads, Addr args_base);

  unsigned size() const { return static_cast<unsigned>(threads_.size()); }
  ThreadContext& thread(unsigned i) { return *threads_[i]; }
  const ThreadContext& thread(unsigned i) const { return *threads_[i]; }

  bool all_done() const;

  /// Total dynamically executed instructions across all threads.
  std::uint64_t total_instret() const;

  SyncManager& sync() { return sync_; }

 private:
  SyncManager sync_;
  std::vector<std::unique_ptr<ThreadContext>> threads_;
};

}  // namespace csmt::exec
