// alloc::Controller — executes an AllocationPolicy against the live machine
// (DESIGN.md §11).
//
// The controller owns the mechanics the policies abstract over:
// snapshotting per-thread telemetry at each epoch boundary,
// feasibility-checking proposed migrations, and driving every accepted
// move through the deterministic cost model
//
//   freeze (fetch fenced) -> drain (window empties via normal commit)
//   -> detach (rename state flushed) -> attach (fetch resumes no earlier
//   than detach + kMigrationCost).
//
// Only a dynamic run builds one, after the machine has attached every
// thread in initial_placement order.
//
// Epoch boundaries fire from the run loop top; drain completion is
// observed after every tick. Both run between full ticks, so the
// whole protocol is deterministic.
#pragma once

#include <memory>
#include <vector>

#include "alloc/policy.hpp"
#include "common/types.hpp"

namespace csmt::core {
class Cluster;
}
namespace csmt::exec {
class ThreadContext;
}
namespace csmt::obs {
class ChromeTraceWriter;
}

namespace csmt::alloc {

class Controller {
 public:
  /// `cfg` names a dynamic policy; `clusters` in global (chip-major)
  /// order, every thread already attached; `threads` in mix order
  /// (job-major). `trace` may be null.
  Controller(const AllocConfig& cfg, std::vector<core::Cluster*> clusters,
             std::vector<exec::ThreadContext*> threads,
             obs::ChromeTraceWriter* trace);

  /// Epoch boundary: snapshot telemetry, ask the policy for moves, start
  /// the feasible ones. Fires from the run loop top.
  void on_epoch(Cycle now);

  /// Per-tick: advance in-flight migrations (detach once drained, attach
  /// once the destination has room). Cheap when nothing is pending.
  void on_tick(Cycle now) {
    if (!pending_.empty()) advance_pending(now);
  }

  /// True when no migration is in flight (the machine may declare itself
  /// finished only then — a mid-flight thread is bound to no cluster).
  bool idle() const { return pending_.empty(); }

  const AllocStats& stats() const { return stats_; }

 private:
  struct Location {
    unsigned cluster = kNoCluster;
    unsigned slot = 0;
  };
  struct PendingMove {
    unsigned mix_thread = 0;
    unsigned to_cluster = 0;
    Cycle decided_at = 0;
    bool in_transit = false;  ///< detached from the source, awaiting attach
    Cycle resume_floor = 0;   ///< wake_at carried over from the source
    bool in_sync = false;     ///< sync latch carried over from the source
  };

  void advance_pending(Cycle now);
  /// Frees a context on cluster `c` by detaching a done, drained thread.
  /// Returns false when no such victim exists yet.
  bool reclaim_done_context(unsigned c, Cycle now);
  /// Mix index of thread `tc`.
  unsigned mix_index_of(const exec::ThreadContext* tc) const;
  bool move_pending(unsigned mix_thread) const;

  Cycle epoch_len_ = 0;
  std::unique_ptr<AllocationPolicy> policy_;
  std::vector<core::Cluster*> clusters_;
  std::vector<exec::ThreadContext*> threads_;
  obs::ChromeTraceWriter* trace_ = nullptr;

  std::vector<Location> loc_;  ///< per mix thread; kNoCluster = unbound
  std::vector<PendingMove> pending_;
  /// Per mix thread: instret at the previous boundary (the epoch's IPC is
  /// the delta).
  std::vector<std::uint64_t> prev_instret_;

  AllocStats stats_;
};

}  // namespace csmt::alloc
