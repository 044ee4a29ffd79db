// alloc::Controller — executes an AllocationPolicy against the live machine
// (DESIGN.md §11).
//
// The controller owns the mechanics the policies abstract over: applying
// the initial placement, snapshotting per-thread/per-cluster telemetry at
// each epoch boundary, feasibility-checking proposed migrations, and
// driving every accepted move through the deterministic cost model
//
//   freeze (fetch fenced) -> drain (window empties via normal commit)
//   -> detach (rename state flushed) -> attach (fetch resumes no earlier
//   than detach + migration_cost).
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
namespace csmt::cache {
class MemSys;
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
  /// `clusters` in global (chip-major) order; `memsys[c]` is cluster c's
  /// chip-level memory system; `threads` in mix order (job-major);
  /// `job_threads[j]` = thread count of job j. `trace` may be null.
  Controller(const MachineShape& shape, const AllocConfig& cfg,
             std::vector<core::Cluster*> clusters,
             std::vector<const cache::MemSys*> memsys,
             std::vector<exec::ThreadContext*> threads,
             std::vector<unsigned> job_threads, obs::ChromeTraceWriter* trace);

  /// Computes the policy's initial placement and attaches every thread, in
  /// cluster order then placement order — the same fill order the machine
  /// used before this API existed, so `static` stays bit-identical.
  void place_initial();

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
  /// Mix index of the thread bound to cluster `c`, slot `i`.
  unsigned mix_index_of(const exec::ThreadContext* tc) const;
  bool move_pending(unsigned mix_thread) const;

  MachineShape shape_;
  AllocConfig cfg_;
  std::unique_ptr<AllocationPolicy> policy_;
  std::vector<core::Cluster*> clusters_;
  std::vector<const cache::MemSys*> memsys_;
  std::vector<exec::ThreadContext*> threads_;
  std::vector<unsigned> job_threads_;
  obs::ChromeTraceWriter* trace_ = nullptr;

  std::vector<Location> loc_;  ///< per mix thread; kNoCluster = unbound
  std::vector<PendingMove> pending_;

  // Epoch telemetry baselines (deltas against the previous boundary).
  std::vector<std::uint64_t> prev_instret_;   ///< per mix thread
  std::vector<std::uint64_t> prev_issued_;    ///< per cluster
  std::vector<std::uint64_t> prev_l1_hits_;   ///< per cluster (chip-level)
  std::vector<std::uint64_t> prev_l1_miss_;
  std::vector<std::uint64_t> prev_tlb_hits_;
  std::vector<std::uint64_t> prev_tlb_miss_;

  AllocStats stats_;
};

}  // namespace csmt::alloc
