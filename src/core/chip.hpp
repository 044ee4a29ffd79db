// Chip: one processor die — a set of identical SMT clusters sharing a
// memory hierarchy (shared L1/L2/TLB per §3.4, chosen by the paper so that
// memory-hierarchy differences do not pollute the architecture comparison).
#pragma once

#include <memory>
#include <vector>

#include "cache/memsys.hpp"
#include "core/arch_config.hpp"
#include "core/cluster.hpp"

namespace csmt::core {

struct ChipStats {
  SlotTally tally;  ///< the clusters' slot tallies, summed exactly
  std::uint64_t committed_useful = 0;
  std::uint64_t committed_sync = 0;
  std::uint64_t fetched = 0;
  branch::PredictorStats predictor;
};

class Chip {
 public:
  /// `trace`/`prof` attach observability hooks (nullptr = off); they are
  /// forwarded to the chip's MemSys and Clusters.
  Chip(ChipId id, const ArchConfig& cfg, const cache::MemSysParams& mem_params,
       cache::MemoryBackend& backend, obs::ChromeTraceWriter* trace = nullptr,
       obs::PhaseProfiler* prof = nullptr);

  /// Binds a thread to the next cluster with a free hardware context.
  /// Threads are block-assigned: contexts of cluster 0 fill first.
  void attach_thread(exec::ThreadContext* tc);

  /// Advances the chip by one cycle. With lazy mode on (DESIGN.md §14) only
  /// the clusters on the intrusive active list take a full tick; a cluster
  /// that stays inactive past its probe backoff falls asleep and is
  /// unlinked, so a busy-machine cycle costs O(active clusters). A chip
  /// whose clusters are all asleep does no per-cycle work at all.
  void tick(Cycle now);

  /// True when any cluster changed observable state in the tick at `now`.
  bool active_last_tick() const { return last_active_; }

  /// While every cluster sleeps and no wake is queued, the earliest cycle
  /// a sleeper wakes itself (kNeverCycle: none will); 0 otherwise. The
  /// machine jumps its clock only across cycles every chip sleeps through
  /// (DESIGN.md §8). A sleeper woken by a release leaves the stored
  /// minimum early, never late: jumping to it costs one idle tick, which
  /// recomputes it.
  Cycle sleep_horizon() const {
    return active_head_ || !wake_pending_.empty() ? 0 : next_wake_;
  }

  /// Enables cluster-level sleep (off under --no-skip and under tracing,
  /// where lazy replay would emit events out of timestamp order).
  void set_lazy(bool lazy) { lazy_ = lazy; }

  /// Replays all sleeping clusters' skipped cycles < `upto` (they stay
  /// asleep). Called before the end-of-run stats read.
  void settle(Cycle upto);

  /// Wake request from a cluster's unblock hook. Mid-tick wakes of a
  /// higher-id cluster on this chip happen in place (the baseline would
  /// tick it later this same cycle, after the release); everything else
  /// queues for the top of this chip's next tick, matching when the
  /// baseline's tick order lets the target observe the release. A release
  /// from another chip always queues: this chip processes it this cycle
  /// if it has not ticked yet, next cycle if it has.
  void signal_wake(Cluster* c);

  /// A cluster woke itself outside tick() (freeze/detach/attach settling):
  /// relink it into the active list.
  void notify_woken(Cluster* c);

  /// Cycles skipped and lazily replayed across all clusters.
  std::uint64_t lazy_replayed() const;

  bool finished() const;

  /// Threads running for the Figure 6 metric (not halted, not spinning):
  /// the sum of the clusters' last samples, kept up to date as they tick
  /// (a sleeping cluster's sample holds across its span).
  unsigned running_threads() const { return running_; }

  ChipId id() const { return id_; }
  const ArchConfig& config() const { return cfg_; }
  cache::MemSys& memsys() { return memsys_; }
  const cache::MemSys& memsys() const { return memsys_; }
  unsigned num_clusters() const {
    return static_cast<unsigned>(clusters_.size());
  }
  Cluster& cluster(unsigned i) { return *clusters_[i]; }
  const Cluster& cluster(unsigned i) const { return *clusters_[i]; }

  /// Aggregates per-cluster statistics.
  ChipStats stats() const;

  /// Closes open per-thread trace slices at end of run (tracing only).
  void trace_flush(Cycle end);

 private:
  /// Wakes every cluster whose scheduled or queued wake is due at `now`.
  void process_wakes(Cycle now);
  /// Sorted (by cluster id) insert into the intrusive active list, so the
  /// tick order of awake clusters always matches the baseline's id order.
  void link_active(Cluster* c);

  ChipId id_;
  ArchConfig cfg_;
  cache::MemSys memsys_;
  std::vector<std::unique_ptr<Cluster>> clusters_;

  // Cluster-level quiescence state (DESIGN.md §14); all transient.
  Cluster* active_head_ = nullptr;      ///< awake clusters, id order
  std::vector<Cluster*> wake_pending_;  ///< hook wakes for the next tick
  Cycle next_wake_ = kNeverCycle;       ///< <= earliest sleeper self-wake
  unsigned asleep_n_ = 0;
  bool lazy_ = false;
  unsigned running_ = 0;  ///< sum of the clusters' running_threads()
  bool last_active_ = true;
  // Mid-tick context for signal_wake's in-place path.
  bool ticking_ = false;
  ClusterId ticking_id_ = 0;
  Cycle tick_now_ = 0;
  Cluster* ticking_node_ = nullptr;
};

}  // namespace csmt::core
