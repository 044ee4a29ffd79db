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

  /// Advances the chip by one cycle, scanning its clusters in id order
  /// (the per-cycle kernel's order). With lazy mode on (DESIGN.md §14) a
  /// sleeping cluster is skipped unless its stored horizon is due or a
  /// release flagged it; then it wakes at its own place in the scan and
  /// ticks. A cluster that stays inactive past its probe backoff falls
  /// asleep.
  void tick(Cycle now);

  /// True when any cluster changed observable state in the tick at `now`.
  bool active_last_tick() const { return last_active_; }

  /// While every cluster sleeps and none is flagged for a wake, the
  /// earliest cycle a sleeper wakes itself (kNeverCycle: none will); 0
  /// otherwise. The machine jumps its clock only across cycles every chip
  /// sleeps through (DESIGN.md §8).
  Cycle sleep_horizon() const;

  /// Enables cluster-level sleep (off under --no-skip and under tracing,
  /// where lazy replay would emit events out of timestamp order).
  void set_lazy(bool lazy) { lazy_ = lazy; }

  /// Replays all sleeping clusters' skipped cycles < `upto` (they stay
  /// asleep). Called before the end-of-run stats read.
  void settle(Cycle upto);

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
  ChipId id_;
  ArchConfig cfg_;
  cache::MemSys memsys_;
  std::vector<std::unique_ptr<Cluster>> clusters_;

  bool lazy_ = false;  ///< cluster-level sleep on (DESIGN.md §14)
  unsigned running_ = 0;  ///< sum of the clusters' running_threads()
  bool last_active_ = true;
};

}  // namespace csmt::core
