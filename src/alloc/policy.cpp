#include "alloc/policy.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace csmt::alloc {
namespace {

/// Lowest-index argmax/argmin over a live-thread count vector — every
/// policy below breaks ties toward the lowest cluster index so decisions
/// are reproducible across platforms and library versions.
unsigned most_loaded(const std::vector<unsigned>& live) {
  unsigned best = 0;
  for (unsigned c = 1; c < live.size(); ++c) {
    if (live[c] > live[best]) best = c;
  }
  return best;
}

unsigned least_loaded(const std::vector<unsigned>& live) {
  unsigned best = 0;
  for (unsigned c = 1; c < live.size(); ++c) {
    if (live[c] < live[best]) best = c;
  }
  return best;
}

std::vector<unsigned> live_counts(const EpochView& view) {
  std::vector<unsigned> live(view.clusters.size(), 0);
  for (const ThreadSample& t : view.threads) {
    if (!t.done && !t.migrating && t.cluster != kNoCluster) ++live[t.cluster];
  }
  return live;
}

class StaticPolicy final : public AllocationPolicy {
 public:
  explicit StaticPolicy(const AllocConfig& cfg)
      : AllocationPolicy(PolicyKind::kStatic, cfg) {}
  void plan_epoch(const EpochView&, std::vector<Migration>&) override {}
};

/// SET-style utilization packing: whenever one cluster holds strictly more
/// live threads than another has headroom for, peel its weakest (lowest
/// last-epoch IPC) thread off toward the emptiest cluster. After a job of
/// the mix drains, this re-spreads the survivors over the idle clusters.
class GreedyUtilPolicy final : public AllocationPolicy {
 public:
  explicit GreedyUtilPolicy(const AllocConfig& cfg)
      : AllocationPolicy(PolicyKind::kGreedyUtil, cfg) {}

  void plan_epoch(const EpochView& view, std::vector<Migration>& out) override {
    std::vector<unsigned> live = live_counts(view);
    std::vector<char> taken(view.threads.size(), 0);
    for (unsigned moves = 0; moves < config().max_moves_per_epoch; ++moves) {
      const unsigned src = most_loaded(live);
      const unsigned dst = least_loaded(live);
      if (src == dst || live[src] <= live[dst] + 1) break;  // balanced
      if (live[dst] >= view.clusters[dst].capacity) break;
      // Weakest thread of the crowded cluster: it loses the least from the
      // migration stall and frees the most contended issue slots.
      int pick = -1;
      for (unsigned i = 0; i < view.threads.size(); ++i) {
        const ThreadSample& t = view.threads[i];
        if (t.done || t.migrating || taken[i] || t.cluster != src) continue;
        if (pick < 0 || t.ipc < view.threads[pick].ipc) pick = static_cast<int>(i);
      }
      if (pick < 0) break;
      taken[pick] = 1;
      out.push_back({static_cast<unsigned>(pick), dst});
      --live[src];
      ++live[dst];
    }
  }
};

/// SYNPA-style symbiosis: rank live threads by last-epoch IPC and deal them
/// snake-wise across the clusters, so each SMT cluster hosts a mix of high-
/// and low-IPC (compute- and memory-bound) threads instead of two of a
/// kind — complementary threads share issue slots with less interference.
/// A two-epoch hysteresis keeps a freshly moved thread in place long enough
/// for its new-epoch IPC to mean something.
class SymbiosisPolicy final : public AllocationPolicy {
 public:
  explicit SymbiosisPolicy(const AllocConfig& cfg)
      : AllocationPolicy(PolicyKind::kSymbiosis, cfg) {}

  void plan_epoch(const EpochView& view, std::vector<Migration>& out) override {
    ++epoch_index_;
    if (last_moved_.size() < view.threads.size()) {
      last_moved_.resize(view.threads.size(), 0);
    }
    const unsigned ncl = static_cast<unsigned>(view.clusters.size());
    if (ncl < 2) return;

    std::vector<unsigned> ranked;
    for (unsigned i = 0; i < view.threads.size(); ++i) {
      const ThreadSample& t = view.threads[i];
      if (!t.done && !t.migrating && t.cluster != kNoCluster) ranked.push_back(i);
    }
    std::sort(ranked.begin(), ranked.end(), [&](unsigned a, unsigned b) {
      if (view.threads[a].ipc != view.threads[b].ipc) {
        return view.threads[a].ipc > view.threads[b].ipc;
      }
      return a < b;
    });

    // Snake deal: rank r lands on cluster r%C left-to-right on even rows,
    // right-to-left on odd rows, so the strongest and weakest threads pair
    // up. The full deal never exceeds any cluster's capacity.
    for (unsigned r = 0; r < ranked.size(); ++r) {
      const unsigned row = r / ncl;
      const unsigned col = r % ncl;
      const unsigned target = (row % 2 == 0) ? col : ncl - 1 - col;
      const unsigned i = ranked[r];
      if (view.threads[i].cluster == target) continue;
      if (last_moved_[i] != 0 && epoch_index_ - last_moved_[i] < 2) continue;
      last_moved_[i] = epoch_index_;
      out.push_back({i, target});
      if (out.size() >= config().max_moves_per_epoch) break;
    }
  }

 private:
  std::uint64_t epoch_index_ = 0;
  std::vector<std::uint64_t> last_moved_;  ///< epoch a thread last migrated
};

/// Prediction-driven migration (thread-to-core allocation family): keep a
/// per-thread EWMA of epoch IPC and move the thread with the highest
/// predicted IPC out of a crowded cluster onto the emptiest one — giving
/// the fast thread issue width while the slow (memory/sync-bound) threads
/// it leaves behind keep the shared slots busy.
class IpcMigratePolicy final : public AllocationPolicy {
 public:
  explicit IpcMigratePolicy(const AllocConfig& cfg)
      : AllocationPolicy(PolicyKind::kIpcMigrate, cfg) {}

  void plan_epoch(const EpochView& view, std::vector<Migration>& out) override {
    ++epoch_index_;
    if (ewma_.size() < view.threads.size()) {
      ewma_.resize(view.threads.size(), 0.0);
      seen_.resize(view.threads.size(), 0);
      last_moved_.resize(view.threads.size(), 0);
    }
    for (unsigned i = 0; i < view.threads.size(); ++i) {
      const ThreadSample& t = view.threads[i];
      if (t.done) continue;
      // pred = (3*prev + current) / 4: the classic quarter-step EWMA.
      ewma_[i] = seen_[i] ? (3.0 * ewma_[i] + t.ipc) / 4.0 : t.ipc;
      seen_[i] = 1;
    }

    std::vector<unsigned> live = live_counts(view);
    std::vector<unsigned> ranked;
    for (unsigned i = 0; i < view.threads.size(); ++i) {
      const ThreadSample& t = view.threads[i];
      if (!t.done && !t.migrating && t.cluster != kNoCluster) ranked.push_back(i);
    }
    std::sort(ranked.begin(), ranked.end(), [&](unsigned a, unsigned b) {
      if (ewma_[a] != ewma_[b]) return ewma_[a] > ewma_[b];
      return a < b;
    });

    for (const unsigned i : ranked) {
      if (out.size() >= config().max_moves_per_epoch) break;
      const unsigned src = view.threads[i].cluster;
      if (live[src] < 2) continue;  // already has the cluster to itself
      if (last_moved_[i] != 0 && epoch_index_ - last_moved_[i] < 2) continue;
      const unsigned dst = least_loaded(live);
      // Strict improvement only: the move must leave the fast thread with
      // fewer neighbors than it had.
      if (dst == src || live[dst] + 1 >= live[src]) continue;
      if (live[dst] >= view.clusters[dst].capacity) continue;
      last_moved_[i] = epoch_index_;
      out.push_back({i, dst});
      --live[src];
      ++live[dst];
    }
  }

 private:
  std::uint64_t epoch_index_ = 0;
  std::vector<double> ewma_;
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint64_t> last_moved_;
};

}  // namespace

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStatic: return "static";
    case PolicyKind::kGreedyUtil: return "greedy-util";
    case PolicyKind::kSymbiosis: return "symbiosis";
    case PolicyKind::kIpcMigrate: return "ipc-migrate";
  }
  return "static";
}

std::optional<PolicyKind> policy_from_name(std::string_view name) {
  if (name == "static") return PolicyKind::kStatic;
  if (name == "greedy-util") return PolicyKind::kGreedyUtil;
  if (name == "symbiosis") return PolicyKind::kSymbiosis;
  if (name == "ipc-migrate") return PolicyKind::kIpcMigrate;
  return std::nullopt;
}

Placement AllocationPolicy::initial_placement(
    const MachineShape& shape, const std::vector<unsigned>& job_threads) {
  // The historical fill, common to every shipped policy: contexts are
  // handed out one job at a time in round-robin (a single job degenerates
  // to the block placement the paper uses — tid 0 lands on chip 0), and
  // context `slot` is slot / threads_per_cluster in global cluster order.
  Placement p;
  p.by_cluster.resize(shape.clusters());
  std::vector<unsigned> next(job_threads.size(), 0);
  std::vector<unsigned> base(job_threads.size(), 0);
  for (std::size_t j = 1; j < job_threads.size(); ++j) {
    base[j] = base[j - 1] + job_threads[j - 1];
  }
  unsigned slot = 0;
  bool placed = true;
  while (placed) {
    placed = false;
    for (std::size_t j = 0; j < job_threads.size(); ++j) {
      if (next[j] < job_threads[j]) {
        CSMT_ASSERT_MSG(slot < shape.contexts(),
                        "mix has more threads than hardware contexts");
        p.by_cluster[slot / shape.threads_per_cluster].push_back(
            base[j] + next[j]++);
        ++slot;
        placed = true;
      }
    }
  }
  return p;
}

std::unique_ptr<AllocationPolicy> make_policy(const AllocConfig& cfg) {
  switch (cfg.policy) {
    case PolicyKind::kStatic: return std::make_unique<StaticPolicy>(cfg);
    case PolicyKind::kGreedyUtil:
      return std::make_unique<GreedyUtilPolicy>(cfg);
    case PolicyKind::kSymbiosis:
      return std::make_unique<SymbiosisPolicy>(cfg);
    case PolicyKind::kIpcMigrate:
      return std::make_unique<IpcMigratePolicy>(cfg);
  }
  return std::make_unique<StaticPolicy>(cfg);
}

}  // namespace csmt::alloc
