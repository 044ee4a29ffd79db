// csmt::alloc — the pluggable thread-to-cluster allocation API
// (DESIGN.md §11).
//
// The paper only evaluates static assignments: the machine hands contexts
// out at startup and never revisits the decision. This subsystem carves
// that implicit policy into a first-class interface: an AllocationPolicy
// decides the initial placement of a mix's software threads onto the
// machine's hardware contexts and, for dynamic policies, proposes
// epoch-boundary migrations from per-thread/per-cluster telemetry (IPC,
// issue-slot utilization, chip miss rates). The Controller (controller.hpp)
// executes those decisions against the live clusters under an explicit,
// deterministic migration cost model.
//
// Policy designs follow the dynamic-allocation literature the extension
// targets: greedy utilization packing (SET-style), complementary-thread
// pairing on SMT cores (SYNPA-style), and prediction-driven migration
// (the thread-to-core allocation family). `static` reproduces the
// historical round-robin fill bit for bit and stays the default.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace csmt::alloc {

enum class PolicyKind : std::uint8_t {
  kStatic,      ///< historical startup fill, no migrations (the default)
  kGreedyUtil,  ///< balance live threads by packing toward idle clusters
  kSymbiosis,   ///< pair complementary (high+low IPC) threads per cluster
  kIpcMigrate,  ///< EWMA-predicted IPC drives migrations to free width
};

/// Stable names ("static", "greedy-util", "symbiosis", "ipc-migrate") for
/// CLI flags, JSON artifacts, and the sweep cache key.
const char* policy_name(PolicyKind kind);
std::optional<PolicyKind> policy_from_name(std::string_view name);

/// Epoch length used when a dynamic policy is selected without one.
inline constexpr Cycle kDefaultEpoch = 5'000;
/// Default pipeline-restart penalty charged to a migrating thread (cycles
/// between detach and its first fetch on the destination cluster).
inline constexpr Cycle kDefaultMigrationCost = 64;

struct AllocConfig {
  PolicyKind policy = PolicyKind::kStatic;
  /// Cycles between allocation epochs; 0 = kDefaultEpoch (dynamic only).
  Cycle epoch = 0;
  /// Cost model: a migrated thread fetches no earlier than
  /// detach + migration_cost (rename flush + state transfer + cold refill).
  Cycle migration_cost = kDefaultMigrationCost;
  /// Cap on migrations started per epoch (keeps churn bounded).
  unsigned max_moves_per_epoch = 4;

  bool dynamic() const { return policy != PolicyKind::kStatic; }
  Cycle resolved_epoch() const {
    return epoch ? epoch : kDefaultEpoch;
  }
};

/// Geometry of the machine as the policies see it: clusters are numbered
/// globally, chip-major (cluster g lives on chip g / clusters_per_chip).
struct MachineShape {
  unsigned chips = 1;
  unsigned clusters_per_chip = 1;
  unsigned threads_per_cluster = 1;

  unsigned clusters() const { return chips * clusters_per_chip; }
  unsigned contexts() const { return clusters() * threads_per_cluster; }
};

/// Initial placement: for each global cluster, the mix-thread indices to
/// attach, in attach order (order matters — it fixes the round-robin
/// pointers, so it is part of the bit-identity contract).
struct Placement {
  std::vector<std::vector<unsigned>> by_cluster;
};

/// A thread's cluster when it is not bound to one (mid-migration, or a done
/// thread whose context was reclaimed).
inline constexpr unsigned kNoCluster = ~0u;

struct ThreadSample {
  unsigned mix_thread = 0;
  unsigned cluster = kNoCluster;  ///< kNoCluster while in transit/reclaimed
  bool done = false;
  bool migrating = false;         ///< a started migration has not finished
  std::uint64_t instret_delta = 0;  ///< instructions retired this epoch
  double ipc = 0.0;                 ///< instret_delta / epoch length
};

struct ClusterSample {
  unsigned capacity = 0;   ///< hardware contexts (Table 2 `threads`)
  unsigned live = 0;       ///< attached, not done, not frozen for departure
  double issue_util = 0.0;  ///< issued this epoch / (width * epoch length)
  /// Chip-level memory telemetry (shared hierarchy §3.4: every cluster of a
  /// chip reports its chip's rates).
  double l1_miss_rate = 0.0;
  double tlb_miss_rate = 0.0;
};

/// Telemetry snapshot handed to plan_epoch at each epoch boundary.
struct EpochView {
  Cycle now = 0;
  Cycle epoch_len = 0;
  std::vector<ThreadSample> threads;    ///< indexed by mix thread
  std::vector<ClusterSample> clusters;  ///< indexed by global cluster
};

/// One proposed move: re-home `mix_thread` onto `to_cluster`.
struct Migration {
  unsigned mix_thread = 0;
  unsigned to_cluster = 0;
};

/// Counters the controller exports into RunStats/JSON ("alloc" object).
struct AllocStats {
  std::uint64_t epochs = 0;       ///< epoch boundaries evaluated
  std::uint64_t migrations = 0;   ///< completed thread moves
  std::uint64_t rejected = 0;     ///< proposals dropped as infeasible
  std::uint64_t drain_cycles = 0;  ///< decision -> window drained, summed
  std::uint64_t stall_cycles = 0;  ///< decision -> first eligible fetch, summed
};

class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;

  PolicyKind kind() const { return kind_; }

  /// Deterministic initial placement of a mix whose jobs contribute
  /// `job_threads[j]` threads each (mix threads are numbered job-major).
  /// Every shipped policy uses the historical interleaved fill so that a
  /// run's first epoch starts from the paper's placement.
  virtual Placement initial_placement(
      const MachineShape& shape, const std::vector<unsigned>& job_threads);

  /// Epoch boundary: append proposed migrations to `out` (at most
  /// cfg.max_moves_per_epoch; the controller re-checks feasibility). Must
  /// be a pure function of `view` and the policy's own state.
  virtual void plan_epoch(const EpochView& view,
                          std::vector<Migration>& out) = 0;

 protected:
  AllocationPolicy(PolicyKind kind, const AllocConfig& cfg)
      : kind_(kind), cfg_(cfg) {}

  const AllocConfig& config() const { return cfg_; }

 private:
  PolicyKind kind_;
  AllocConfig cfg_;
};

/// Builds the policy `cfg.policy` names.
std::unique_ptr<AllocationPolicy> make_policy(const AllocConfig& cfg);

}  // namespace csmt::alloc
