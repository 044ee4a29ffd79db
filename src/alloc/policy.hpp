// csmt::alloc — thread-to-cluster allocation (DESIGN.md §11).
//
// The paper only evaluates static assignments: the machine hands contexts
// out at startup and never revisits the decision. Every run here starts
// from that placement (initial_placement); a dynamic AllocationPolicy then
// proposes epoch-boundary migrations from per-thread telemetry (epoch
// IPC, done/migrating flags). The Controller (controller.hpp) executes
// those decisions against the live clusters under an explicit,
// deterministic migration cost model. A `static` run builds neither.
//
// Policy designs follow the dynamic-allocation literature the extension
// targets: greedy utilization packing (SET-style), complementary-thread
// pairing on SMT cores (SYNPA-style), and prediction-driven migration
// (the thread-to-core allocation family).
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
/// JSON artifacts and the sweep cache key.
const char* policy_name(PolicyKind kind);
std::optional<PolicyKind> policy_from_name(std::string_view name);

/// Epoch length used when a dynamic policy is selected without one.
inline constexpr Cycle kDefaultEpoch = 5'000;
/// Pipeline-restart penalty charged to a migrating thread: it fetches no
/// earlier than detach + kMigrationCost (rename flush + state transfer +
/// cold refill).
inline constexpr Cycle kMigrationCost = 64;
/// Cap on the migrations a policy proposes per epoch (keeps churn bounded).
inline constexpr unsigned kMaxMovesPerEpoch = 4;

struct AllocConfig {
  PolicyKind policy = PolicyKind::kStatic;
  /// Cycles between allocation epochs; 0 = kDefaultEpoch (dynamic only).
  Cycle epoch = 0;

  bool dynamic() const { return policy != PolicyKind::kStatic; }
  Cycle resolved_epoch() const {
    return epoch ? epoch : kDefaultEpoch;
  }
};

/// The placement every run starts from: entry s is the mix thread bound to
/// hardware context s, contexts numbered chip-major then cluster-major
/// (context s lives on global cluster s / threads-per-cluster). Mix
/// threads are numbered job-major, `job_threads[j]` per job. Contexts are
/// handed out one job at a time in round-robin, so a single job
/// degenerates to the block placement the paper uses (tid 0 on chip 0).
/// The order is part of the bit-identity contract: it fixes each
/// cluster's attach order and so its round-robin pointers.
std::vector<unsigned> initial_placement(
    const std::vector<unsigned>& job_threads);

/// A thread's cluster when it is not bound to one (mid-migration, or a done
/// thread whose context was reclaimed).
inline constexpr unsigned kNoCluster = ~0u;

struct ThreadSample {
  unsigned cluster = kNoCluster;  ///< kNoCluster while in transit/reclaimed
  bool done = false;
  bool migrating = false;  ///< a started migration has not finished
  double ipc = 0.0;        ///< instructions retired this epoch / epoch length
};

/// Telemetry snapshot handed to plan_epoch at each epoch boundary.
struct EpochView {
  unsigned clusters = 0;  ///< global cluster count
  unsigned capacity = 0;  ///< hardware contexts per cluster (Table 2 `threads`)
  std::vector<ThreadSample> threads;  ///< indexed by mix thread
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

/// A dynamic policy: proposes migrations at epoch boundaries.
class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;

  /// Epoch boundary: append proposed migrations to `out` (at most
  /// kMaxMovesPerEpoch; the controller re-checks feasibility). Must be a
  /// pure function of `view` and the policy's own state.
  virtual void plan_epoch(const EpochView& view,
                          std::vector<Migration>& out) = 0;
};

/// Builds the dynamic policy `kind` names. `static` is no policy: a static
/// run keeps its initial placement and builds no controller.
std::unique_ptr<AllocationPolicy> make_policy(PolicyKind kind);

}  // namespace csmt::alloc
