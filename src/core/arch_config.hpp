// Architecture configurations from Table 2 of the paper. Every architecture
// is a chip of identical clusters; a cluster is an SMT core of some width
// handling some number of hardware threads. FA (fixed-assignment)
// configurations are the 1-thread-per-cluster special case.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace csmt::core {

/// Fetch policy of a cluster's fetch unit. The paper's SMT uses round-robin
/// (one thread per cycle, §3.2); the alternatives are the paper's own
/// discussion of Tullsen's fetch-bottleneck fixes (§5.2) and feed the
/// fetch-policy ablation bench.
enum class FetchPolicy : std::uint8_t {
  kRoundRobin,       ///< strict RR; a stalled thread wastes its fetch turn
  kRoundRobinSkip,   ///< RR over threads able to fetch this cycle
  kIcount,           ///< fetch the fetchable thread with fewest window insts
};

struct ClusterConfig {
  unsigned width = 8;        ///< max IPC and fetch width (Table 2)
  unsigned threads = 8;      ///< hardware contexts per cluster
  unsigned int_units = 6;
  unsigned ldst_units = 4;
  unsigned fp_units = 4;
  /// Window entries: the ROB, and with it the IQ and the int and fp
  /// renaming registers, which Table 2 sizes alike. Each of those three
  /// counts live uops, so only a full ROB ever stops dispatch.
  unsigned window = 128;
  /// Cycles between a sync release and the woken thread's first fetch —
  /// the re-read of the sync line after invalidation. 0 = resolved by the
  /// Machine (15 low-end, 40 high-end; see DESIGN.md knobs).
  unsigned sync_wake_latency = 0;
};

struct ArchConfig {
  std::string name;
  unsigned clusters = 1;
  ClusterConfig cluster;
  FetchPolicy fetch_policy = FetchPolicy::kRoundRobinSkip;

  unsigned threads_per_chip() const { return clusters * cluster.threads; }
  unsigned issue_width_per_chip() const { return clusters * cluster.width; }
};

/// The seven architectures of Table 2. kSmt8 is the paper's SMT8 alias for
/// FA8 (used as the normalization baseline of Figures 7/8).
enum class ArchKind {
  kFa8, kFa4, kFa2, kFa1,
  kSmt4, kSmt2, kSmt1, kSmt8,
};

/// Builds the Table 2 preset for `kind`.
ArchConfig arch_preset(ArchKind kind);

const char* arch_name(ArchKind kind);

/// Inverse of arch_name(); nullopt for unknown strings. Used by the sweep
/// result cache and CLI/JSON round-trips.
std::optional<ArchKind> arch_from_name(std::string_view name);

/// Stable names for FetchPolicy values ("rr", "rr-skip", "icount").
const char* fetch_policy_name(FetchPolicy policy);
std::optional<FetchPolicy> fetch_policy_from_name(std::string_view name);

}  // namespace csmt::core
