// Memory-hierarchy parameters. Defaults reproduce Table 3 of the paper:
//
//   [L1 / L2] size            64 KB / 1024 KB
//   [L1 / L2] line            64 B  / 64 B
//   [L1 / L2] associativity   2-way / 4-way
//   [L1 / L2] fill time       8 / 8 cycles
//   banks                     7 / 7
//   read/write occupancy      1 / 1 cycle
//   L1 latency                1 cycle     (contention-free round trip)
//   L2 latency                10 cycles
//   local memory              40 cycles
//   remote memory             60 cycles
//   remote L2                 75 cycles
//   TLB: 512 entries, fully associative, random replacement
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace csmt::cache {

struct CacheLevelParams {
  std::size_t size_bytes;
  std::size_t line_bytes;
  std::size_t assoc;
  unsigned fill_time;       ///< cycles a fill occupies the target bank
  unsigned banks;
  unsigned occupancy;       ///< cycles one access occupies a bank
  unsigned latency;         ///< contention-free round-trip latency

  std::size_t num_sets() const { return size_bytes / (line_bytes * assoc); }
};

struct MemSysParams {
  CacheLevelParams l1{64 * 1024, 64, 2, 8, 7, 1, 1};
  CacheLevelParams l2{1024 * 1024, 64, 4, 8, 7, 1, 10};
  unsigned local_memory_latency = 40;
  unsigned remote_memory_latency = 60;
  unsigned remote_l2_latency = 75;
  /// Max outstanding load misses per chip (paper: "up to 32 outstanding
  /// loads allowed with full load bypassing").
  unsigned max_outstanding_loads = 32;
  /// Memory-controller occupancy per line transfer; creates contention on
  /// the DRAM side (the paper models contention in detail but does not give
  /// this number; documented knob).
  unsigned memory_occupancy = 4;
  unsigned tlb_entries = 512;
  /// TLB refill penalty in cycles (not specified by the paper; see DESIGN.md).
  unsigned tlb_miss_penalty = 30;
  /// Per-bank request-queue depth. Accesses to a busy bank queue (adding
  /// latency) up to this many entries; beyond that the access is rejected
  /// and the core retries (memory hazard).
  unsigned bank_queue_depth = 8;
  /// Per-cluster private L1s instead of the paper's shared L1 (the §3.4
  /// design alternative; see ablation A5). When true, the chip builds one
  /// L1 of `l1.size_bytes / clusters` per cluster, kept coherent through
  /// the shared inclusive L2 by write-invalidate.
  bool l1_private = false;
};

/// Which level ultimately serviced an access (for statistics).
enum class ServiceLevel : std::uint8_t {
  kL1,
  kL2,
  kLocalMemory,
  kRemoteMemory,
  kRemoteL2,
  kMergedMshr,   ///< piggybacked on an outstanding miss to the same line
};

}  // namespace csmt::cache
