// MemSys: one chip's memory hierarchy — shared L1, L2, TLB, MSHRs, banked
// access timing — composed over a MemoryBackend. Implements the paper's
// Table 3 configuration with detailed contention modeling:
//
//  * line-interleaved banks with 1-cycle read/write occupancy,
//  * 8-cycle fills occupying the target bank,
//  * at most 32 outstanding load misses (MSHRs) with secondary-miss merging,
//  * a shared fully-associative 512-entry random-replacement TLB,
//  * inclusive L2 with back-invalidation of L1 on L2 eviction.
//
// Latency composition honors Table 3's contention-free round trips exactly:
// an access arriving at cycle t completes at t + {1, 10, 40, 60, 75} for
// {L1, L2, local mem, remote mem, remote L2} plus any queuing delays.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cache/backend.hpp"
#include "cache/cache_array.hpp"
#include "cache/mshr.hpp"
#include "cache/params.hpp"
#include "cache/tlb.hpp"
#include "common/types.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace csmt::cache {

/// Why an access could not be accepted this cycle (the core retries and
/// accounts the slot to the `memory` hazard).
enum class RejectReason : std::uint8_t {
  kNone,
  kBankBusy,
  kMshrFull,
};

struct AccessResult {
  bool accepted = false;
  Cycle done = 0;                ///< data-available cycle (loads) / drain (stores)
  ServiceLevel level = ServiceLevel::kL1;
  RejectReason reject = RejectReason::kNone;
};

struct MemSysStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::array<std::uint64_t, 6> by_level = {};  ///< indexed by ServiceLevel
  std::uint64_t bank_rejections = 0;
  std::uint64_t mshr_rejections = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t coherence_invalidations = 0;
  std::uint64_t coherence_downgrades = 0;
  /// Write-invalidate traffic between private L1s (0 with a shared L1).
  std::uint64_t l1_cross_invalidations = 0;
};

class MemSys {
 public:
  /// `l1_count` > 1 builds per-cluster private L1s (each of
  /// params.l1.size_bytes / l1_count bytes), kept coherent through the
  /// shared inclusive L2 by write-invalidate — the §3.4 design alternative.
  MemSys(ChipId chip, const MemSysParams& params, MemoryBackend& backend,
         unsigned l1_count = 1);

  /// A load whose request reaches the L1 at cycle `arrival`; `port` selects
  /// the requesting cluster's L1 (ignored with a shared L1). On acceptance,
  /// `done` is when the value is available to dependents.
  AccessResult load(Addr addr, Cycle arrival, unsigned port = 0) {
    return access(addr, arrival, /*is_store=*/false, /*is_atomic=*/false,
                  port);
  }

  /// A store reaching the L1 at `arrival`. Stores drain through a write
  /// buffer: on acceptance they complete at arrival+1 regardless of where
  /// the line lives, but they still contend for banks and MSHRs.
  AccessResult store(Addr addr, Cycle arrival, unsigned port = 0) {
    return access(addr, arrival, /*is_store=*/true, /*is_atomic=*/false,
                  port);
  }

  /// An atomic read-modify-write: fetches the line exclusively and completes
  /// like a load (dependents wait for the old value).
  AccessResult atomic(Addr addr, Cycle arrival, unsigned port = 0) {
    return access(addr, arrival, /*is_store=*/true, /*is_atomic=*/true,
                  port);
  }

  /// Earliest cycle > `now` at which in-flight work completes: the soonest
  /// MSHR fill or bank-occupancy release. kNeverCycle when nothing is in
  /// flight. The hierarchy is call-driven (state expires lazily on access),
  /// so this is purely a horizon for the quiescence scheduler — skipping
  /// past it is conservative, never unsound.
  ///
  /// The result is cached (DESIGN.md §9): every access() marks the cache
  /// dirty, so between accesses repeated probes cost O(1) instead of a scan
  /// over every bank. A cached horizon is reusable at a later `now` exactly
  /// when it is still in the future — if any completion fell inside
  /// (cached-at, now] the cached minimum would be ≤ now, so `cache > now`
  /// proves the event set is unchanged.
  Cycle next_event(Cycle now) const {
    if (!horizon_dirty_ && horizon_cache_ > now) return horizon_cache_;
    Cycle ev = mshr_.next_ready(now);
    const auto consider_banks = [&ev, now](const std::vector<Cycle>& busy) {
      for (const Cycle b : busy) {
        if (b > now && b < ev) ev = b;
      }
    };
    for (const auto& banks : l1_bank_busy_) consider_banks(banks);
    consider_banks(l2_bank_busy_);
    horizon_cache_ = ev;
    horizon_dirty_ = false;
    return ev;
  }

  // --- coherence entry points (called by the directory on the high end) ---

  /// Removes the line from L1+L2. Returns true if it was present;
  /// `*was_dirty` reports whether modified data was flushed.
  bool coherence_invalidate(Addr line_addr, bool* was_dirty);

  /// Downgrades the line to Shared in L1+L2 (flushing dirty data).
  bool coherence_downgrade(Addr line_addr, bool* was_dirty);

  /// True if the chip's L2 currently holds the line (directory sanity checks).
  bool holds_line(Addr line_addr) { return l2_.probe(line_addr) != nullptr; }

  /// Attaches observability hooks (nullptr = off). Miss/rejection events
  /// land on the chip's memsys track; host time is charged to Phase::kMemory.
  void set_obs(obs::TraceSink* trace, obs::PhaseProfiler* prof) {
    trace_ = trace;
    prof_ = prof;
    track_ = {obs::kChipPidBase + chip_, obs::kMemsysTid};
    if (trace_) trace_->name_track(track_, "memsys");
  }

  const MemSysStats& stats() const { return stats_; }
  /// Aggregated over all L1s (one with the paper's shared configuration).
  CacheArrayStats l1_stats() const;
  const CacheArrayStats& l2_stats() const { return l2_.stats(); }
  unsigned l1_count() const { return static_cast<unsigned>(l1s_.size()); }
  const TlbStats& tlb_stats() const { return tlb_.stats(); }
  const MshrStats& mshr_stats() const { return mshr_.stats(); }
  const MemSysParams& params() const { return params_; }
  ChipId chip() const { return chip_; }

 private:
  AccessResult access(Addr addr, Cycle arrival, bool is_store, bool is_atomic,
                      unsigned port);
  /// Write-invalidate: removes the line from every L1 except `port`,
  /// flushing dirty data into the (inclusive) L2 copy.
  void cross_invalidate(unsigned port, Addr line_addr);

  ChipId chip_;
  MemSysParams params_;
  MemoryBackend& backend_;
  std::vector<CacheArray> l1s_;
  CacheArray l2_;
  Tlb tlb_;
  MshrFile mshr_;
  std::vector<std::vector<Cycle>> l1_bank_busy_;  ///< per L1, per bank
  std::vector<Cycle> l2_bank_busy_;
  /// Bank-queue overflow threshold, hoisted out of the per-access path:
  /// an access is rejected when the bank is busy past arrival + window.
  Cycle l1_reject_window_ = 0;
  mutable Cycle horizon_cache_ = 0;   ///< last next_event() result
  mutable bool horizon_dirty_ = true; ///< an access may have moved the horizon
  MemSysStats stats_;
  obs::TraceSink* trace_ = nullptr;
  obs::PhaseProfiler* prof_ = nullptr;
  obs::Track track_;
};

}  // namespace csmt::cache
