// Set-associative tag array with true-LRU replacement and per-line
// dirty/shared state. Purely structural: timing (banks, fills, MSHRs) is
// handled by MemSys on top of this.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/params.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"

namespace csmt::cache {

/// Chip-level coherence state of a resident line (relevant only on the
/// high-end multi-chip machine; the low-end machine holds every line in
/// kExclusive).
enum class LineState : std::uint8_t {
  kInvalid,
  kShared,     ///< clean, possibly replicated in other chips' caches
  kExclusive,  ///< this chip may write; dirty bit tracks modification
};

struct CacheLine {
  std::uint64_t tag = 0;
  LineState state = LineState::kInvalid;
  bool dirty = false;
  std::uint32_t lru = 0;  ///< higher = more recently used

  bool valid() const { return state != LineState::kInvalid; }
};

struct CacheArrayStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
  std::uint64_t invalidations = 0;

  double miss_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(misses) / static_cast<double>(total)
                 : 0.0;
  }
};

class CacheArray {
 public:
  explicit CacheArray(const CacheLevelParams& p);

  /// Looks up the line containing byte address `addr`. On a hit, refreshes
  /// LRU and returns the line; on a miss returns nullptr.
  CacheLine* lookup(Addr addr);

  /// Peeks without touching LRU or stats (used by coherence probes).
  CacheLine* probe(Addr addr);

  /// Result of inserting a line: whether a victim was evicted and whether it
  /// was dirty (the caller issues the write-back).
  struct Eviction {
    bool valid = false;
    bool dirty = false;
    Addr line_addr = 0;   ///< byte address of the victim's first byte
    LineState state = LineState::kInvalid;
  };

  /// Inserts the line containing `addr` in `state`, evicting LRU if needed.
  Eviction insert(Addr addr, LineState state, bool dirty);

  /// Invalidates the line containing `addr` if present. Returns true if it
  /// was present and stores its dirtiness in `*was_dirty`.
  bool invalidate(Addr addr, bool* was_dirty);

  /// Downgrades Exclusive->Shared (coherence intervention). Returns true if
  /// the line was present; `*was_dirty` reports pre-downgrade dirtiness and
  /// the dirty bit is cleared (data flushed to the owner/home).
  bool downgrade(Addr addr, bool* was_dirty);

  const CacheArrayStats& stats() const { return stats_; }
  const CacheLevelParams& params() const { return params_; }

  /// Bank servicing byte address `addr` (line-interleaved across banks).
  unsigned bank_of(Addr addr) const {
    return static_cast<unsigned>((addr / params_.line_bytes) % params_.banks);
  }

  Addr line_addr_of(Addr addr) const {
    return addr & ~static_cast<Addr>(params_.line_bytes - 1);
  }

 private:
  std::size_t set_of(Addr addr) const {
    return (addr / params_.line_bytes) % sets_;
  }
  std::uint64_t tag_of(Addr addr) const {
    return addr / params_.line_bytes / sets_;
  }
  Addr rebuild_addr(std::uint64_t tag, std::size_t set) const {
    return (tag * sets_ + set) * params_.line_bytes;
  }

  CacheLevelParams params_;
  std::size_t sets_;
  std::vector<CacheLine> lines_;  ///< sets_ x assoc, row-major
  std::uint32_t lru_clock_ = 0;
  CacheArrayStats stats_;
};

}  // namespace csmt::cache
