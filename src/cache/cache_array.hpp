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

  double miss_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(misses) / static_cast<double>(total)
                 : 0.0;
  }
};

class CacheArray {
 public:
  /// The line size and the set count must be powers of two (every Table 3
  /// and A5 geometry is), so the per-access line, set and tag arithmetic is
  /// shifts and masks; the constructor aborts on any other geometry.
  explicit CacheArray(const CacheLevelParams& p);

  /// Looks up the line containing byte address `addr`. On a hit, refreshes
  /// LRU and returns the line; on a miss returns nullptr.
  CacheLine* lookup(Addr addr) {
    CacheLine* line = probe(addr);
    if (line) {
      line->lru = ++lru_clock_;
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
    return line;
  }

  /// Peeks without touching LRU or stats (used by coherence probes).
  CacheLine* probe(Addr addr) {
    const std::uint64_t tag = tag_of(addr);
    CacheLine* base = &lines_[set_of(addr) * params_.assoc];
    for (std::size_t w = 0; w < params_.assoc; ++w) {
      if (base[w].valid() && base[w].tag == tag) return &base[w];
    }
    return nullptr;
  }

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

  /// Bank servicing byte address `addr` (line-interleaved across banks):
  /// (addr / line_bytes) % banks, for any bank count, without a divide.
  /// The quotient estimate hi64(line * floor((2^64-1) / banks)) is exact or
  /// one short, so one conditional subtract finishes the remainder.
  unsigned bank_of(Addr addr) const {
    const std::uint64_t line = addr >> line_shift_;
    const auto q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(line) * bank_magic_) >> 64);
    std::uint64_t r = line - q * params_.banks;
    if (r >= params_.banks) r -= params_.banks;
    return static_cast<unsigned>(r);
  }

  Addr line_addr_of(Addr addr) const {
    return addr & ~static_cast<Addr>(params_.line_bytes - 1);
  }

 private:
  std::size_t set_of(Addr addr) const {
    return static_cast<std::size_t>((addr >> line_shift_) & set_mask_);
  }
  std::uint64_t tag_of(Addr addr) const { return addr >> tag_shift_; }
  Addr rebuild_addr(std::uint64_t tag, std::size_t set) const {
    return ((tag << (tag_shift_ - line_shift_)) | set) << line_shift_;
  }

  CacheLevelParams params_;
  std::size_t sets_;
  unsigned line_shift_;       ///< log2(line_bytes)
  unsigned tag_shift_;        ///< log2(line_bytes * sets)
  std::uint64_t set_mask_;    ///< sets - 1
  std::uint64_t bank_magic_;  ///< floor((2^64 - 1) / banks), see bank_of()
  std::vector<CacheLine> lines_;  ///< sets_ x assoc, row-major
  std::uint32_t lru_clock_ = 0;
  CacheArrayStats stats_;
};

}  // namespace csmt::cache
