// 512-entry fully associative TLB with random replacement, shared by all
// threads of a chip (paper §3.4). The simulator's address space is flat, so
// the TLB only models the *timing* of translation.
//
// Residency is tracked with a flat open-addressed table (linear probing,
// backward-shift deletion) instead of a node-based set: the table holds
// 16-bit indices into the slot array, so a lookup is a couple of cache
// lines and the per-access path — on the memory system's hot path for
// every load and store — never allocates after construction (DESIGN.md §9).
// Replacement behavior is unchanged: same RNG draw sequence, same victim,
// same hit/miss stream as the set-backed version.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "mem/paged_memory.hpp"

namespace csmt::cache {

struct TlbStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double miss_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(misses) / static_cast<double>(total)
                 : 0.0;
  }
};

class Tlb {
 public:
  explicit Tlb(unsigned entries = 512, std::uint64_t seed = 0x7165)
      : capacity_(entries), rng_(seed) {
    CSMT_ASSERT_MSG(entries > 0 && entries < kEmptySlot,
                    "TLB slot indices are 16-bit");
    slots_.reserve(entries);
    // Power-of-two table at most half full: probe chains stay short and
    // the bucket map is a mask, not a modulo.
    std::size_t size = 16;
    while (size < 2 * static_cast<std::size_t>(entries)) size <<= 1;
    table_.assign(size, kEmptySlot);
    mask_ = size - 1;
    shift_ = 64;
    for (std::size_t s = size; s > 1; s >>= 1) --shift_;
  }

  /// Translates the page of `addr`. Returns true on a hit; on a miss the
  /// translation is installed (evicting a random entry when full) and false
  /// is returned — the caller charges the refill penalty.
  bool access(Addr addr) {
    const Addr page = mem::page_of(addr);
    if (find(page) != kNotFound) {
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    std::uint16_t slot;
    if (slots_.size() < capacity_) {
      slot = static_cast<std::uint16_t>(slots_.size());
      slots_.push_back(page);
    } else {
      slot = static_cast<std::uint16_t>(rng_.below(capacity_));
      erase_at(find(slots_[slot]));
      slots_[slot] = page;
    }
    insert(page, slot);
    return false;
  }

  const TlbStats& stats() const { return stats_; }
  std::size_t resident() const { return slots_.size(); }

 private:
  static constexpr std::uint16_t kEmptySlot = 0xFFFF;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  /// Fibonacci-multiplicative bucket: the high bits of page * 2^64/phi.
  std::size_t bucket_of(Addr page) const {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::size_t find(Addr page) const {
    std::size_t i = bucket_of(page);
    while (table_[i] != kEmptySlot) {
      if (slots_[table_[i]] == page) return i;
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  void insert(Addr page, std::uint16_t slot) {
    std::size_t i = bucket_of(page);
    while (table_[i] != kEmptySlot) i = (i + 1) & mask_;
    table_[i] = slot;
  }

  /// Deletes the entry at bucket `i`, compacting the probe chain behind it
  /// (Knuth's Algorithm R) so no tombstones accumulate.
  void erase_at(std::size_t i) {
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (table_[j] == kEmptySlot) break;
      const std::size_t home = bucket_of(slots_[table_[j]]);
      // The entry at j may fill the hole at i only if its home bucket is
      // not cyclically inside (i, j] — otherwise moving it would put it
      // ahead of its own probe chain.
      const bool home_in_gap =
          (i <= j) ? (i < home && home <= j) : (i < home || home <= j);
      if (!home_in_gap) {
        table_[i] = table_[j];
        i = j;
      }
    }
    table_[i] = kEmptySlot;
  }

  unsigned capacity_;
  Rng rng_;
  std::vector<Addr> slots_;          ///< resident pages, by slot
  std::vector<std::uint16_t> table_; ///< open-addressed page → slot map
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
  TlbStats stats_;
};

}  // namespace csmt::cache
