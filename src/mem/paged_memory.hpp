// Functional simulated memory: a sparse, paged, word-granular flat address
// space shared by all threads of an application (and, in the high-end
// machine, by all chips — coherence is a *timing* concern handled in noc/).
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace csmt::mem {

/// 4 KiB pages; also the TLB translation granularity.
inline constexpr std::size_t kPageBytes = 4096;
inline constexpr std::size_t kPageWords = kPageBytes / kWordBytes;

inline constexpr Addr page_of(Addr a) { return a / kPageBytes; }

class PagedMemory {
 public:
  /// Reads the 64-bit word at byte address `a` (must be 8-byte aligned).
  /// Untouched memory reads as zero.
  std::uint64_t read(Addr a) const {
    check_aligned(a);
    const auto it = pages_.find(page_of(a));
    if (it == pages_.end()) return 0;
    return it->second->words[word_index(a)];
  }

  /// Writes the 64-bit word at byte address `a`.
  void write(Addr a, std::uint64_t v) {
    check_aligned(a);
    page(a).words[word_index(a)] = v;
  }

  double read_double(Addr a) const { return std::bit_cast<double>(read(a)); }
  void write_double(Addr a, double v) {
    write(a, std::bit_cast<std::uint64_t>(v));
  }

  /// Atomic exchange: returns the old value.
  std::uint64_t amo_swap(Addr a, std::uint64_t v) {
    check_aligned(a);
    std::uint64_t& slot = page(a).words[word_index(a)];
    const std::uint64_t old = slot;
    slot = v;
    return old;
  }

  /// Atomic fetch-and-add: returns the old value.
  std::uint64_t amo_add(Addr a, std::uint64_t v) {
    check_aligned(a);
    std::uint64_t& slot = page(a).words[word_index(a)];
    const std::uint64_t old = slot;
    slot = old + v;
    return old;
  }

  /// Number of materialized pages (for tests / footprint reporting).
  std::size_t resident_pages() const { return pages_.size(); }

  /// Frees every materialized page and the map's bucket array, returning
  /// the object to its fresh state. Sweep points call this once their run
  /// has completed and been validated, so a grid's peak footprint tracks
  /// one point's address space, not the sum of every point the process has
  /// run.
  void release() {
    std::unordered_map<Addr, std::unique_ptr<Page>>().swap(pages_);
  }

 private:
  struct Page {
    std::uint64_t words[kPageWords] = {};
  };

  static void check_aligned(Addr a) {
    CSMT_ASSERT_MSG((a & (kWordBytes - 1)) == 0,
                    "unaligned word access in functional memory");
  }
  static std::size_t word_index(Addr a) {
    return (a % kPageBytes) / kWordBytes;
  }

  Page& page(Addr a) {
    auto& slot = pages_[page_of(a)];
    if (!slot) slot = std::make_unique<Page>();
    return *slot;
  }

  std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

/// Bump allocator over a PagedMemory address space. Workloads use it to lay
/// out their arrays, locks, and barriers; it never frees (simulated programs
/// allocate once at startup, like the paper's Fortran/SPLASH codes).
class SimAlloc {
 public:
  /// Base > 0 so that address 0 can serve as a null sentinel.
  /// `skew_bytes` is inserted between consecutive allocations so that
  /// power-of-two-sized arrays do not land at exact multiples of the cache
  /// way size and alias onto the same sets (the padding a Fortran
  /// programmer of the era applied by hand). 9 lines by default.
  explicit SimAlloc(Addr base = kPageBytes, std::size_t skew_bytes = 576)
      : next_(base), skew_(skew_bytes) {}

  /// Allocates `bytes`, aligned to `align` (a power of two >= 8).
  Addr alloc(std::size_t bytes, std::size_t align = kWordBytes) {
    CSMT_ASSERT(align >= kWordBytes && (align & (align - 1)) == 0);
    next_ = (next_ + align - 1) & ~static_cast<Addr>(align - 1);
    const Addr a = next_;
    next_ += bytes + skew_;
    return a;
  }

  /// Allocates an array of `n` 64-bit words (doubles or integers).
  Addr alloc_words(std::size_t n, std::size_t align = kWordBytes) {
    return alloc(n * kWordBytes, align);
  }

  /// Allocates a cache-line-aligned word (locks, barrier slots) so that
  /// distinct sync variables never share a coherence unit.
  Addr alloc_sync_line(std::size_t line_bytes = 64) {
    return alloc(line_bytes, line_bytes);
  }

  Addr high_water() const { return next_; }

 private:
  Addr next_;
  std::size_t skew_;
};

}  // namespace csmt::mem
