// Miss-status holding registers: bound the number of outstanding load
// misses per chip (paper: 32) and merge secondary misses to the same line.
//
// Hot-path note (DESIGN.md §9): the file maintains a live valid-entry count
// and the exact minimum ready cycle, so the per-access bookkeeping that the
// memory system performs on every reference — expire, merge probe, full
// check — is O(1) whenever nothing is in flight or nothing is due, which is
// the common case on hit-dominated streams. Slot scans only run when an
// entry is actually expiring.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace csmt::cache {

struct MshrStats {
  std::uint64_t allocations = 0;
  std::uint64_t merges = 0;
  std::uint64_t full_rejections = 0;
};

class MshrFile {
 public:
  explicit MshrFile(unsigned entries) : entries_(entries) {}

  /// Retires entries whose data has arrived. O(1) when nothing is in
  /// flight or the earliest completion is still in the future.
  void expire(Cycle now) {
    if (count_ == 0 || now < min_ready_) return;
    Cycle next_min = kNeverCycle;
    unsigned live = 0;
    for (auto& e : slots_) {
      if (!e.valid) continue;
      if (e.ready <= now) {
        e.valid = false;
      } else {
        ++live;
        if (e.ready < next_min) next_min = e.ready;
      }
    }
    count_ = live;
    min_ready_ = next_min;
  }

  /// Returns the ready cycle of an outstanding miss on `line_addr`, or
  /// kNeverCycle if none is outstanding. O(1) when the file is empty.
  Cycle outstanding(Addr line_addr) const {
    if (count_ == 0) return kNeverCycle;
    for (const auto& e : slots_) {
      if (e.valid && e.line == line_addr) return e.ready;
    }
    return kNeverCycle;
  }

  /// Earliest ready cycle > `now` among outstanding misses, or kNeverCycle
  /// when none is still in flight (the next-event contract: entries are
  /// retired lazily, so an entry ready at or before `now` is already dead).
  Cycle next_ready(Cycle now) const {
    if (count_ == 0) return kNeverCycle;
    if (min_ready_ > now) return min_ready_;
    Cycle ev = kNeverCycle;
    for (const auto& e : slots_) {
      if (e.valid && e.ready > now && e.ready < ev) ev = e.ready;
    }
    return ev;
  }

  /// Records a merge with an existing entry (statistics only).
  void note_merge() { ++stats_.merges; }

  bool full() const { return count_ >= entries_; }

  /// Allocates an entry; the caller must have checked !full().
  void allocate(Addr line_addr, Cycle ready) {
    ++count_;
    if (ready < min_ready_) min_ready_ = ready;
    ++stats_.allocations;
    for (auto& e : slots_) {
      if (!e.valid) {
        e = {line_addr, ready, true};
        return;
      }
    }
    slots_.push_back({line_addr, ready, true});
  }

  void note_full_rejection() { ++stats_.full_rejections; }

  unsigned in_flight() const { return count_; }

  const MshrStats& stats() const { return stats_; }

  /// Checkpoint visitor (ckpt::Serializer). Entries travel field by field
  /// (never as raw structs — padding bytes are not deterministic). Loads
  /// fail closed: no more slots than entries, every valid entry completes
  /// at a real cycle, and the live count and minimum ready cycle must be
  /// exactly those of the valid entries, since expire(), full() and
  /// next_ready() trust them.
  template <class Serializer>
  void serialize(Serializer& s) {
    s.check(entries_, "mshr entries");
    std::uint64_t n = slots_.size();
    s.io(n);
    if (s.loading()) {
      if (n > entries_) s.fail("mshr slots exceed entries");
      if (!s.bounded_count(n)) {  // false once the load has failed
        slots_.clear();
        return;
      }
      slots_.resize(static_cast<std::size_t>(n));
    }
    for (auto& e : slots_) {
      s.io(e.line);
      s.io(e.ready);
      s.io(e.valid);
    }
    s.io(count_);
    s.io(min_ready_);
    s.io(stats_.allocations);
    s.io(stats_.merges);
    s.io(stats_.full_rejections);
    if (s.loading()) {
      unsigned live = 0;
      Cycle min = kNeverCycle;
      for (const auto& e : slots_) {
        if (!e.valid) continue;
        if (e.ready == kNeverCycle) s.fail("mshr entry never completes");
        ++live;
        if (e.ready < min) min = e.ready;
      }
      if (count_ != live) s.fail("mshr count disagrees with its entries");
      if (min_ready_ != min) s.fail("mshr minimum disagrees with its entries");
    }
  }

 private:
  struct Entry {
    Addr line = 0;
    Cycle ready = 0;
    bool valid = false;
  };
  unsigned entries_;
  std::vector<Entry> slots_;
  unsigned count_ = 0;           ///< live (valid) entries
  Cycle min_ready_ = kNeverCycle;  ///< exact min ready over live entries
  MshrStats stats_;
};

}  // namespace csmt::cache
