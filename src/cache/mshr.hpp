// Miss-status holding registers: bound the number of outstanding load
// misses per chip (paper: 32) and merge secondary misses to the same line.
//
// Hot-path note (DESIGN.md §9): the live entries are packed at the front of
// a fixed array, and the file keeps the exact minimum ready cycle, so the
// per-access bookkeeping the memory system performs on every reference —
// expire, merge probe, full check — visits only the `count_` live entries
// and is O(1) whenever nothing is in flight or nothing is due. A line is
// live at most once (the merge probe precedes every allocation while
// anything is in flight), so the order of the packed entries never changes
// an answer.
#pragma once

#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace csmt::cache {

class MshrFile {
 public:
  explicit MshrFile(unsigned entries) : entries_(entries), slots_(entries) {}

  /// Retires entries whose data has arrived. O(1) when nothing is in
  /// flight or the earliest completion is still in the future.
  void expire(Cycle now) {
    if (count_ == 0 || now < min_ready_) return;
    Cycle next_min = kNeverCycle;
    unsigned live = 0;
    for (unsigned i = 0; i < count_; ++i) {
      const Entry e = slots_[i];
      if (e.ready <= now) continue;
      slots_[live++] = e;
      if (e.ready < next_min) next_min = e.ready;
    }
    count_ = live;
    min_ready_ = next_min;
  }

  /// Returns the ready cycle of an outstanding miss on `line_addr`, or
  /// kNeverCycle if none is outstanding. O(1) when the file is empty.
  Cycle outstanding(Addr line_addr) const {
    for (unsigned i = 0; i < count_; ++i) {
      if (slots_[i].line == line_addr) return slots_[i].ready;
    }
    return kNeverCycle;
  }

  bool full() const { return count_ >= entries_; }

  /// Allocates an entry. The caller must have checked !full(); allocating
  /// into a full file aborts rather than exceed the paper's MSHR count.
  void allocate(Addr line_addr, Cycle ready) {
    CSMT_ASSERT_MSG(count_ < entries_, "MSHR allocation into a full file");
    slots_[count_++] = {line_addr, ready};
    if (ready < min_ready_) min_ready_ = ready;
  }

  unsigned in_flight() const { return count_; }

 private:
  struct Entry {
    Addr line = 0;
    Cycle ready = 0;
  };
  unsigned entries_;
  std::vector<Entry> slots_;     ///< live entries in [0, count_)
  unsigned count_ = 0;           ///< live entries
  Cycle min_ready_ = kNeverCycle;  ///< exact min ready over live entries
};

}  // namespace csmt::cache
