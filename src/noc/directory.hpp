// Full-bit-map directory state, one logical directory per home node
// (DASH-style, §3.4 / [8]). Pure state machine: the timing orchestration
// lives in DashInterconnect.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace csmt::noc {

/// Directory state of one memory line.
enum class DirState : std::uint8_t {
  kUncached,  ///< no chip caches the line
  kShared,    ///< cached read-only by the chips in `sharers`
  kOwned,     ///< exclusively held (possibly dirty) by `owner`
};

struct DirEntry {
  DirState state = DirState::kUncached;
  std::uint32_t sharers = 0;  ///< bit i set => chip i holds the line shared
  std::uint32_t owner = 0;    ///< valid when state == kOwned
};

class Directory {
 public:
  /// Entry for `line_addr`, default-constructed (Uncached) when new.
  DirEntry& entry(Addr line_addr) { return entries_[line_addr]; }

  /// Read-only view; returns Uncached for untracked lines.
  DirEntry peek(Addr line_addr) const {
    const auto it = entries_.find(line_addr);
    return it == entries_.end() ? DirEntry{} : it->second;
  }

  std::size_t tracked_lines() const { return entries_.size(); }

  static std::uint32_t bit(std::uint32_t chip) { return 1u << chip; }

  static unsigned popcount(std::uint32_t sharers) {
    unsigned n = 0;
    while (sharers) {
      sharers &= sharers - 1;
      ++n;
    }
    return n;
  }

 private:
  std::unordered_map<Addr, DirEntry> entries_;
};

}  // namespace csmt::noc
