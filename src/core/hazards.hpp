// Issue-slot accounting, per §4.1 of the paper: every cycle each
// instruction in the window that cannot issue records the type of hazard
// it faces; the cycle's wasted slots are then divided proportionally among
// the recorded hazards.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace csmt::core {

/// Slot categories (§4.1). kUseful is not a hazard — it counts slots that
/// issued productive instructions.
enum class Slot : std::uint8_t {
  kUseful,      ///< issued, productive instruction
  kFetch,       ///< no instructions for a thread in the window
  kSync,        ///< spinning on barriers or locks
  kControl,     ///< branch mispredictions
  kData,        ///< data dependencies (non-load producer)
  kMemory,      ///< waiting on a memory access
  kStructural,  ///< ready but lacking a functional unit
  kOther,       ///< dispatch stall: the window (ROB, IQ, renaming) is full
  kCount_,
};

inline constexpr std::size_t kNumSlots = static_cast<std::size_t>(Slot::kCount_);

const char* slot_name(Slot s);

/// Issue-slot statistics as read out of a SlotTally. Values are fractional
/// because wasted slots are divided proportionally among the hazards
/// present in the window.
struct SlotStats {
  std::array<double, kNumSlots> slots = {};

  double& operator[](Slot s) { return slots[static_cast<std::size_t>(s)]; }
  double operator[](Slot s) const { return slots[static_cast<std::size_t>(s)]; }

  double total() const {
    double t = 0;
    for (double v : slots) t += v;
    return t;
  }

  double fraction(Slot s) const {
    const double t = total();
    return t > 0 ? (*this)[s] / t : 0.0;
  }

  std::string summary() const;
};

/// The §4.1 charges as exact integers. A cycle that wastes `w` slots over a
/// hazard histogram `h` with `t = sum(h)` charges `w * h[i] / t` slots to
/// category i; the tally adds the numerator `w * h[i]` to row `t`, so sums
/// are exact and independent of order, and slots() divides once. Row 1
/// holds whole slots: issued instructions, and the fetch slots of a cycle
/// with an empty histogram.
class SlotTally {
 public:
  using Hist = std::uint32_t[kNumSlots];

  SlotTally() = default;
  /// Rows for every denominator up to `max_total`, sized here so that no
  /// charge allocates.
  explicit SlotTally(std::size_t max_total) : rows_(max_total + 1) {}

  /// `n` whole slots of category `s`.
  void whole(Slot s, std::uint64_t n) {
    rows_[1][static_cast<std::size_t>(s)] += n;
  }

  /// `times` cycles, each wasting `wasted` slots over histogram `hist`.
  void charge(const Hist& hist, std::uint64_t wasted, std::uint64_t times) {
    std::uint32_t total = 0;
    for (const std::uint32_t h : hist) total += h;
    const std::uint64_t w = wasted * times;
    if (total == 0) {
      // Empty window and nothing blocked: lack of instructions to run.
      rows_[1][static_cast<std::size_t>(Slot::kFetch)] += w;
      return;
    }
    CSMT_ASSERT_MSG(total < rows_.size(), "hazard count beyond the tally");
    Row& row = rows_[total];
    for (std::size_t i = 0; i < kNumSlots; ++i) row[i] += w * hist[i];
  }

  /// Adds another tally's numerators, row by row.
  void add(const SlotTally& o);

  /// The slot counts: each category's sum of numerator / row.
  SlotStats slots() const;

 private:
  using Row = std::array<std::uint64_t, kNumSlots>;
  std::vector<Row> rows_;  ///< rows_[t][i]: numerators over denominator t
};

}  // namespace csmt::core
