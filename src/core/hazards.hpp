// Issue-slot accounting, per §4.1 of the paper: every cycle each
// instruction in the window that cannot issue records the type of hazard
// it faces; the cycle's wasted slots are then divided proportionally among
// the recorded hazards.
#pragma once

#include <array>
#include <cstdint>
#include <string>

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
  kOther,       ///< squash aftermath / lack of renaming registers
  kCount_,
};

inline constexpr std::size_t kNumSlots = static_cast<std::size_t>(Slot::kCount_);

const char* slot_name(Slot s);

/// Accumulated issue-slot statistics. Values are fractional because wasted
/// slots are divided proportionally among the hazards present in the window.
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

  void merge(const SlotStats& o) {
    for (std::size_t i = 0; i < kNumSlots; ++i) slots[i] += o.slots[i];
  }

  /// Checkpoint visitor (ckpt::Serializer). Doubles travel as bit patterns,
  /// so the fractional hazard attribution resumes bit-identically.
  template <class Serializer>
  void serialize(Serializer& s) {
    for (auto& v : slots) s.io(v);
  }

  std::string summary() const;
};

}  // namespace csmt::core
