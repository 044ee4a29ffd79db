#include "core/hazards.hpp"

#include "common/stats.hpp"

namespace csmt::core {

const char* slot_name(Slot s) {
  switch (s) {
    case Slot::kUseful: return "useful";
    case Slot::kFetch: return "fetch";
    case Slot::kSync: return "sync";
    case Slot::kControl: return "control";
    case Slot::kData: return "data";
    case Slot::kMemory: return "memory";
    case Slot::kStructural: return "structural";
    case Slot::kOther: return "other";
    case Slot::kCount_: break;
  }
  return "?";
}

void SlotTally::add(const SlotTally& o) {
  if (rows_.size() < o.rows_.size()) rows_.resize(o.rows_.size());
  for (std::size_t t = 0; t < o.rows_.size(); ++t) {
    for (std::size_t i = 0; i < kNumSlots; ++i) rows_[t][i] += o.rows_[t][i];
  }
}

SlotStats SlotTally::slots() const {
  // Whole quotients sum exactly; only the remainders' fractions round, so
  // the one final rounding dominates and the result does not depend on the
  // order the charges came in.
  SlotStats out;
  for (std::size_t i = 0; i < kNumSlots; ++i) {
    std::uint64_t whole = 0;
    double frac = 0.0;
    for (std::size_t t = 1; t < rows_.size(); ++t) {
      whole += rows_[t][i] / t;
      frac += static_cast<double>(rows_[t][i] % t) / static_cast<double>(t);
    }
    out.slots[i] = static_cast<double>(whole) + frac;
  }
  return out;
}

std::string SlotStats::summary() const {
  std::string out;
  for (std::size_t i = 0; i < kNumSlots; ++i) {
    const auto s = static_cast<Slot>(i);
    if (!out.empty()) out += "  ";
    out += slot_name(s);
    out += "=";
    out += format_percent(fraction(s));
  }
  return out;
}

}  // namespace csmt::core
