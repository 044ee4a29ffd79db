// Branch prediction, per the paper's base core (§3.1): a 2K-entry
// direct-mapped table of 2-bit saturating counters addressed by low-order PC
// bits, plus a branch target buffer. Multiple predictions may be outstanding.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace csmt::branch {

struct PredictorStats {
  std::uint64_t cond_lookups = 0;
  std::uint64_t cond_mispredicts = 0;
  std::uint64_t btb_misses = 0;

  double mispredict_rate() const {
    return cond_lookups
               ? static_cast<double>(cond_mispredicts + btb_misses) /
                     static_cast<double>(cond_lookups)
               : 0.0;
  }
};

class BranchPredictor {
 public:
  /// `entries` must be a power of two (default 2K, per the paper).
  explicit BranchPredictor(std::size_t entries = 2048,
                           std::size_t btb_entries = 2048);

  /// Predicts the conditional branch at static index `pc`, then updates the
  /// counter and BTB with the actual outcome (the functional front end
  /// resolves branches at fetch). Returns true iff the prediction was
  /// correct: direction matched, and for a taken branch the BTB held the
  /// correct target.
  bool predict_and_update(std::uint64_t pc, bool actual_taken,
                          std::uint64_t actual_target);

  /// Direction prediction only, without update (for tests).
  bool peek_direction(std::uint64_t pc) const;

  const PredictorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  std::vector<std::uint8_t> counters_;  ///< 2-bit saturating, init weakly-taken
  struct BtbEntry {
    std::uint64_t tag = ~0ull;
    std::uint64_t target = 0;
  };
  std::vector<BtbEntry> btb_;
  std::size_t mask_;
  std::size_t btb_mask_;
  PredictorStats stats_;
};

}  // namespace csmt::branch
