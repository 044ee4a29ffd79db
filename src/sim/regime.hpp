// Run-regime classification (DESIGN.md §12): tags a completed point
// busy/idle/mixed from its quiet-cycle fraction — the share of simulated
// cycles the machine's clock jumped while every cluster slept
// (DESIGN.md §8). The fraction is a pure function of the spec (quiet and
// total cycles are deterministic counters), so the tag is deterministic
// too: it rides in results JSON, the summary table and the sweep progress
// line without re-running anything.
#pragma once

namespace csmt::sim {

enum class Regime {
  kBusy,   ///< quiet fraction < kBusyCeiling: per-cycle work dominates
  kIdle,   ///< quiet fraction >= kIdleFloor: long quiescent spans dominate
  kMixed,  ///< in between: phases of both
};

/// Classification thresholds on the quiet-cycle fraction. Calibrated
/// against perf_gate's points in BENCH_simspeed.json (the `one-harness`
/// record): the busy ones sit below 0.25 (chase SMT2x4 0.163, mgrid FA1x4
/// 0.088, ocean SMT2x4 0.109, swim SMT2x4 0.222), the idle one above 0.75
/// (chase FA1x4 0.859), and the one-chip chase SMT2x1, at 0.549, is mixed.
inline constexpr double kBusyCeiling = 0.25;
inline constexpr double kIdleFloor = 0.75;

/// Tags a run from its quiet-cycle fraction in [0, 1]. A --no-skip run
/// reports fraction 0 and classifies busy: the tag describes how the run
/// was executed, and a per-cycle run is all full ticks by definition.
constexpr Regime classify_regime(double quiet_fraction) {
  if (quiet_fraction >= kIdleFloor) return Regime::kIdle;
  if (quiet_fraction < kBusyCeiling) return Regime::kBusy;
  return Regime::kMixed;
}

constexpr const char* regime_name(Regime r) {
  switch (r) {
    case Regime::kBusy:
      return "busy";
    case Regime::kIdle:
      return "idle";
    case Regime::kMixed:
      return "mixed";
  }
  return "busy";
}

}  // namespace csmt::sim
