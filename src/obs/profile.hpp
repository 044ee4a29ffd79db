// csmt::obs sim-speed profiling: wall-clock instrumentation of the
// simulator itself (not the simulated machine). PhaseProfiler attributes
// host time to pipeline phases via RAII scopes; SimSpeed is the per-run
// summary (cycles/sec, committed-KIPS, per-phase seconds) that rides along
// in sweep artifacts so "this point is 10× slower to simulate" is visible
// per point, not guessed at.
//
// Wall-clock numbers are host-dependent by nature, so none of this touches
// RunStats — results with profiling on compare bit-identical to results
// with it off.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace csmt::obs {

/// Simulator execution phases, for host-time attribution.
enum class Phase : std::uint8_t {
  kFetch,
  kIssue,
  kCommit,
  kMemory,  ///< L1/L2/TLB/MSHR model time
  kNoc,     ///< DASH directory / interconnect model time
  kOther,   ///< everything outside the instrumented scopes
  kCount_,
};

inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount_);

const char* phase_name(Phase p);

/// Accumulates host time per phase using self-time semantics: nested scopes
/// pause the enclosing phase, so each nanosecond lands in exactly one
/// bucket (e.g. memory time inside issue() counts as kMemory, not kIssue).
/// Like the trace writer, instrumentation sites hold a raw pointer that is
/// nullptr when profiling is off.
class PhaseProfiler {
 public:
  using clock = std::chrono::steady_clock;

  void begin(Phase p) {
    const clock::time_point now = clock::now();
    if (depth_ > 0) charge(now);
    if (depth_ < kMaxDepth) stack_[depth_] = p;
    ++depth_;
    mark_ = now;
  }

  void end() {
    const clock::time_point now = clock::now();
    if (depth_ > 0) {
      charge(now);
      --depth_;
    }
    mark_ = now;
  }

  double seconds(Phase p) const {
    return std::chrono::duration<double>(ns_[static_cast<std::size_t>(p)])
        .count();
  }

 private:
  void charge(clock::time_point now) {
    const std::size_t top = depth_ - 1;
    const Phase p = top < kMaxDepth ? stack_[top] : Phase::kOther;
    ns_[static_cast<std::size_t>(p)] += now - mark_;
  }

  static constexpr std::size_t kMaxDepth = 8;
  std::array<clock::duration, kNumPhases> ns_ = {};
  std::array<Phase, kMaxDepth> stack_ = {};
  std::size_t depth_ = 0;
  clock::time_point mark_;
};

/// RAII phase scope; a nullptr profiler makes it a no-op (one branch).
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* p, Phase phase) : p_(p) {
    if (p_) p_->begin(phase);
  }
  ~ScopedPhase() {
    if (p_) p_->end();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* p_;
};

/// Per-run simulator-speed summary. `measured` is always true for runs that
/// went through run_experiment; `phases_measured` only when the per-phase
/// profiler was enabled (it costs two clock reads per scope).
struct SimSpeed {
  bool measured = false;
  double wall_seconds = 0.0;
  std::uint64_t sim_cycles = 0;
  /// Simulated cycles the machine's clock jumped while every cluster
  /// slept (DESIGN.md §8). Deterministic for a given spec, but an
  /// execution-strategy detail rather than a machine statistic, so it
  /// lives here and not in RunStats.
  std::uint64_t quiet_cycles = 0;
  /// Per-cluster cycles skipped while asleep and replayed lazily at wake
  /// time (component-granular quiescence, DESIGN.md §14).
  /// Counts cluster-cycles, so it can exceed sim_cycles on wide machines.
  std::uint64_t cluster_quiet_cycles = 0;
  std::uint64_t committed = 0;  ///< useful + sync instructions
  /// std::thread::hardware_concurrency() of the host that produced this
  /// run — context for comparing wall-clock numbers across machines.
  std::uint32_t host_threads = 0;
  bool phases_measured = false;
  std::array<double, kNumPhases> phase_seconds = {};

  /// Fraction of simulated cycles the clock jumped.
  double quiet_fraction() const {
    return sim_cycles ? static_cast<double>(quiet_cycles) /
                            static_cast<double>(sim_cycles)
                      : 0.0;
  }

  double cycles_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(sim_cycles) / wall_seconds
                            : 0.0;
  }
  /// Committed instructions per wall-clock second, in thousands.
  double committed_kips() const {
    return wall_seconds > 0
               ? static_cast<double>(committed) / wall_seconds / 1e3
               : 0.0;
  }

  /// One-line human summary, e.g. "1.23 Mcyc/s, 456 KIPS, 0.81s".
  std::string summary() const;
};

/// Minimal steady-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace csmt::obs
