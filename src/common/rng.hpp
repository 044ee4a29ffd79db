// Deterministic, seedable RNG (xoshiro256**). The simulator must be exactly
// reproducible run-to-run, so no std::random_device anywhere.
#pragma once

#include <cstdint>

namespace csmt {

/// Small, fast, deterministic PRNG. Used by the TLB's random replacement
/// policy and by workload data initialization.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding to fill the state from a single word.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit word.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint32_t below(std::uint32_t bound) {
    // Lemire's multiply-shift; bias is negligible for simulator purposes.
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace csmt
