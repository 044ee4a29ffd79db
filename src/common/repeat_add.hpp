// Closed-form repeated floating-point addition.
//
// The §4.1 slot accumulators are doubles that a quiescent cluster grows by
// the same delta every cycle. Bit-identity with the per-cycle kernel needs
// the exact result of that rounded sequence, not n * d, so the quiet-span
// replay (DESIGN.md §8, §14) goes through repeat_add.
#pragma once

#include <cstdint>

namespace csmt {

/// The double that `n` evaluations of `x += d` produce under the default
/// round-to-nearest-even mode, bit for bit. Inside one binade every step
/// adds a fixed whole number of ulps, so the steps collapse into one
/// integer multiply-add on the significand; the cost is O(binades crossed)
/// rather than O(n). Operands outside that domain (a negative or
/// non-finite operand, or an `x` that is zero, subnormal or not above `d`)
/// take plain additions.
double repeat_add(double x, double d, std::uint64_t n);

}  // namespace csmt
