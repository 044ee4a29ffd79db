#include "common/repeat_add.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace csmt {
namespace {

constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
/// Largest significand of a binade; a step past it enters the next one.
constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

double repeat_add(double x, double d, std::uint64_t n) {
  while (n > 0) {
    // d > 0 and x > d make both positive and finite once x is normal.
    if (!(d > 0.0 && x > d && std::isnormal(x))) {
      const double y = x + d;
      --n;
      // A step that leaves x as it was does so on every later step too.
      if (bits(y) == bits(x)) return y;
      x = y;
      continue;
    }
    // x = m * u, with u the ulp of x's binade, and d = q * u + r with
    // 0 <= r < u. `half` compares r with u / 2: -1 below, 0 tie, 1 above.
    const std::uint64_t xe = bits(x) >> 52;
    std::uint64_t m = (bits(x) & kFracMask) | kHidden;
    std::uint64_t de = bits(d) >> 52;
    std::uint64_t md = bits(d) & kFracMask;
    if (de == 0) {
      de = 1;  // subnormal d: the scale of the lowest binade, no hidden bit
    } else {
      md |= kHidden;
    }
    const std::uint64_t s = xe - de;  // d < x, so de <= xe
    std::uint64_t q = 0;
    int half = -1;
    if (s == 0) {
      q = md;
    } else if (s < 64) {
      q = md >> s;
      const std::uint64_t r = md & ((std::uint64_t{1} << s) - 1);
      const std::uint64_t h = std::uint64_t{1} << (s - 1);
      half = r < h ? -1 : (r > h ? 1 : 0);
    }  // else md < 2^53 <= u / 2 in d's units: q = 0, r below half
    // While the exact sum stays inside the binade each step rounds to q or
    // q + 1 ulps. A tie rounds to the even significand, so after one tie
    // step m is even and every later one adds the same even count.
    const std::uint64_t inc =
        q + (half == 0 ? ((m + q) & 1) : static_cast<std::uint64_t>(half > 0));
    if (inc == 0) return x;  // x + d rounds back to x
    const std::uint64_t room = (kTop - m) / inc;
    if (room == 0) {
      x += d;  // this step leaves the binade
      --n;
      continue;
    }
    const std::uint64_t k = half == 0 && (m & 1) ? 1 : std::min(n, room);
    m += k * inc;
    n -= k;
    x = std::bit_cast<double>((xe << 52) | (m & kFracMask));
  }
  return x;
}

}  // namespace csmt
