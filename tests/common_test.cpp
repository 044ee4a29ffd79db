// Unit tests for src/common: number formatting, tables, the stacked-bar
// renderer, the deterministic RNG, and the closed-form repeated addition.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include "common/repeat_add.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace csmt {
namespace {

TEST(Format, CountGroupsDigits) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(12345678901ull), "12,345,678,901");
}

TEST(Format, FixedAndPercent) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
  EXPECT_EQ(format_percent(0.5), "50.0%");
  EXPECT_EQ(format_percent(0.123456, 2), "12.35%");
}

TEST(AsciiTable, AlignsColumns) {
  AsciiTable t;
  t.header({"a", "bbbb"});
  t.row({"cccc", "d"});
  const std::string out = t.render();
  // Each line has the same column start offsets.
  const auto nl = out.find('\n');
  const std::string line0 = out.substr(0, nl);
  EXPECT_NE(line0.find("a"), std::string::npos);
  EXPECT_NE(out.find("cccc"), std::string::npos);
  // Separator rule present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(AsciiTable, HandlesRaggedRows) {
  AsciiTable t;
  t.header({"x", "y", "z"});
  t.row({"1"});
  EXPECT_NO_THROW({ const auto s = t.render(); (void)s; });
}

TEST(StackedBarChart, RendersSegmentsAndTotals) {
  StackedBarChart c({"useful", "waste"}, 1.0);
  c.add({"run", {3.0, 2.0}});
  const std::string out = c.render();
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("useful"), std::string::npos);
  EXPECT_NE(out.find("5.0"), std::string::npos);  // the bar total
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  // All buckets hit over 1000 draws.
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

/// The reference repeat_add must reproduce: n rounded additions.
double loop_add(double x, double d, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) x += d;
  return x;
}

/// Bit-for-bit comparison with the loop; returns false on a mismatch so
/// callers can stop after the first one instead of flooding the log.
bool matches_loop(double x, double d, std::uint64_t n) {
  const double want = loop_add(x, d, n);
  const double got = repeat_add(x, d, n);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << std::hexfloat << "x=" << x << " d=" << d << " n=" << n
      << ": got " << got << ", want " << want;
  return std::bit_cast<std::uint64_t>(got) ==
         std::bit_cast<std::uint64_t>(want);
}

/// A positive double with a uniform significand and an exponent in
/// [lo, hi].
double random_double(Rng& r, int lo, int hi) {
  const double sig = 1.0 + r.uniform();
  return std::ldexp(sig, lo + static_cast<int>(r.below(
                                  static_cast<std::uint32_t>(hi - lo + 1))));
}

TEST(RepeatAdd, QuietPlanDeltas) {
  // Every per-slot delta a quiet plan can hold: width * h / total with the
  // histogram bounded by the window (Cluster::prime_quiet_plan), from a
  // zero accumulator and from a mid-run one.
  Rng r(16);
  for (const unsigned w : {1u, 2u, 4u, 8u}) {
    for (std::uint32_t t = 1; t <= 140; ++t) {
      for (std::uint32_t h = 1; h <= t; ++h) {
        const double d = static_cast<double>(w) * static_cast<double>(h) /
                         static_cast<double>(t);
        const std::uint64_t n = 1 + r.below(1500);
        ASSERT_TRUE(matches_loop(0.0, d, n));
        ASSERT_TRUE(matches_loop(random_double(r, 0, 24), d, n));
      }
    }
  }
}

TEST(RepeatAdd, RandomDoubles) {
  Rng r(17);
  for (int i = 0; i < 20000; ++i) {
    const double x = random_double(r, -30, 30);
    const double d = random_double(r, -40, 10);
    ASSERT_TRUE(matches_loop(x, d, r.below(4000)));
  }
}

TEST(RepeatAdd, ExactTies) {
  // d = (q + 1/2) ulps of x's binade: every step is a tie, so the result
  // hangs on round-to-even of the significand's parity.
  Rng r(18);
  for (int i = 0; i < 20000; ++i) {
    const int e = static_cast<int>(r.below(60)) - 20;
    const std::uint64_t m = (std::uint64_t{1} << 52) | (r.next() >> 12);
    const double x = std::ldexp(static_cast<double>(m), e - 52);
    const std::uint64_t q = i % 4 == 0 ? 0 : r.next() >> (44 + r.below(20));
    const double d = std::ldexp(static_cast<double>(2 * q + 1), e - 53);
    ASSERT_TRUE(matches_loop(x, d, 1 + r.below(4000)));
  }
}

TEST(RepeatAdd, JustBelowAPowerOfTwo) {
  Rng r(19);
  for (int i = 0; i < 5000; ++i) {
    const int k = static_cast<int>(r.below(60)) - 10;
    double x = std::ldexp(1.0, k);
    for (std::uint32_t j = 1 + r.below(6); j > 0; --j) {
      x = std::nextafter(x, 0.0);
    }
    const double d = random_double(r, k - 60, k - 4);
    ASSERT_TRUE(matches_loop(x, d, 1 + r.below(3000)));
  }
}

TEST(RepeatAdd, SubnormalsAndZeros) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double lowest = std::numeric_limits<double>::min();
  Rng r(20);
  for (int i = 0; i < 2000; ++i) {
    const double sub_x = tiny * static_cast<double>(1 + r.below(1u << 30));
    const double sub_d = tiny * static_cast<double>(1 + r.below(1u << 20));
    const std::uint64_t n = r.below(2000);
    ASSERT_TRUE(matches_loop(sub_x, sub_d, n));
    ASSERT_TRUE(matches_loop(lowest * (1.0 + r.uniform()), sub_d, n));
    ASSERT_TRUE(matches_loop(sub_x, lowest * r.uniform(), n));
  }
  for (const double x : {0.0, -0.0, 1.0, tiny}) {
    for (const double d : {0.0, -0.0, 0.25, tiny}) {
      ASSERT_TRUE(matches_loop(x, d, 0));
      ASSERT_TRUE(matches_loop(x, d, 1));
      ASSERT_TRUE(matches_loop(x, d, 1'000'000));
    }
  }
}

TEST(RepeatAdd, LargeCounts) {
  // Long quiet spans cross many binades and end deep in x's upper range,
  // where a small delta rounds away entirely.
  for (const double d : {1.0 / 3.0, 8.0 / 7.0, 24.0 / 140.0, 0.1, 3.0}) {
    ASSERT_TRUE(matches_loop(0.0, d, 1'100'000));
    ASSERT_TRUE(matches_loop(12345.678, d, 1'048'577));
  }
  ASSERT_TRUE(matches_loop(std::ldexp(1.0, 60), 1.0, 1'100'000));
}

TEST(RepeatAdd, ClosedFormDoesNotWalkEveryStep) {
  // Counts no loop could finish: integers stay exact up to 2^53, where
  // x + 1 ties back to the even 2^53 and the sum stops growing.
  EXPECT_EQ(repeat_add(1.0, 1.0, std::uint64_t{1} << 40), 1099511627777.0);
  EXPECT_EQ(repeat_add(0.0, 0.5, std::uint64_t{1} << 50),
            std::ldexp(1.0, 49));
  EXPECT_EQ(repeat_add(0.0, 1.0, std::uint64_t{1} << 60),
            std::ldexp(1.0, 53));
}

TEST(RepeatAdd, OutOfDomainFallsBackToPlainAddition) {
  Rng r(21);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(matches_loop(random_double(r, 0, 12), -random_double(r, -8, 4),
                             r.below(5000)));
  }
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(matches_loop(1.0, inf, 10));
  ASSERT_TRUE(matches_loop(inf, 1.0, 10));
  ASSERT_TRUE(matches_loop(1.0, -inf, 10));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(repeat_add(1.0, nan, 10)));
  EXPECT_TRUE(std::isnan(repeat_add(nan, 1.0, 10)));
}

}  // namespace
}  // namespace csmt
