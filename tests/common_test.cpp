// Unit tests for src/common: number formatting, tables, the stacked-bar
// renderer, and the deterministic RNG.
#include <gtest/gtest.h>

#include <set>

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

}  // namespace
}  // namespace csmt
