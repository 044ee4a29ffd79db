// Tests for the figure-rendering layer used by the bench binaries, and for
// the run-regime classifier its summary table and JSON tag use.
#include <gtest/gtest.h>

#include "sim/regime.hpp"
#include "sim/report.hpp"

namespace csmt::sim {
namespace {

ExperimentResult fake(const std::string& w, core::ArchKind a, Cycle cycles,
                      double useful_fraction) {
  ExperimentResult r;
  r.spec.workload = w;
  r.spec.arch = a;
  r.spec.chips = 1;
  r.stats.cycles = cycles;
  r.stats.slots[core::Slot::kUseful] = useful_fraction * 100.0;
  r.stats.slots[core::Slot::kSync] = (1.0 - useful_fraction) * 100.0;
  r.stats.committed_useful = cycles;
  r.validated = true;
  return r;
}

TEST(Report, NormalizesToBaseline) {
  const std::vector<ExperimentResult> results = {
      fake("app", core::ArchKind::kFa8, 2000, 0.5),
      fake("app", core::ArchKind::kSmt2, 1500, 0.7),
  };
  const std::string table = render_normalized_table(results, "FA8");
  EXPECT_NE(table.find("100.0"), std::string::npos);
  EXPECT_NE(table.find("75.0"), std::string::npos);
  EXPECT_NE(table.find("SMT2"), std::string::npos);
}

TEST(Report, FigureCarriesTitleLegendAndBars) {
  const std::vector<ExperimentResult> results = {
      fake("ocean", core::ArchKind::kSmt8, 1000, 0.4),
      fake("ocean", core::ArchKind::kSmt1, 800, 0.6),
  };
  const std::string fig = render_figure("Figure X", results, "SMT8");
  EXPECT_NE(fig.find("Figure X"), std::string::npos);
  EXPECT_NE(fig.find("legend:"), std::string::npos);
  EXPECT_NE(fig.find("ocean/SMT8"), std::string::npos);
  EXPECT_NE(fig.find("ocean/SMT1"), std::string::npos);
  EXPECT_NE(fig.find("useful"), std::string::npos);
  EXPECT_NE(fig.find("sync"), std::string::npos);
}

TEST(Report, NormalizationIsPerWorkload) {
  const std::vector<ExperimentResult> results = {
      fake("a", core::ArchKind::kFa8, 1000, 0.5),
      fake("a", core::ArchKind::kSmt2, 500, 0.5),
      fake("b", core::ArchKind::kFa8, 4000, 0.5),
      fake("b", core::ArchKind::kSmt2, 3000, 0.5),
  };
  const std::string table = render_normalized_table(results, "FA8");
  EXPECT_NE(table.find("50.0"), std::string::npos);  // a: 500/1000
  EXPECT_NE(table.find("75.0"), std::string::npos);  // b: 3000/4000
}

TEST(Report, MissingBaselineRendersZeros) {
  const std::vector<ExperimentResult> results = {
      fake("a", core::ArchKind::kSmt2, 500, 0.5),
  };
  EXPECT_NO_THROW({
    const std::string t = render_normalized_table(results, "FA8");
    (void)t;
  });
}

TEST(Report, SummaryTableShowsValidationState) {
  auto ok = fake("a", core::ArchKind::kSmt2, 500, 0.5);
  auto bad = fake("b", core::ArchKind::kSmt2, 500, 0.5);
  bad.validated = false;
  const std::string table = render_summary_table({ok, bad});
  EXPECT_NE(table.find("yes"), std::string::npos);
  EXPECT_NE(table.find("NO"), std::string::npos);
}

// Regime classifier: deterministic thresholds on the quiet-cycle fraction.

TEST(RegimeTest, ThresholdBoundaries) {
  EXPECT_EQ(classify_regime(0.0), Regime::kBusy);
  EXPECT_EQ(classify_regime(0.2499), Regime::kBusy);
  EXPECT_EQ(classify_regime(kBusyCeiling), Regime::kMixed);
  EXPECT_EQ(classify_regime(0.5), Regime::kMixed);
  EXPECT_EQ(classify_regime(0.7499), Regime::kMixed);
  EXPECT_EQ(classify_regime(kIdleFloor), Regime::kIdle);
  EXPECT_EQ(classify_regime(1.0), Regime::kIdle);
}

TEST(RegimeTest, SyntheticQuietFractionProfiles) {
  // Profiles as (quiet_cycles, sim_cycles) counter pairs, the way the
  // fraction is actually derived in SimSpeed::quiet_fraction().
  struct Profile {
    std::uint64_t quiet, total;
    Regime want;
  };
  const Profile profiles[] = {
      {0, 1000, Regime::kBusy},       // --no-skip: all full ticks
      {249, 1000, Regime::kBusy},     // just under the busy ceiling
      {250, 1000, Regime::kMixed},    // exactly at the ceiling
      {500, 1000, Regime::kMixed},
      {749, 1000, Regime::kMixed},    // just under the idle floor
      {750, 1000, Regime::kIdle},     // exactly at the floor
      {1000, 1000, Regime::kIdle},    // fully quiescent
  };
  for (const Profile& p : profiles) {
    const double f =
        static_cast<double>(p.quiet) / static_cast<double>(p.total);
    EXPECT_EQ(classify_regime(f), p.want)
        << p.quiet << "/" << p.total << " -> " << regime_name(p.want);
  }
}

TEST(RegimeTest, Names) {
  EXPECT_STREQ(regime_name(Regime::kBusy), "busy");
  EXPECT_STREQ(regime_name(Regime::kIdle), "idle");
  EXPECT_STREQ(regime_name(Regime::kMixed), "mixed");
}

}  // namespace
}  // namespace csmt::sim
