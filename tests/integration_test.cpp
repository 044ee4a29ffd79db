// Integration tests: cross-module invariants on full paper-workload runs,
// plus the headline result shapes the benches regenerate (kept at small
// scale so the suite stays fast; the bench binaries run the full sizes).
#include <gtest/gtest.h>

#include <map>

#include "sim/experiment.hpp"

namespace csmt::sim {
namespace {

using core::ArchKind;
using core::Slot;

ExperimentResult run(const std::string& w, ArchKind a, unsigned chips = 1,
                     unsigned scale = 2) {
  ExperimentSpec spec;
  spec.workload = w;
  spec.arch = a;
  spec.chips = chips;
  spec.scale = scale;
  return run_experiment(spec);
}

TEST(Invariants, CommittedWorkIsArchitectureIndependent) {
  // All 8-thread architectures execute the exact same dynamic instruction
  // stream, so total committed instructions must be identical.
  for (const std::string w : {"swim", "ocean", "fmm"}) {
    std::map<std::string, std::uint64_t> totals;
    for (const ArchKind a : {ArchKind::kSmt8, ArchKind::kSmt4,
                             ArchKind::kSmt2, ArchKind::kSmt1}) {
      const auto r = run(w, a);
      totals[core::arch_name(a)] =
          r.stats.committed_useful + r.stats.committed_sync;
    }
    for (const auto& [name, total] : totals) {
      EXPECT_EQ(total, totals["SMT8"]) << w << " " << name;
    }
  }
}

TEST(Invariants, SlotTotalsConserveIssueBandwidth) {
  for (const unsigned chips : {1u, 4u}) {
    const auto r = run("mgrid", ArchKind::kSmt2, chips, 1);
    const double expect =
        static_cast<double>(chips) * 8.0 * static_cast<double>(r.stats.cycles);
    EXPECT_NEAR(r.stats.slots.total(), expect, 4e-15 * expect);
  }
}

TEST(Invariants, FetchedAtLeastCommitted) {
  const auto r = run("tomcatv", ArchKind::kSmt1, 1, 1);
  EXPECT_GE(r.stats.fetched,
            r.stats.committed_useful + r.stats.committed_sync);
  // And with blocking sync (no wrong paths in the window beyond
  // mispredict-stalls), fetched == committed.
  EXPECT_EQ(r.stats.fetched,
            r.stats.committed_useful + r.stats.committed_sync);
}

TEST(Invariants, DeterministicAcrossRuns) {
  const auto a = run("vpenta", ArchKind::kSmt2, 4, 1);
  const auto b = run("vpenta", ArchKind::kSmt2, 4, 1);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.committed_useful, b.stats.committed_useful);
  EXPECT_EQ(a.stats.mem.loads, b.stats.mem.loads);
}

TEST(Invariants, HighEndGeneratesCoherenceTraffic) {
  const auto r = run("ocean", ArchKind::kSmt2, 4, 2);
  ASSERT_TRUE(r.stats.dash.has_value());
  EXPECT_GT(r.stats.dash->fetches, 0u);
  EXPECT_GT(r.stats.dash->remote_fetches, 0u);
  // Writes to shared grids must cause invalidations or upgrades.
  EXPECT_GT(r.stats.dash->invalidations_sent + r.stats.dash->upgrades, 0u);
}

TEST(Invariants, MoreChipsNeverIncreaseWorkPerChip) {
  // The same application on 4 chips commits the same useful instructions
  // per software thread; cycles should drop for a parallel app.
  const auto low = run("ocean", ArchKind::kSmt2, 1, 2);
  const auto high = run("ocean", ArchKind::kSmt2, 4, 2);
  EXPECT_LT(high.stats.cycles, low.stats.cycles);
}

// ---------- paper headline shapes (small scale) ---------------------------

TEST(PaperShapes, Smt2BeatsEveryFaLowEnd) {
  // Figure 4's headline at scale 2 for the applications whose margins are
  // robust at small problem sizes.
  for (const std::string w : {"mgrid", "vpenta", "fmm", "ocean"}) {
    const Cycle smt2 = run(w, ArchKind::kSmt2).stats.cycles;
    for (const ArchKind fa : {ArchKind::kFa8, ArchKind::kFa4, ArchKind::kFa2,
                              ArchKind::kFa1}) {
      EXPECT_LT(smt2, run(w, fa).stats.cycles * 102 / 100)
          << w << " vs " << core::arch_name(fa);
    }
  }
}

TEST(PaperShapes, FaSweetSpotIsAppDependent) {
  // vpenta (thread-rich): FA8 beats FA1. tomcatv (serial-heavy): FA1/FA2
  // beat FA8 decisively.
  EXPECT_LT(run("vpenta", ArchKind::kFa8).stats.cycles,
            run("vpenta", ArchKind::kFa1).stats.cycles);
  EXPECT_LT(run("tomcatv", ArchKind::kFa2).stats.cycles,
            run("tomcatv", ArchKind::kFa8).stats.cycles);
}

TEST(PaperShapes, Smt1WithinReachOfSmt2) {
  // Figure 7: the clustered SMT2 lands near the centralized SMT1 (the
  // paper reports 0-9% in cycles; allow a wider band at tiny scale).
  for (const std::string w : {"swim", "mgrid", "ocean"}) {
    const double smt2 =
        static_cast<double>(run(w, ArchKind::kSmt2).stats.cycles);
    const double smt1 =
        static_cast<double>(run(w, ArchKind::kSmt1).stats.cycles);
    EXPECT_LT(std::abs(smt2 - smt1) / smt1, 0.20) << w;
  }
}

TEST(PaperShapes, SmtLadderImprovesFromSmt8) {
  // Figures 7/8: SMT1 and SMT2 both beat the SMT8 baseline everywhere.
  for (const std::string& w : workloads::workload_names()) {
    const Cycle smt8 = run(w, ArchKind::kSmt8).stats.cycles;
    EXPECT_LT(run(w, ArchKind::kSmt2).stats.cycles, smt8) << w;
    EXPECT_LT(run(w, ArchKind::kSmt1).stats.cycles, smt8) << w;
  }
}

TEST(PaperShapes, SerialAppsShiftTowardWideIssueOnHighEnd) {
  // Figure 5: for tomcatv the FA sweet spot moves to FA1 on 4 chips.
  const Cycle fa1 = run("tomcatv", ArchKind::kFa1, 4).stats.cycles;
  const Cycle fa8 = run("tomcatv", ArchKind::kFa8, 4).stats.cycles;
  const Cycle fa4 = run("tomcatv", ArchKind::kFa4, 4).stats.cycles;
  EXPECT_LT(fa1, fa8);
  EXPECT_LT(fa1, fa4);
}

TEST(PaperShapes, SyncShareGrowsOnHighEnd) {
  // §5.1: parallel sections suffer more synchronization on the high-end
  // machine (more threads + dearer sync lines).
  const auto low = run("ocean", ArchKind::kSmt2, 1, 2);
  const auto high = run("ocean", ArchKind::kSmt2, 4, 2);
  EXPECT_GT(high.stats.slots.fraction(Slot::kSync),
            low.stats.slots.fraction(Slot::kSync));
}

TEST(PaperShapes, Figure6CharacterizationOrdering) {
  // tomcatv has the fewest running threads; ocean/vpenta the most.
  auto threads_of = [&](const std::string& w) {
    return run(w, ArchKind::kFa8, 1, 2).stats.avg_running_threads;
  };
  const double t_tomcatv = threads_of("tomcatv");
  const double t_ocean = threads_of("ocean");
  const double t_vpenta = threads_of("vpenta");
  EXPECT_LT(t_tomcatv, t_ocean);
  EXPECT_LT(t_tomcatv, t_vpenta);
  EXPECT_GT(t_ocean, 4.0);
  EXPECT_LT(t_tomcatv, 4.0);
}

TEST(FetchPolicyOverride, IsHonored) {
  ExperimentSpec spec;
  spec.workload = "fmm";
  spec.arch = ArchKind::kSmt1;
  spec.scale = 1;
  spec.fetch_policy = core::FetchPolicy::kIcount;
  const auto icount = run_experiment(spec);
  spec.fetch_policy = core::FetchPolicy::kRoundRobin;
  const auto rr = run_experiment(spec);
  EXPECT_TRUE(icount.validated);
  EXPECT_TRUE(rr.validated);
  // The policies must actually change timing behaviour.
  EXPECT_NE(icount.stats.cycles, rr.stats.cycles);
}

}  // namespace
}  // namespace csmt::sim
