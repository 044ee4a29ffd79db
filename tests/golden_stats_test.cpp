// Golden-stats gate for the hot-path optimizations (DESIGN.md §9): the
// optimized kernel (zero-allocation tick, integer slot accounting, amortized
// quiescence probing, memory-system fast paths) must leave every RunStats
// field — counters, the fractional slot histogram, derived rates, and the
// epoch time series — exactly equal to the per-cycle --no-skip reference
// across the paper grid. Unlike scheduler_test's serialized-JSON comparison,
// this suite asserts field by field so a divergence names the exact counter
// that moved.
//
// That check is relative: a timing change applied to both kernels passes
// it. PaperGridFingerprints pins the reproduction absolutely, against
// per-point RunStats digests committed under tests/golden/.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "sweep/sweep.hpp"

namespace csmt::sim {
namespace {

void expect_slots_equal(const core::SlotStats& a, const core::SlotStats& b,
                        const std::string& where) {
  for (std::size_t i = 0; i < core::kNumSlots; ++i) {
    EXPECT_EQ(a.slots[i], b.slots[i])
        << where << " slot[" << core::slot_name(static_cast<core::Slot>(i))
        << "]";
  }
}

void expect_epoch_counters_equal(const obs::EpochCounters& a,
                                 const obs::EpochCounters& b,
                                 const std::string& where) {
  EXPECT_EQ(a.committed_useful, b.committed_useful) << where;
  EXPECT_EQ(a.committed_sync, b.committed_sync) << where;
  EXPECT_EQ(a.fetched, b.fetched) << where;
  expect_slots_equal(a.slots, b.slots, where);
  EXPECT_EQ(a.loads, b.loads) << where;
  EXPECT_EQ(a.stores, b.stores) << where;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << where;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << where;
  EXPECT_EQ(a.tlb_misses, b.tlb_misses) << where;
  EXPECT_EQ(a.bank_rejections, b.bank_rejections) << where;
  EXPECT_EQ(a.mshr_rejections, b.mshr_rejections) << where;
}

void expect_stats_equal(const RunStats& a, const RunStats& b,
                        const std::string& where) {
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.timed_out, b.timed_out) << where;
  EXPECT_EQ(a.committed_useful, b.committed_useful) << where;
  EXPECT_EQ(a.committed_sync, b.committed_sync) << where;
  EXPECT_EQ(a.fetched, b.fetched) << where;
  // Doubles compare with EXPECT_EQ on purpose: the contract is bit
  // identity, not tolerance.
  EXPECT_EQ(a.avg_running_threads, b.avg_running_threads) << where;
  expect_slots_equal(a.slots, b.slots, where);

  EXPECT_EQ(a.predictor.cond_lookups, b.predictor.cond_lookups) << where;
  EXPECT_EQ(a.predictor.cond_mispredicts, b.predictor.cond_mispredicts)
      << where;
  EXPECT_EQ(a.predictor.btb_misses, b.predictor.btb_misses) << where;

  EXPECT_EQ(a.mem.loads, b.mem.loads) << where;
  EXPECT_EQ(a.mem.stores, b.mem.stores) << where;
  for (std::size_t i = 0; i < a.mem.by_level.size(); ++i) {
    EXPECT_EQ(a.mem.by_level[i], b.mem.by_level[i])
        << where << " by_level[" << i << "]";
  }
  EXPECT_EQ(a.mem.bank_rejections, b.mem.bank_rejections) << where;
  EXPECT_EQ(a.mem.mshr_rejections, b.mem.mshr_rejections) << where;
  EXPECT_EQ(a.mem.upgrades, b.mem.upgrades) << where;
  EXPECT_EQ(a.mem.l1_cross_invalidations, b.mem.l1_cross_invalidations)
      << where;
  EXPECT_EQ(a.mem.l1_miss_rate, b.mem.l1_miss_rate) << where;
  EXPECT_EQ(a.mem.l2_miss_rate, b.mem.l2_miss_rate) << where;
  EXPECT_EQ(a.mem.tlb_miss_rate, b.mem.tlb_miss_rate) << where;

  ASSERT_EQ(a.dash.has_value(), b.dash.has_value()) << where;
  if (a.dash) {
    EXPECT_EQ(a.dash->fetches, b.dash->fetches) << where;
    EXPECT_EQ(a.dash->remote_fetches, b.dash->remote_fetches) << where;
    EXPECT_EQ(a.dash->interventions, b.dash->interventions) << where;
    EXPECT_EQ(a.dash->dirty_remote_supplies, b.dash->dirty_remote_supplies)
        << where;
    EXPECT_EQ(a.dash->invalidations_sent, b.dash->invalidations_sent)
        << where;
    EXPECT_EQ(a.dash->upgrades, b.dash->upgrades) << where;
    EXPECT_EQ(a.dash->writebacks, b.dash->writebacks) << where;
  }

  ASSERT_EQ(a.epochs.size(), b.epochs.size()) << where;
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    const std::string ep = where + " epoch[" + std::to_string(e) + "]";
    EXPECT_EQ(a.epochs[e].begin, b.epochs[e].begin) << ep;
    EXPECT_EQ(a.epochs[e].end, b.epochs[e].end) << ep;
    EXPECT_EQ(a.epochs[e].avg_running_threads, b.epochs[e].avg_running_threads)
        << ep;
    expect_epoch_counters_equal(a.epochs[e].counters, b.epochs[e].counters,
                                ep);
  }
}

TEST(GoldenStats, PaperGridMatchesNoSkipFieldByField) {
  const std::vector<core::ArchKind> archs = {
      core::ArchKind::kFa1, core::ArchKind::kFa2, core::ArchKind::kSmt2,
      core::ArchKind::kSmt4};
  const std::vector<std::string> workloads = {"swim", "mgrid", "ocean"};
  for (const unsigned chips : {1u, 4u}) {
    for (const core::ArchKind arch : archs) {
      for (const std::string& wl : workloads) {
        ExperimentSpec spec;
        spec.workload = wl;
        spec.arch = arch;
        spec.chips = chips;
        spec.scale = 1;
        spec.metrics_interval = 128;  // cover the epoch series too

        spec.no_skip = false;
        const ExperimentResult fast = run_experiment(spec);
        spec.no_skip = true;
        const ExperimentResult golden = run_experiment(spec);

        ASSERT_EQ(golden.sim_speed.quiet_cycles, 0u);
        const std::string where = wl + "/" + core::arch_name(arch) +
                                  "/chips=" + std::to_string(chips);
        expect_stats_equal(fast.stats, golden.stats, where);
      }
    }
  }
}

/// sweep::stats_digest in hex: FNV-1a over the serialized "stats" object
/// of to_json (RunStats and the epoch series; the host-dependent sim_speed
/// block lives outside it) — the same per-point digest perfbench prints and
/// every result-cache entry carries.
std::string hex_digest(const ExperimentResult& r) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(sweep::stats_digest(r)));
  return hex;
}

TEST(GoldenStats, PaperGridFingerprints) {
  // Every workload on the paper's seven organizations and both machines.
  // The 4-chip half exercises DASH remote fetches, interventions and
  // invalidations, cross-chip sync releases inside the tick, the quiet
  // path, and lazy replay.
  const std::vector<core::ArchKind> archs = {
      core::ArchKind::kFa1,  core::ArchKind::kFa2,  core::ArchKind::kFa4,
      core::ArchKind::kFa8,  core::ArchKind::kSmt1, core::ArchKind::kSmt2,
      core::ArchKind::kSmt4};
  std::vector<std::pair<std::string, std::string>> points;
  std::string regenerated;
  for (const std::string& wl : workloads::workload_names()) {
    for (const core::ArchKind arch : archs) {
      for (const unsigned chips : {1u, 4u}) {
        ExperimentSpec spec;
        spec.workload = wl;
        spec.arch = arch;
        spec.chips = chips;
        spec.scale = 1;
        spec.metrics_interval = 128;
        const std::string name = wl + "/" + core::arch_name(arch) + "/x" +
                                 std::to_string(chips);
        const std::string digest = hex_digest(run_experiment(spec));
        regenerated += name + " " + digest + "\n";
        points.emplace_back(name, digest);
      }
    }
  }

  // One "workload/arch/xchips digest" line per point.
  std::map<std::string, std::string> golden;
  {
    std::ifstream in(std::string(CSMT_GOLDEN_DIR) +
                     "/paper_grid_fingerprints.txt");
    std::string name, digest;
    while (in >> name >> digest) golden[name] = digest;
  }
  std::string moved;
  for (const auto& [name, digest] : points) {
    const auto it = golden.find(name);
    if (it == golden.end()) {
      moved += "  " + name + ": missing from the golden file (now " + digest +
               ")\n";
      continue;
    }
    if (it->second != digest) {
      moved += "  " + name + ": " + it->second + " -> " + digest + "\n";
    }
    golden.erase(it);
  }
  for (const auto& [name, digest] : golden) {
    moved += "  " + name + ": no longer in the grid\n";
  }
  if (!moved.empty()) {
    const std::string path =
        (std::filesystem::path(::testing::TempDir()) /
         "paper_grid_fingerprints.txt")
            .string();
    std::ofstream out(path);
    out << regenerated;
    ADD_FAILURE() << "simulated timing moved at:\n"
                  << moved << "regenerated fingerprints: " << path
                  << " (commit them only with an intended timing change)";
  }
}

}  // namespace
}  // namespace csmt::sim
