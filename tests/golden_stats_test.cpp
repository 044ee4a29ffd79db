// Absolute timing pins (DESIGN.md §9): every paper-grid point and 72
// dynamic-allocation points against per-point RunStats digests committed
// under tests/golden/. Any change to simulated timing moves a digest, and a
// mismatch names every moved point and writes the regenerated file, so a
// timing change lands only as a named, reviewed diff. The skip kernel's
// equality with the per-cycle --no-skip reference is checked separately,
// by scheduler_test's KernelEquivalence suite.
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

/// sweep::stats_digest in hex: FNV-1a over the serialized "stats" object
/// of to_json (RunStats; the host-dependent sim_speed block lives outside
/// it) — the same per-point digest perfbench prints and every result-cache
/// entry carries.
std::string hex_digest(const ExperimentResult& r) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(sweep::stats_digest(r)));
  return hex;
}

/// Compares per-point digests against the committed golden file `name`
/// (one "point digest" line per point). On any difference it names every
/// moved, missing or extra point and writes the regenerated file under the
/// gtest temp dir.
void expect_fingerprints(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& points) {
  std::map<std::string, std::string> golden;
  {
    std::ifstream in(std::string(CSMT_GOLDEN_DIR) + "/" + name);
    std::string point, digest;
    while (in >> point >> digest) golden[point] = digest;
  }
  std::string moved;
  std::string regenerated;
  for (const auto& [point, digest] : points) {
    regenerated += point + " " + digest + "\n";
    const auto it = golden.find(point);
    if (it == golden.end()) {
      moved += "  " + point + ": missing from the golden file (now " +
               digest + ")\n";
      continue;
    }
    if (it->second != digest) {
      moved += "  " + point + ": " + it->second + " -> " + digest + "\n";
    }
    golden.erase(it);
  }
  for (const auto& [point, digest] : golden) {
    moved += "  " + point + ": no longer in the grid\n";
  }
  if (!moved.empty()) {
    const std::string path =
        (std::filesystem::path(::testing::TempDir()) / name).string();
    std::ofstream out(path);
    out << regenerated;
    ADD_FAILURE() << "simulated timing moved at:\n"
                  << moved << "regenerated fingerprints: " << path
                  << " (commit them only with an intended timing change)";
  }
}

TEST(GoldenStats, PaperGridFingerprints) {
  // Every workload on the paper's seven organizations and both machines.
  // The 4-chip half exercises DASH remote fetches, interventions and
  // invalidations, cross-chip sync releases inside the tick, the quiet
  // path, and lazy replay. Each point's slots also conserve the issue
  // bandwidth: the integer tally rounds only when it is read.
  const std::vector<core::ArchKind> archs = {
      core::ArchKind::kFa1,  core::ArchKind::kFa2,  core::ArchKind::kFa4,
      core::ArchKind::kFa8,  core::ArchKind::kSmt1, core::ArchKind::kSmt2,
      core::ArchKind::kSmt4};
  std::vector<std::pair<std::string, std::string>> points;
  for (const std::string& wl : workloads::workload_names()) {
    for (const core::ArchKind arch : archs) {
      for (const unsigned chips : {1u, 4u}) {
        ExperimentSpec spec;
        spec.workload = wl;
        spec.arch = arch;
        spec.chips = chips;
        spec.scale = 1;
        const std::string point =
            wl + "/" + core::arch_name(arch) + "/x" + std::to_string(chips);
        const ExperimentResult r = run_experiment(spec);
        const double bandwidth =
            core::arch_preset(arch).issue_width_per_chip() * chips *
            static_cast<double>(r.stats.cycles);
        EXPECT_NEAR(r.stats.slots.total(), bandwidth, 4e-15 * bandwidth)
            << point;
        points.emplace_back(point, hex_digest(r));
      }
    }
  }
  expect_fingerprints("paper_grid_fingerprints.txt", points);
}

TEST(GoldenStats, AllocPolicyFingerprints) {
  // The dynamic allocation policies on the multithreaded organizations
  // (DESIGN.md §11): epochs, migrations with their drain and stall
  // accounting, and the epoch clock's clamp on skipped spans.
  const std::vector<alloc::PolicyKind> policies = {
      alloc::PolicyKind::kGreedyUtil, alloc::PolicyKind::kSymbiosis,
      alloc::PolicyKind::kIpcMigrate};
  std::vector<std::pair<std::string, std::string>> points;
  std::uint64_t symbiosis_migrations = 0;
  for (const std::string& wl : workloads::workload_names()) {
    for (const core::ArchKind arch :
         {core::ArchKind::kSmt2, core::ArchKind::kSmt4}) {
      for (const unsigned chips : {1u, 4u}) {
        for (const alloc::PolicyKind policy : policies) {
          ExperimentSpec spec;
          spec.workload = wl;
          spec.arch = arch;
          spec.chips = chips;
          spec.scale = 1;
          spec.alloc_policy = policy;
          spec.alloc_epoch = 1000;
          const ExperimentResult r = run_experiment(spec);
          if (policy == alloc::PolicyKind::kSymbiosis) {
            symbiosis_migrations += r.stats.alloc.migrations;
          }
          const std::string point = wl + "/" + core::arch_name(arch) + "/x" +
                                    std::to_string(chips) + "/" +
                                    alloc::policy_name(policy);
          // Migration must leave every result functionally correct.
          EXPECT_TRUE(r.validated) << point;
          points.emplace_back(point, hex_digest(r));
        }
      }
    }
  }
  // Single-job runs give greedy-util and ipc-migrate no move to make, so
  // symbiosis is the policy whose migrations these digests pin.
  EXPECT_GT(symbiosis_migrations, 0u);
  expect_fingerprints("alloc_policy_fingerprints.txt", points);
}

}  // namespace
}  // namespace csmt::sim
