// csmt::alloc conformance suite (DESIGN.md §11): the policy interface's
// determinism contract, the `static` policy's bit-identity with the
// pre-API machine behavior, the dynamic policies' end-to-end runs under
// both simulation kernels, the migration cost-model accounting, and the
// bench CLI's flag parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "alloc/policy.hpp"
#include "cli/options.hpp"
#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "sweep/sweep.hpp"
#include "workloads/workload.hpp"

namespace csmt::sim {
namespace {

void expect_core_stats_equal(const RunStats& a, const RunStats& b,
                             const std::string& where) {
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.timed_out, b.timed_out) << where;
  EXPECT_EQ(a.committed_useful, b.committed_useful) << where;
  EXPECT_EQ(a.committed_sync, b.committed_sync) << where;
  EXPECT_EQ(a.fetched, b.fetched) << where;
  // EXPECT_EQ on doubles on purpose: the contract is bit identity.
  EXPECT_EQ(a.avg_running_threads, b.avg_running_threads) << where;
  for (std::size_t i = 0; i < core::kNumSlots; ++i) {
    EXPECT_EQ(a.slots.slots[i], b.slots.slots[i])
        << where << " slot[" << core::slot_name(static_cast<core::Slot>(i))
        << "]";
  }
  EXPECT_EQ(a.mem.loads, b.mem.loads) << where;
  EXPECT_EQ(a.mem.stores, b.mem.stores) << where;
  EXPECT_EQ(a.alloc.epochs, b.alloc.epochs) << where;
  EXPECT_EQ(a.alloc.migrations, b.alloc.migrations) << where;
  EXPECT_EQ(a.alloc.rejected, b.alloc.rejected) << where;
  EXPECT_EQ(a.alloc.drain_cycles, b.alloc.drain_cycles) << where;
  EXPECT_EQ(a.alloc.stall_cycles, b.alloc.stall_cycles) << where;
}

TEST(AllocPolicy, NamesRoundTrip) {
  using alloc::PolicyKind;
  for (const PolicyKind k :
       {PolicyKind::kStatic, PolicyKind::kGreedyUtil, PolicyKind::kSymbiosis,
        PolicyKind::kIpcMigrate}) {
    const auto back = alloc::policy_from_name(alloc::policy_name(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(alloc::policy_from_name("round-robin").has_value());
  EXPECT_FALSE(alloc::policy_from_name("").has_value());
}

TEST(AllocPolicy, InitialPlacementIsSharedAndDeterministic) {
  // Two jobs of 3 and 5 threads on a 2-chip machine with 2 clusters of 2
  // contexts each: the historical fill hands contexts out one job at a
  // time in round-robin, so the slot order is j0t0 j1t0 j0t1 j1t1 j0t2
  // j1t2 j1t3 j1t4, cut into clusters of two.
  const alloc::MachineShape shape{2, 2, 2};
  const std::vector<unsigned> job_threads = {3, 5};
  // Mix thread indices are job-major: job 0 = 0..2, job 1 = 3..7.
  const std::vector<std::vector<unsigned>> expect = {
      {0, 3}, {1, 4}, {2, 5}, {6, 7}};

  using alloc::PolicyKind;
  for (const PolicyKind k :
       {PolicyKind::kStatic, PolicyKind::kGreedyUtil, PolicyKind::kSymbiosis,
        PolicyKind::kIpcMigrate}) {
    alloc::AllocConfig cfg;
    cfg.policy = k;
    const auto policy = alloc::make_policy(cfg);
    const alloc::Placement p1 = policy->initial_placement(shape, job_threads);
    const alloc::Placement p2 = policy->initial_placement(shape, job_threads);
    EXPECT_EQ(p1.by_cluster, expect) << alloc::policy_name(k);
    EXPECT_EQ(p1.by_cluster, p2.by_cluster) << alloc::policy_name(k);
  }
}

TEST(AllocPolicy, StaticParityAcrossGrid) {
  // `static` must be a zero-cost default: a config that names it (with an
  // epoch that would arm a dynamic policy) produces RunStats bit-identical
  // to a config that never mentions the allocation subsystem.
  const std::vector<core::ArchKind> archs = {
      core::ArchKind::kFa1, core::ArchKind::kFa2, core::ArchKind::kSmt2,
      core::ArchKind::kSmt4};
  for (const unsigned chips : {1u, 4u}) {
    for (const core::ArchKind arch : archs) {
      const std::string where =
          std::string(core::arch_name(arch)) + "/chips=" +
          std::to_string(chips);

      ExperimentSpec plain;
      plain.workload = "swim";
      plain.arch = arch;
      plain.chips = chips;
      plain.scale = 1;

      ExperimentSpec tagged = plain;
      tagged.alloc_policy = alloc::PolicyKind::kStatic;
      tagged.alloc_epoch = 512;

      const ExperimentResult a = run_experiment(plain);
      const ExperimentResult b = run_experiment(tagged);
      ASSERT_FALSE(a.stats.timed_out) << where;
      EXPECT_TRUE(b.validated) << where;
      expect_core_stats_equal(a.stats, b.stats, where);
      EXPECT_EQ(b.stats.alloc.epochs, 0u) << where;
      EXPECT_EQ(b.stats.alloc.migrations, 0u) << where;
    }
  }
}

/// Two-job mix (vpenta + fmm, half the contexts each) on one machine.
MultiRunStats run_two_job_mix(const MachineConfig& mc, bool* validated) {
  Machine machine(mc);
  const auto wla = workloads::make_workload("vpenta");
  const auto wlb = workloads::make_workload("fmm");
  mem::PagedMemory mem_a, mem_b;
  const unsigned half = mc.total_threads() / 2;
  const auto build_a = wla->build(mem_a, half, 1);
  const auto build_b = wlb->build(mem_b, half, 1);
  const MultiRunStats r = machine.run(
      Mix{{{&build_a.program, &mem_a, build_a.args_base, half},
           {&build_b.program, &mem_b, build_b.args_base, half}}});
  if (validated) {
    *validated = wla->validate(mem_a, build_a, half, 1) &&
                 wlb->validate(mem_b, build_b, half, 1);
  }
  return r;
}

TEST(AllocPolicy, DynamicPoliciesCompleteAndValidate) {
  using alloc::PolicyKind;
  for (const PolicyKind k : {PolicyKind::kGreedyUtil, PolicyKind::kSymbiosis,
                             PolicyKind::kIpcMigrate}) {
    MachineConfig mc;
    mc.arch = core::arch_preset(core::ArchKind::kSmt2);
    mc.alloc.policy = k;
    mc.alloc.epoch = 1000;
    bool ok = false;
    const MultiRunStats r = run_two_job_mix(mc, &ok);
    const std::string where = alloc::policy_name(k);
    EXPECT_FALSE(r.combined.timed_out) << where;
    EXPECT_TRUE(ok) << where;
    EXPECT_GT(r.combined.alloc.epochs, 0u) << where;
    // Functional results must be untouched by migration regardless of how
    // many moves the policy made.
    EXPECT_GT(r.job_finish[0], 0u) << where;
    EXPECT_GT(r.job_finish[1], 0u) << where;
  }
}

TEST(AllocPolicy, MigrationCostAccounting) {
  // Symbiosis re-deals threads by IPC rank every epoch, so on an SMT
  // machine it reliably produces migrations; each completed move costs at
  // least migration_cost cycles of fetch stall on top of its drain.
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kSmt2);
  mc.alloc.policy = alloc::PolicyKind::kSymbiosis;
  mc.alloc.epoch = 500;
  mc.alloc.migration_cost = 64;
  bool ok = false;
  const MultiRunStats r = run_two_job_mix(mc, &ok);
  ASSERT_FALSE(r.combined.timed_out);
  EXPECT_TRUE(ok);
  const alloc::AllocStats& s = r.combined.alloc;
  ASSERT_GT(s.migrations, 0u);
  // stall = (wake - decision) >= (drain - decision) + migration_cost.
  EXPECT_GE(s.stall_cycles,
            s.drain_cycles + s.migrations * mc.alloc.migration_cost);
}

TEST(AllocPolicy, DynamicRunIsKernelInvariant) {
  // The quiescence kernel must clamp idle skips to allocation epochs: a
  // dynamic run's stats — including every alloc counter — are bit-identical
  // with skipping on and off.
  for (const alloc::PolicyKind k :
       {alloc::PolicyKind::kGreedyUtil, alloc::PolicyKind::kSymbiosis}) {
    MachineConfig mc;
    mc.arch = core::arch_preset(core::ArchKind::kSmt2);
    mc.alloc.policy = k;
    mc.alloc.epoch = 700;
    const MultiRunStats fast = run_two_job_mix(mc, nullptr);
    MachineConfig slow = mc;
    slow.no_skip = true;
    const MultiRunStats ref = run_two_job_mix(slow, nullptr);
    const std::string where = alloc::policy_name(k);
    EXPECT_EQ(fast.makespan, ref.makespan) << where;
    EXPECT_EQ(fast.job_finish, ref.job_finish) << where;
    expect_core_stats_equal(fast.combined, ref.combined, where);
  }
}

TEST(AllocPolicy, SpecIdentityAndCacheKeyCoverPolicy) {
  ExperimentSpec a;
  a.workload = "swim";
  a.arch = core::ArchKind::kSmt2;
  ExperimentSpec b = a;
  EXPECT_TRUE(a == b);
  b.alloc_policy = alloc::PolicyKind::kGreedyUtil;
  EXPECT_FALSE(a == b);
  EXPECT_NE(sweep::spec_hash(a), sweep::spec_hash(b));
  ExperimentSpec c = a;
  c.alloc_epoch = 2000;
  EXPECT_FALSE(a == c);
  EXPECT_NE(sweep::spec_hash(a), sweep::spec_hash(c));
}

TEST(AllocPolicy, EnvAndFlagParsing) {
  setenv("CSMT_ALLOC_POLICY", "symbiosis", 1);
  setenv("CSMT_ALLOC_EPOCH", "2500", 1);
  cli::Options opt = cli::Options::from_env();
  EXPECT_EQ(opt.alloc_policy, alloc::PolicyKind::kSymbiosis);
  EXPECT_EQ(opt.alloc_epoch, 2500u);

  // Malformed environment values warn and keep the default (PR 5 rule).
  setenv("CSMT_ALLOC_POLICY", "fifo", 1);
  setenv("CSMT_ALLOC_EPOCH", "soon", 1);
  opt = cli::Options::from_env();
  EXPECT_EQ(opt.alloc_policy, alloc::PolicyKind::kStatic);
  EXPECT_EQ(opt.alloc_epoch, 0u);
  unsetenv("CSMT_ALLOC_POLICY");
  unsetenv("CSMT_ALLOC_EPOCH");

  // Flags override the environment.
  const char* argv[] = {"alloc_test", "--alloc-policy=ipc-migrate",
                        "--alloc-epoch", "4096"};
  opt = cli::parse_options(4, const_cast<char**>(argv));
  EXPECT_EQ(opt.alloc_policy, alloc::PolicyKind::kIpcMigrate);
  EXPECT_EQ(opt.alloc_epoch, 4096u);
}

TEST(CliOptionsDeathTest, RemovedFlagsAreUnknown) {
  // Live telemetry serving and mid-run checkpointing were removed, so their
  // flags are unknown arguments like any typo: usage line, exit 2.
  const char* telemetry[] = {"csmt", "--serve-telemetry", "0"};
  EXPECT_EXIT(cli::parse_options(3, const_cast<char**>(telemetry)),
              ::testing::ExitedWithCode(2), "usage: csmt ");
  const char* ckpt[] = {"csmt", "--ckpt-interval", "2000"};
  EXPECT_EXIT(cli::parse_options(3, const_cast<char**>(ckpt)),
              ::testing::ExitedWithCode(2), "usage: csmt ");
}

TEST(AllocPolicy, JsonRoundTripCarriesAllocFields) {
  ExperimentResult r;
  r.spec.workload = "swim";
  r.spec.arch = core::ArchKind::kSmt2;
  r.spec.alloc_policy = alloc::PolicyKind::kGreedyUtil;
  r.spec.alloc_epoch = 3000;
  r.stats.cycles = 12345;
  r.stats.alloc.epochs = 4;
  r.stats.alloc.migrations = 3;
  r.stats.alloc.rejected = 1;
  r.stats.alloc.drain_cycles = 50;
  r.stats.alloc.stall_cycles = 242;
  r.validated = true;

  const auto doc = json::Value::parse(to_json(r).dump());
  ASSERT_TRUE(doc.has_value());
  const auto back = result_from_json(*doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->spec == r.spec);
  EXPECT_EQ(back->stats.alloc.epochs, 4u);
  EXPECT_EQ(back->stats.alloc.migrations, 3u);
  EXPECT_EQ(back->stats.alloc.rejected, 1u);
  EXPECT_EQ(back->stats.alloc.drain_cycles, 50u);
  EXPECT_EQ(back->stats.alloc.stall_cycles, 242u);

  // Static artifacts stay byte-identical to pre-§11 ones: no alloc keys.
  ExperimentResult plain;
  plain.spec.workload = "swim";
  plain.spec.arch = core::ArchKind::kSmt2;
  plain.stats.cycles = 1;
  const std::string text = to_json(plain).dump();
  EXPECT_EQ(text.find("alloc"), std::string::npos);
}

}  // namespace
}  // namespace csmt::sim
