// Tests for multiprogrammed runs through the unified Machine::run(Mix)
// entry point, the mix workload names run_experiment accepts, and the
// timing address-space isolation they rely on.
#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sweep/sweep.hpp"
#include "workloads/workload.hpp"

namespace csmt::sim {
namespace {

using isa::ProgramBuilder;

isa::Program counted_loop(unsigned iters) {
  ProgramBuilder b("loop");
  isa::Reg r = b.ireg(), i = b.ireg(), n = b.ireg();
  b.li(r, 1);
  b.li(n, iters);
  b.for_range(i, 0, n, 1, [&] { b.add(r, r, r); });
  b.halt();
  return b.take();
}

TEST(MultiProgram, TwoJobsCompleteAndValidate) {
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kSmt2);
  Machine machine(mc);

  const auto wla = workloads::make_workload("vpenta");
  const auto wlb = workloads::make_workload("fmm");
  mem::PagedMemory mem_a, mem_b;
  const auto build_a = wla->build(mem_a, 4, 1);
  const auto build_b = wlb->build(mem_b, 4, 1);
  const std::vector<Job> jobs = {
      {&build_a.program, &mem_a, build_a.args_base, 4},
      {&build_b.program, &mem_b, build_b.args_base, 4},
  };
  const MultiRunStats r = machine.run(Mix{jobs});
  EXPECT_FALSE(r.combined.timed_out);
  ASSERT_EQ(r.job_finish.size(), 2u);
  EXPECT_GT(r.job_finish[0], 0u);
  EXPECT_GT(r.job_finish[1], 0u);
  // Makespan = last job's functional completion plus the final pipeline
  // drain (last instructions still commit after the thread halts).
  const Cycle last = std::max(r.job_finish[0], r.job_finish[1]);
  EXPECT_GE(r.makespan, last);
  EXPECT_LE(r.makespan, last + 16);
  // Both jobs produced numerically correct results despite sharing the
  // machine (their functional memories are independent).
  EXPECT_TRUE(wla->validate(mem_a, build_a, 4, 1));
  EXPECT_TRUE(wlb->validate(mem_b, build_b, 4, 1));
}

TEST(MultiProgram, JobsRunInDisjointTimingAddressSpaces) {
  // Two identical jobs touch the same virtual addresses; without per-job
  // address-space tags they would alias in the shared caches and merge on
  // MSHRs. The tags make their line footprints disjoint, so per-job
  // results and the run itself stay well-formed.
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kSmt2);
  Machine machine(mc);
  const isa::Program p = counted_loop(200);
  mem::PagedMemory mem_a, mem_b;
  const std::vector<Job> jobs = {
      {&p, &mem_a, 0, 4},
      {&p, &mem_b, 0, 4},
  };
  const MultiRunStats r = machine.run(Mix{jobs});
  EXPECT_FALSE(r.combined.timed_out);
  EXPECT_GT(r.combined.committed_useful, 2u * 4u * 200u);
}

TEST(MultiProgram, SingleJobMatchesPlainRun) {
  const isa::Program p = counted_loop(300);
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kFa2);

  Machine m1(mc);
  mem::PagedMemory mem1;
  const RunStats plain =
      m1.run(Mix::single(p, mem1, 0, mc.total_threads())).combined;

  Machine m2(mc);
  mem::PagedMemory mem2;
  const MultiRunStats multi =
      m2.run(Mix{{{&p, &mem2, 0, mc.total_threads()}}});
  EXPECT_EQ(multi.makespan, plain.cycles);
  EXPECT_EQ(multi.combined.committed_useful, plain.committed_useful);
}

TEST(MultiProgram, SmtAbsorbsMixBetterThanFa) {
  // The headline of extension E1 at test scale: the SMT2 makespan for a
  // serial-heavy + parallel pair beats the FA8 makespan.
  auto run_mix = [](core::ArchKind arch) {
    MachineConfig mc;
    mc.arch = core::arch_preset(arch);
    Machine machine(mc);
    const auto wla = workloads::make_workload("tomcatv");
    const auto wlb = workloads::make_workload("ocean");
    mem::PagedMemory mem_a, mem_b;
    const auto ba = wla->build(mem_a, 4, 1);
    const auto bb = wlb->build(mem_b, 4, 1);
    const std::vector<Job> jobs = {
        {&ba.program, &mem_a, ba.args_base, 4},
        {&bb.program, &mem_b, bb.args_base, 4},
    };
    return machine.run(Mix{jobs}).makespan;
  };
  EXPECT_LT(run_mix(core::ArchKind::kSmt2), run_mix(core::ArchKind::kFa8));
}

/// A mix spec through run_experiment against Machine::run on the same jobs
/// built by hand: the whole stats (by digest, which covers job_finish),
/// the makespan and the per-job finish cycles must agree.
void expect_spec_matches_hand_built(const ExperimentSpec& spec,
                                    const std::vector<std::string>& names,
                                    const std::vector<unsigned>& threads) {
  const ExperimentResult via_spec = run_experiment(spec);
  ASSERT_TRUE(via_spec.validated);

  MachineConfig mc;
  mc.arch = core::arch_preset(spec.arch);
  mc.chips = spec.chips;
  mc.alloc.policy = spec.alloc_policy;
  mc.alloc.epoch = spec.alloc_epoch;
  Machine machine(mc);
  std::vector<std::unique_ptr<workloads::Workload>> wls;
  std::vector<std::unique_ptr<mem::PagedMemory>> mems;
  std::vector<workloads::WorkloadBuild> builds;
  Mix mix;
  for (std::size_t j = 0; j < names.size(); ++j) {
    wls.push_back(workloads::make_workload(names[j]));
    mems.push_back(std::make_unique<mem::PagedMemory>());
    builds.push_back(wls[j]->build(*mems[j], threads[j], spec.scale));
  }
  for (std::size_t j = 0; j < names.size(); ++j) {
    mix.jobs.push_back(
        {&builds[j].program, mems[j].get(), builds[j].args_base, threads[j]});
  }
  const MultiRunStats by_hand = machine.run(mix);

  ExperimentResult expected;
  expected.spec = spec;
  expected.stats = by_hand.combined;
  expected.job_finish = by_hand.job_finish;
  EXPECT_EQ(sweep::stats_digest(via_spec), sweep::stats_digest(expected));
  EXPECT_EQ(via_spec.stats.cycles, by_hand.makespan);
  EXPECT_EQ(via_spec.job_finish, by_hand.job_finish);
  ASSERT_EQ(via_spec.job_finish.size(), names.size());
}

TEST(MultiProgram, MixSpecMatchesHandBuiltRun) {
  ExperimentSpec spec;
  spec.workload = "vpenta+fmm";
  spec.arch = core::ArchKind::kSmt2;
  spec.scale = 1;
  expect_spec_matches_hand_built(spec, {"vpenta", "fmm"}, {4, 4});
}

TEST(MultiProgram, WeightedMixUnderSymbiosisMatchesHandBuiltRun) {
  ExperimentSpec spec;
  spec.workload = "tomcatv*2+mgrid*6";
  spec.arch = core::ArchKind::kSmt2;
  spec.scale = 1;
  spec.alloc_policy = alloc::PolicyKind::kSymbiosis;
  spec.alloc_epoch = 1000;
  expect_spec_matches_hand_built(spec, {"tomcatv", "mgrid"}, {2, 6});
}

TEST(MultiProgramDeath, MismatchedThreadTotalsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        MachineConfig mc;
        mc.arch = core::arch_preset(core::ArchKind::kSmt2);
        Machine machine(mc);
        const isa::Program p = counted_loop(10);
        mem::PagedMemory mem_a;
        machine.run(Mix{{{&p, &mem_a, 0, 3}}});  // 3 != 8 contexts
      },
      "sum");
}

TEST(MultiProgramDeath, ZeroThreadJobAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        MachineConfig mc;
        mc.arch = core::arch_preset(core::ArchKind::kSmt2);
        Machine machine(mc);
        const isa::Program p = counted_loop(10);
        mem::PagedMemory mem_a;
        mem::PagedMemory mem_b;
        machine.run(Mix{{{&p, &mem_a, 0, 8}, {&p, &mem_b, 0, 0}}});
      },
      "at least one thread");
}

}  // namespace
}  // namespace csmt::sim
