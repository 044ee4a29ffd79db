// Machine-level tests: low-end/high-end construction, slot conservation
// across the whole machine, the watchdog, and stats aggregation.
#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sim/machine.hpp"

namespace csmt::sim {
namespace {

using isa::ProgramBuilder;

/// Runs one program over all of the machine's contexts through the unified
/// mix entry point.
RunStats run_single(Machine& m, const isa::Program& p,
                    mem::PagedMemory& memory) {
  return m.run(Mix::single(p, memory, 0, m.config().total_threads()))
      .combined;
}

isa::Program busy_program(unsigned iters) {
  ProgramBuilder b("busy");
  isa::Reg r = b.ireg(), i = b.ireg(), n = b.ireg();
  b.li(r, 1);
  b.li(n, iters);
  b.for_range(i, 0, n, 1, [&] { b.add(r, r, r); });
  b.halt();
  return b.take();
}

TEST(Machine, LowEndRunsToCompletion) {
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kSmt2);
  Machine m(mc);
  mem::PagedMemory memory;
  const RunStats s = run_single(m, busy_program(200), memory);
  EXPECT_FALSE(s.timed_out);
  EXPECT_GT(s.cycles, 0u);
  EXPECT_GT(s.committed_useful, 8u * 200u);  // 8 threads each run the loop
}

TEST(Machine, HighEndBuildsFourChips) {
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kSmt2);
  mc.chips = 4;
  Machine m(mc);
  EXPECT_EQ(m.num_chips(), 4u);
  EXPECT_EQ(mc.total_threads(), 32u);
  mem::PagedMemory memory;
  const RunStats s = run_single(m, busy_program(100), memory);
  EXPECT_FALSE(s.timed_out);
  EXPECT_TRUE(s.dash.has_value());
}

TEST(Machine, LowEndHasNoDashStats) {
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kFa1);
  Machine m(mc);
  mem::PagedMemory memory;
  const RunStats s = run_single(m, busy_program(50), memory);
  EXPECT_FALSE(s.dash.has_value());
}

TEST(Machine, SlotConservationMachineWide) {
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kSmt4);
  mc.chips = 2;
  Machine m(mc);
  mem::PagedMemory memory;
  const RunStats s = run_single(m, busy_program(300), memory);
  // Total slots = chips x chip-issue-width x cycles.
  const double expect = 2.0 * 8.0 * static_cast<double>(s.cycles);
  EXPECT_NEAR(s.slots.total(), expect, 4e-15 * expect);
}

TEST(Machine, WatchdogFiresOnRunaway) {
  // An infinite loop must hit max_cycles and report a timeout.
  ProgramBuilder b("loop");
  isa::Reg r = b.ireg();
  isa::Label top = b.new_label();
  b.bind(top);
  b.addi(r, r, 1);
  b.j(top);
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kFa1);
  mc.max_cycles = 2000;
  Machine m(mc);
  mem::PagedMemory memory;
  const RunStats s = run_single(m, b.take(), memory);
  EXPECT_TRUE(s.timed_out);
  EXPECT_EQ(s.cycles, 2000u);
}

TEST(Machine, AvgRunningThreadsBounded) {
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kSmt1);
  Machine m(mc);
  mem::PagedMemory memory;
  const RunStats s = run_single(m, busy_program(200), memory);
  EXPECT_GT(s.avg_running_threads, 0.0);
  EXPECT_LE(s.avg_running_threads, 8.0);
}

TEST(Machine, SyncWakeLatencyAutoResolved) {
  MachineConfig low;
  low.arch = core::arch_preset(core::ArchKind::kSmt2);
  Machine ml(low);
  EXPECT_EQ(ml.config().arch.cluster.sync_wake_latency, 15u);

  MachineConfig high = low;
  high.arch = core::arch_preset(core::ArchKind::kSmt2);
  high.chips = 4;
  Machine mh(high);
  EXPECT_EQ(mh.config().arch.cluster.sync_wake_latency, 40u);

  MachineConfig custom = low;
  custom.arch = core::arch_preset(core::ArchKind::kSmt2);
  custom.arch.cluster.sync_wake_latency = 7;
  Machine mcu(custom);
  EXPECT_EQ(mcu.config().arch.cluster.sync_wake_latency, 7u);
}

TEST(Machine, UsefulIpcMatchesCommitOverCycles) {
  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kFa2);
  Machine m(mc);
  mem::PagedMemory memory;
  const RunStats s = run_single(m, busy_program(400), memory);
  EXPECT_DOUBLE_EQ(s.useful_ipc(),
                   static_cast<double>(s.committed_useful) /
                       static_cast<double>(s.cycles));
}

}  // namespace
}  // namespace csmt::sim
