// Cluster/Chip pipeline tests: dependent-chain timing, width and FU
// structural limits, branch misprediction penalties, rename/window stalls,
// sync blocking, exact slot accounting and its conservation, and Table 2
// presets.
#include <gtest/gtest.h>

#include <vector>

#include "cache/backend.hpp"
#include "core/chip.hpp"
#include "exec/thread_group.hpp"
#include "isa/builder.hpp"

namespace csmt::core {
namespace {

using isa::Op;
using isa::ProgramBuilder;

/// Runs `program` with `nthreads` software threads on one chip of `cfg`;
/// returns (cycles, chip stats).
struct RunResult {
  Cycle cycles = 0;
  ChipStats stats;
};

RunResult run_on(const ArchConfig& cfg, const isa::Program& program,
                 unsigned nthreads, mem::PagedMemory& memory,
                 Addr args = 0) {
  cache::MemSysParams mp;
  cache::LocalMemoryBackend backend(mp);
  Chip chip(0, cfg, mp, backend);
  exec::ThreadGroup group(program, memory, nthreads, args);
  for (unsigned t = 0; t < nthreads; ++t) chip.attach_thread(&group.thread(t));
  Cycle now = 0;
  while (!chip.finished() && now < 1'000'000) {
    chip.tick(now);
    ++now;
  }
  EXPECT_TRUE(chip.finished()) << "pipeline did not drain";
  return {now, chip.stats()};
}

ArchConfig fa1() { return arch_preset(ArchKind::kFa1); }

/// N back-to-back dependent adds (cost measured by differencing two lengths).
isa::Program chain(unsigned n, Op op) {
  ProgramBuilder b("chain");
  isa::Reg r = b.ireg();
  b.li(r, 1);
  for (unsigned i = 0; i < n; ++i) {
    switch (op) {
      case Op::kAdd: b.add(r, r, r); break;
      case Op::kMul: b.mul(r, r, r); break;
      case Op::kDiv: b.div(r, r, r); break;
      default: b.nop(); break;
    }
  }
  b.halt();
  return b.take();
}

Cycle chain_cost(Op op) {
  mem::PagedMemory m1, m2;
  const Cycle a = run_on(fa1(), chain(100, op), 1, m1).cycles;
  const Cycle b = run_on(fa1(), chain(400, op), 1, m2).cycles;
  return (b - a) / 300;
}

TEST(ClusterTiming, DependentChainsRunAtOpLatency) {
  EXPECT_EQ(chain_cost(Op::kAdd), 1u);
  EXPECT_EQ(chain_cost(Op::kMul), 2u);
  EXPECT_EQ(chain_cost(Op::kDiv), 8u);
}

TEST(ClusterTiming, IndependentOpsExploitWidth) {
  // 8 independent add chains on the 8-issue FA1: IPC near 6 (int units).
  ProgramBuilder b("par");
  std::vector<isa::Reg> regs;
  for (int i = 0; i < 6; ++i) regs.push_back(b.ireg());
  for (auto r : regs) b.li(r, 1);
  for (int k = 0; k < 200; ++k) {
    for (auto r : regs) b.add(r, r, r);
  }
  b.halt();
  mem::PagedMemory memory;
  const RunResult r = run_on(fa1(), b.take(), 1, memory);
  const double ipc =
      static_cast<double>(r.stats.committed_useful) / r.cycles;
  // 6 independent chains, 6 int units, fetch 8/cycle: near 6 IPC.
  EXPECT_GT(ipc, 4.5);
}

TEST(ClusterTiming, FuStructuralLimitBindsNarrowClusters) {
  // FA8's single-int-unit cluster can sustain at most 1 int op per cycle
  // even with independent work.
  ProgramBuilder b("par");
  isa::Reg a = b.ireg(), c = b.ireg();
  b.li(a, 1);
  b.li(c, 1);
  for (int k = 0; k < 300; ++k) {
    b.add(a, a, a);
    b.add(c, c, c);  // independent of `a`
  }
  b.halt();
  mem::PagedMemory memory;
  const RunResult r = run_on(arch_preset(ArchKind::kFa8), b.take(), 1, memory);
  EXPECT_GE(r.cycles, 600u);  // 600 int ops, 1 int unit
}

TEST(ClusterTiming, MispredictsCostFetchBubbles) {
  // A data-dependent unpredictable branch pattern vs a well-predicted one.
  auto make = [](bool alternating) {
    ProgramBuilder b("br");
    isa::Reg i = b.ireg(), n = b.ireg(), bit = b.ireg(), t = b.ireg();
    b.li(n, 400);
    b.for_range(i, 0, n, 1, [&] {
      if (alternating) {
        b.andi(bit, i, 1);  // alternates 0/1: the 2-bit counter thrashes
      } else {
        b.li(bit, 0);
      }
      b.if_then(Op::kBne, bit, ProgramBuilder::zero(), [&] { b.nop(); });
      b.addi(t, t, 1);
    });
    b.halt();
    return b.take();
  };
  mem::PagedMemory m1, m2;
  const Cycle predictable = run_on(fa1(), make(false), 1, m1).cycles;
  const Cycle alternating = run_on(fa1(), make(true), 1, m2).cycles;
  EXPECT_GT(alternating, predictable + 200);  // ~0.5 mispredicts/iter
}

TEST(ClusterTiming, SyncBlockedThreadFreesIssueSlots) {
  // Two threads: thread 1 blocks at a barrier immediately; thread 0 does
  // real work then joins. The blocked thread must not slow thread 0's
  // chain (compare with a single-thread run of the same work).
  auto work = [](bool with_barrier) {
    ProgramBuilder b("w");
    isa::Reg bar = b.ireg(), r = b.ireg(), i = b.ireg(), n = b.ireg();
    b.li(bar, 4096);
    b.li(r, 1);
    b.li(n, 500);
    b.for_range(i, 0, n, 1, [&] { b.add(r, r, r); });
    if (with_barrier) b.barrier(bar, ProgramBuilder::nthreads());
    b.halt();
    return b.take();
  };
  mem::PagedMemory m1, m2;
  const ArchConfig smt1 = arch_preset(ArchKind::kSmt1);
  const Cycle solo = run_on(smt1, work(false), 1, m1).cycles;
  const Cycle with_spinner = run_on(smt1, work(true), 8, m2).cycles;
  // 8 threads all run the loop concurrently (8-wide, 6 int units, chains
  // are 1 IPC each but bound by fetch: 1 thread/cycle). The barrier model
  // must not deadlock and the run must finish in bounded time.
  EXPECT_LT(with_spinner, solo * 12);
}

TEST(SlotAccounting, SlotsConserveWidthTimesCycles) {
  mem::PagedMemory memory;
  const RunResult r = run_on(fa1(), chain(500, Op::kMul), 1, memory);
  const double expect = 8.0 * static_cast<double>(r.cycles);
  EXPECT_NEAR(r.stats.tally.slots().total(), expect, 4e-15 * expect);
}

TEST(SlotAccounting, DependentChainShowsDataHazard) {
  mem::PagedMemory memory;
  const RunResult r = run_on(fa1(), chain(800, Op::kDiv), 1, memory);
  // A div chain mostly waits on data: the data share dominates.
  const SlotStats slots = r.stats.tally.slots();
  EXPECT_GT(slots.fraction(Slot::kData), 0.5);
  EXPECT_GT(slots.fraction(Slot::kUseful), 0.0);
}

TEST(SlotAccounting, BlockedThreadsChargeSync) {
  // 4 threads, barrier-only program: threads 1..3 block until thread 0's
  // long loop finishes; most of their slots must be charged to sync.
  ProgramBuilder b("s");
  isa::Reg bar = b.ireg(), r = b.ireg(), i = b.ireg(), n = b.ireg();
  b.li(bar, 4096);
  isa::Label join = b.new_label();
  b.bne(ProgramBuilder::tid(), ProgramBuilder::zero(), join);
  b.li(r, 1);
  b.li(n, 2000);
  b.for_range(i, 0, n, 1, [&] { b.mul(r, r, r); });
  b.bind(join);
  b.barrier(bar, ProgramBuilder::nthreads());
  b.halt();
  mem::PagedMemory memory;
  const RunResult r2 =
      run_on(arch_preset(ArchKind::kSmt4), b.take(), 8, memory);
  EXPECT_GT(r2.stats.tally.slots().fraction(Slot::kSync), 0.4);
}

// ---------- SlotTally: the §4.1 charges in integers ----------------------

/// Deterministic, varied charges: histograms whose proportional shares
/// round in floating point, over one to eight wasted slots.
struct Charge {
  SlotTally::Hist hist;
  std::uint64_t wasted;
};
std::vector<Charge> sample_charges() {
  std::vector<Charge> out(60);
  for (std::size_t k = 0; k < out.size(); ++k) {
    for (std::size_t i = 0; i < kNumSlots; ++i) {
      out[k].hist[i] = static_cast<std::uint32_t>((k * 7 + i * 3) % 5);
    }
    out[k].wasted = 1 + k % 8;
  }
  return out;
}

TEST(SlotTally, ChargeOrderDoesNotMoveSlots) {
  const std::vector<Charge> charges = sample_charges();
  SlotTally forward(64), backward(64), first_half(64), second_half(64);
  for (std::size_t k = 0; k < charges.size(); ++k) {
    const Charge& c = charges[k];
    forward.charge(c.hist, c.wasted, 1);
    (k < charges.size() / 2 ? first_half : second_half)
        .charge(c.hist, c.wasted, 1);
  }
  for (std::size_t k = charges.size(); k-- > 0;) {
    backward.charge(charges[k].hist, charges[k].wasted, 1);
  }
  second_half.add(first_half);  // the order a chip's clusters add in
  const SlotStats a = forward.slots(), b = backward.slots(),
                  c = second_half.slots();
  for (std::size_t i = 0; i < kNumSlots; ++i) {
    EXPECT_EQ(a.slots[i], b.slots[i]) << slot_name(static_cast<Slot>(i));
    EXPECT_EQ(a.slots[i], c.slots[i]) << slot_name(static_cast<Slot>(i));
  }
}

TEST(SlotTally, OneChargeOfNCyclesEqualsNCharges) {
  const Charge c = sample_charges()[11];
  SlotTally once(64), each(64);
  once.charge(c.hist, c.wasted, 997);
  for (int n = 0; n < 997; ++n) each.charge(c.hist, c.wasted, 1);
  const SlotStats a = once.slots(), b = each.slots();
  for (std::size_t i = 0; i < kNumSlots; ++i) {
    EXPECT_EQ(a.slots[i], b.slots[i]) << slot_name(static_cast<Slot>(i));
  }
}

TEST(SlotTally, HandWorkedSplitIsExact) {
  // One data hazard and two memory hazards share 3 wasted slots: 1 and 2.
  SlotTally t(8);
  SlotTally::Hist h = {};
  h[static_cast<std::size_t>(Slot::kData)] = 1;
  h[static_cast<std::size_t>(Slot::kMemory)] = 2;
  t.charge(h, 3, 1);
  const SlotStats s = t.slots();
  EXPECT_EQ(s[Slot::kData], 1.0);
  EXPECT_EQ(s[Slot::kMemory], 2.0);
  EXPECT_EQ(s.total(), 3.0);
}

TEST(Chip, ThreadPlacementFillsClustersInOrder) {
  cache::MemSysParams mp;
  cache::LocalMemoryBackend backend(mp);
  Chip chip(0, arch_preset(ArchKind::kSmt2), mp, backend);
  ProgramBuilder b("t");
  b.halt();
  const isa::Program p = b.take();
  mem::PagedMemory memory;
  exec::ThreadGroup g(p, memory, 8, 0);
  for (unsigned t = 0; t < 8; ++t) chip.attach_thread(&g.thread(t));
  EXPECT_EQ(chip.cluster(0).attached_threads(), 4u);
  EXPECT_EQ(chip.cluster(1).attached_threads(), 4u);
}

TEST(ChipDeath, OverSubscriptionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        cache::MemSysParams mp;
        cache::LocalMemoryBackend backend(mp);
        Chip chip(0, arch_preset(ArchKind::kFa1), mp, backend);
        ProgramBuilder b("t");
        b.halt();
        const isa::Program p = b.take();
        mem::PagedMemory memory;
        exec::ThreadGroup g(p, memory, 2, 0);
        chip.attach_thread(&g.thread(0));
        chip.attach_thread(&g.thread(1));
      },
      "exhausted");
}

// ---------- Table 2 presets (parameterized) ------------------------------

class ArchPresetTest : public ::testing::TestWithParam<ArchKind> {};

TEST_P(ArchPresetTest, Table2Invariants) {
  const ArchConfig c = arch_preset(GetParam());
  EXPECT_EQ(c.issue_width_per_chip(), 8u);
  EXPECT_EQ(c.clusters * c.cluster.window, 128u);
  EXPECT_LE(c.threads_per_chip(), 8u);
  EXPECT_EQ(c.name, arch_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllPresets, ArchPresetTest,
                         ::testing::Values(ArchKind::kFa8, ArchKind::kFa4,
                                           ArchKind::kFa2, ArchKind::kFa1,
                                           ArchKind::kSmt4, ArchKind::kSmt2,
                                           ArchKind::kSmt1, ArchKind::kSmt8));

TEST(ArchPreset, FaAndSmtPairings) {
  // SMT_c matches FA_c in cluster resources; they differ only in threads.
  const auto fa2 = arch_preset(ArchKind::kFa2);
  const auto smt2 = arch_preset(ArchKind::kSmt2);
  EXPECT_EQ(fa2.clusters, smt2.clusters);
  EXPECT_EQ(fa2.cluster.width, smt2.cluster.width);
  EXPECT_EQ(fa2.cluster.int_units, smt2.cluster.int_units);
  EXPECT_EQ(fa2.cluster.window, smt2.cluster.window);
  EXPECT_EQ(fa2.cluster.threads, 1u);
  EXPECT_EQ(smt2.cluster.threads, 4u);
  // SMT8 is the FA8 alias.
  const auto fa8 = arch_preset(ArchKind::kFa8);
  const auto smt8 = arch_preset(ArchKind::kSmt8);
  EXPECT_EQ(fa8.clusters, smt8.clusters);
  EXPECT_EQ(fa8.cluster.threads, smt8.cluster.threads);
}

}  // namespace
}  // namespace csmt::core
