// MemSys tests: Table 3 latency composition, contention (banks, MSHRs),
// the store write-buffer, inclusion, upgrades, and coherence entry points.
#include <gtest/gtest.h>

#include "cache/backend.hpp"
#include "cache/memsys.hpp"

namespace csmt::cache {
namespace {

class MemSysTest : public ::testing::Test {
 protected:
  MemSysTest() : backend_(params_), memsys_(0, params_, backend_) {}

  /// A load far in the future so TLB/bank state from earlier accesses has
  /// drained; returns the latency relative to the arrival time.
  Cycle load_latency(Addr addr, Cycle arrival) {
    const AccessResult r = memsys_.load(addr, arrival);
    EXPECT_TRUE(r.accepted);
    return r.done - arrival;
  }

  MemSysParams params_;
  LocalMemoryBackend backend_;
  MemSys memsys_;
};

TEST_F(MemSysTest, ColdLoadPaysTlbAndMemory) {
  // First access: TLB miss (30) + local memory (40).
  const AccessResult r = memsys_.load(4096, 100);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.level, ServiceLevel::kLocalMemory);
  EXPECT_EQ(r.done - 100, params_.tlb_miss_penalty +
                              params_.local_memory_latency);
}

TEST_F(MemSysTest, WarmLoadHitsL1InOneCycle) {
  memsys_.load(4096, 100);
  const AccessResult r = memsys_.load(4096, 1000);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.level, ServiceLevel::kL1);
  EXPECT_EQ(r.done - 1000, params_.l1.latency);
}

TEST_F(MemSysTest, SecondaryMissMergesOnMshr) {
  const AccessResult first = memsys_.load(4096, 100);
  const AccessResult second = memsys_.load(4096 + 8, 105);
  ASSERT_TRUE(second.accepted);
  EXPECT_EQ(second.level, ServiceLevel::kMergedMshr);
  EXPECT_EQ(second.done, first.done);  // piggybacks on the same fill
  EXPECT_EQ(memsys_.stats().by_level[static_cast<int>(
                ServiceLevel::kMergedMshr)],
            1u);
}

TEST_F(MemSysTest, L2HitAfterL1Eviction) {
  // Fill a line, then thrash its L1 set (2-way, 512 sets -> 32 KB stride)
  // so the line falls back to L2 only.
  memsys_.load(4096, 100);
  memsys_.load(4096 + 32 * 1024, 1000);
  memsys_.load(4096 + 64 * 1024, 2000);
  const AccessResult r = memsys_.load(4096, 5000);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.level, ServiceLevel::kL2);
  EXPECT_EQ(r.done - 5000, static_cast<Cycle>(params_.l2.latency));
}

TEST_F(MemSysTest, StoresDrainThroughWriteBuffer) {
  // Even a cold store completes at arrival+1 (write buffer), while the
  // line is fetched in the background.
  const AccessResult r = memsys_.store(4096, 100);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.done, 101u + params_.tlb_miss_penalty);
  EXPECT_EQ(memsys_.stats().stores, 1u);
}

TEST_F(MemSysTest, AtomicWaitsForTheLine) {
  const AccessResult r = memsys_.atomic(4096, 100);
  ASSERT_TRUE(r.accepted);
  EXPECT_GT(r.done - 100, params_.local_memory_latency - 1);
}

TEST_F(MemSysTest, BankContentionQueues) {
  // Warm two different lines in the same bank (7 banks; lines 0 and 7).
  memsys_.load(4096, 100);               // line 0 of the page -> bank b
  memsys_.load(4096 + 7 * 64, 200);      // 7 lines later -> same bank
  // Warm TLB covers the page; now two same-cycle hits to the same bank:
  const AccessResult a = memsys_.load(4096, 1000);
  const AccessResult b = memsys_.load(4096 + 7 * 64, 1000);
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  EXPECT_EQ(a.done, 1001u);
  EXPECT_EQ(b.done, 1002u);  // queued one occupancy slot behind
}

TEST_F(MemSysTest, BankQueueOverflowRejects) {
  memsys_.load(4096, 100);  // warm TLB + line
  // Saturate the bank queue with same-cycle requests.
  bool rejected = false;
  for (int i = 0; i < 16; ++i) {
    const AccessResult r = memsys_.load(4096, 1000);
    if (!r.accepted) {
      rejected = true;
      EXPECT_EQ(r.reject, RejectReason::kBankBusy);
      break;
    }
  }
  EXPECT_TRUE(rejected);
  EXPECT_GT(memsys_.stats().bank_rejections, 0u);
}

TEST_F(MemSysTest, MshrExhaustionRejects) {
  // 33 distinct-line misses in flight: the 33rd must be rejected
  // (Table 3: 32 outstanding loads). Use one line per bank round so bank
  // queues stay shallow, and fresh pages pay only the TLB penalty.
  // One new line per cycle, one bank per line round-robin: bank fill
  // occupancy is never the limiter, and each miss stays outstanding for
  // >= 70 cycles (TLB 30 + memory 40 + controller queuing), so the MSHR
  // file fills before any entry expires.
  unsigned accepted = 0;
  bool saw_mshr_reject = false;
  for (unsigned i = 0; i < 40 && !saw_mshr_reject; ++i) {
    const AccessResult r = memsys_.load(
        static_cast<Addr>(i) * 4096 + 64 * (i % 7), 100 + i);
    if (r.accepted) {
      ++accepted;
    } else if (r.reject == RejectReason::kMshrFull) {
      saw_mshr_reject = true;
    } else {
      FAIL() << "unexpected bank rejection at i=" << i;
    }
  }
  EXPECT_TRUE(saw_mshr_reject);
  EXPECT_EQ(accepted, params_.max_outstanding_loads);
  EXPECT_EQ(memsys_.stats().mshr_rejections, 1u);
}

TEST_F(MemSysTest, CoherenceInvalidateRemovesDirtyLine) {
  memsys_.store(4096, 100);
  // Let the background fill land, then touch to set L1 dirty state.
  memsys_.store(4096, 500);
  bool dirty = false;
  EXPECT_TRUE(memsys_.coherence_invalidate(4096, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_FALSE(memsys_.holds_line(4096));
  // A later load misses all the way to memory again.
  const AccessResult r = memsys_.load(4096, 5000);
  EXPECT_EQ(r.level, ServiceLevel::kLocalMemory);
}

TEST_F(MemSysTest, CoherenceDowngradeKeepsReadableCopy) {
  memsys_.store(4096, 100);
  bool dirty = false;
  EXPECT_TRUE(memsys_.coherence_downgrade(4096, &dirty));
  EXPECT_TRUE(memsys_.holds_line(4096));
  const AccessResult r = memsys_.load(4096, 5000);
  EXPECT_EQ(r.level, ServiceLevel::kL1);  // still readable
}

TEST_F(MemSysTest, InclusionBackInvalidatesL1) {
  // Evict a line from L2 by filling its L2 set (4-way, 4096 sets ->
  // 256 KB stride); its L1 copy must disappear too.
  const Addr base = 4096;
  memsys_.load(base, 100);
  for (unsigned w = 1; w <= 4; ++w) {
    memsys_.load(base + w * 256 * 1024, 1000 * w + 1000);
  }
  EXPECT_FALSE(memsys_.holds_line(base));
  const AccessResult r = memsys_.load(base, 50000);
  EXPECT_EQ(r.level, ServiceLevel::kLocalMemory);  // refetched from memory
}

TEST_F(MemSysTest, ByLevelCountersAccumulate) {
  memsys_.load(4096, 100);
  memsys_.load(4096, 1000);
  const auto& by = memsys_.stats().by_level;
  EXPECT_EQ(by[static_cast<int>(ServiceLevel::kLocalMemory)], 1u);
  EXPECT_EQ(by[static_cast<int>(ServiceLevel::kL1)], 1u);
  EXPECT_EQ(memsys_.stats().loads, 2u);
}

// ---------- private per-cluster L1s (the 3.4 alternative) ----------------

class PrivateL1Test : public ::testing::Test {
 protected:
  PrivateL1Test() : backend_(params_), memsys_(0, params_, backend_, 4) {}
  MemSysParams params_;
  LocalMemoryBackend backend_;
  MemSys memsys_;
};

TEST_F(PrivateL1Test, BuildsRequestedCount) {
  EXPECT_EQ(memsys_.l1_count(), 4u);
}

TEST_F(PrivateL1Test, PortsHaveIndependentContents) {
  memsys_.load(4096, 100, /*port=*/0);
  // Port 0 now hits; port 1 misses to L2 for the same line.
  const AccessResult hit = memsys_.load(4096, 1000, 0);
  const AccessResult miss = memsys_.load(4096, 1000, 1);
  EXPECT_EQ(hit.level, ServiceLevel::kL1);
  EXPECT_EQ(miss.level, ServiceLevel::kL2);
}

TEST_F(PrivateL1Test, StoreInvalidatesOtherPorts) {
  memsys_.load(4096, 100, 0);
  memsys_.load(4096, 200, 1);
  // Both ports now hold the line; a store from port 0 removes port 1's.
  memsys_.store(4096, 1000, 0);
  EXPECT_GE(memsys_.stats().l1_cross_invalidations, 1u);
  const AccessResult r = memsys_.load(4096, 2000, 1);
  EXPECT_EQ(r.level, ServiceLevel::kL2);  // refetched through the L2
}

TEST_F(PrivateL1Test, CrossInvalidateFlushesDirtyDataToL2) {
  memsys_.store(4096, 100, 0);
  memsys_.store(4096, 500, 0);   // dirty in port 0's L1
  memsys_.store(4096, 1000, 1);  // port 1 takes the line over
  // Port 1's later load must find current data in L2 (not lose it).
  const AccessResult r = memsys_.load(4096, 5000, 1);
  EXPECT_TRUE(r.accepted);
  // The line still exists chip-wide.
  EXPECT_TRUE(memsys_.holds_line(4096));
}

TEST_F(PrivateL1Test, CoherenceInvalidateSweepsAllPorts) {
  memsys_.load(4096, 100, 0);
  memsys_.load(4096, 200, 2);
  bool dirty = false;
  EXPECT_TRUE(memsys_.coherence_invalidate(4096, &dirty));
  EXPECT_EQ(memsys_.load(4096, 5000, 0).level, ServiceLevel::kLocalMemory);
}

TEST_F(PrivateL1Test, SplitCapacityIsSmaller) {
  // The private L1s are 16 KB each (64/4): lines 16 KB apart alias to the
  // same set (2-way), so three of them thrash one port while the shared
  // configuration would hold them comfortably.
  const Addr base = 4096;
  memsys_.load(base, 100, 0);
  memsys_.load(base + 16 * 1024, 1000, 0);
  memsys_.load(base + 32 * 1024, 2000, 0);
  const AccessResult r = memsys_.load(base, 5000, 0);
  EXPECT_NE(r.level, ServiceLevel::kL1);  // evicted by the aliasing fills
}

TEST(PrivateL1, SharedConfigIgnoresPort) {
  MemSysParams p;
  LocalMemoryBackend b(p);
  MemSys m(0, p, b, 1);
  m.load(4096, 100, 0);
  EXPECT_EQ(m.load(4096, 1000, 7).level, ServiceLevel::kL1);
}

TEST(MemSysDeath, MismatchedLineSizesAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        MemSysParams p;
        p.l2.line_bytes = 128;
        LocalMemoryBackend b(p);
        MemSys m(0, p, b);
      },
      "line size");
}

TEST(LocalBackend, MemoryControllerSerializes) {
  MemSysParams p;
  LocalMemoryBackend b(p);
  const auto r1 = b.fetch_line(0, 0, false, 100);
  const auto r2 = b.fetch_line(0, 64, false, 100);
  EXPECT_EQ(r1.extra_delay, 0u);
  EXPECT_EQ(r2.extra_delay, p.memory_occupancy);  // queued behind r1
  EXPECT_EQ(r1.base_latency, p.local_memory_latency);
}

}  // namespace
}  // namespace csmt::cache
