// Tests for the MINT-style synchronization layer: SyncManager semantics,
// the ThreadGroup, and the sync-primitive instructions end to end.
#include <gtest/gtest.h>

#include "exec/sync.hpp"
#include "exec/thread_group.hpp"
#include "isa/builder.hpp"

namespace csmt::exec {
namespace {

using isa::ProgramBuilder;

isa::Program trivial_program() {
  ProgramBuilder b("t");
  b.halt();
  return b.take();
}

class SyncManagerTest : public ::testing::Test {
 protected:
  SyncManagerTest() : program_(trivial_program()) {
    for (unsigned i = 0; i < 4; ++i) {
      threads_.push_back(
          std::make_unique<ThreadContext>(i, program_, memory_, i, 4, 0));
    }
  }
  mem::PagedMemory memory_;
  isa::Program program_;
  std::vector<std::unique_ptr<ThreadContext>> threads_;
  SyncManager sync_;
};

TEST_F(SyncManagerTest, BarrierBlocksUntilLastArrives) {
  EXPECT_FALSE(sync_.barrier_arrive(64, threads_[0].get(), 3));
  EXPECT_TRUE(threads_[0]->sync_blocked());
  EXPECT_FALSE(sync_.barrier_arrive(64, threads_[1].get(), 3));
  EXPECT_TRUE(threads_[1]->sync_blocked());
  // Last arriver releases everyone and is itself never blocked.
  EXPECT_TRUE(sync_.barrier_arrive(64, threads_[2].get(), 3));
  EXPECT_FALSE(threads_[0]->sync_blocked());
  EXPECT_FALSE(threads_[1]->sync_blocked());
  EXPECT_FALSE(threads_[2]->sync_blocked());
}

TEST_F(SyncManagerTest, BarrierIsReusable) {
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(sync_.barrier_arrive(64, threads_[0].get(), 2));
    EXPECT_TRUE(sync_.barrier_arrive(64, threads_[1].get(), 2));
    EXPECT_FALSE(threads_[0]->sync_blocked());
  }
}

TEST_F(SyncManagerTest, SingleParticipantBarrierNeverBlocks) {
  EXPECT_TRUE(sync_.barrier_arrive(64, threads_[0].get(), 1));
  EXPECT_FALSE(threads_[0]->sync_blocked());
}

TEST_F(SyncManagerTest, IndependentBarrierAddresses) {
  EXPECT_FALSE(sync_.barrier_arrive(64, threads_[0].get(), 2));
  EXPECT_FALSE(sync_.barrier_arrive(128, threads_[1].get(), 2));
  EXPECT_TRUE(threads_[0]->sync_blocked());
  EXPECT_TRUE(threads_[1]->sync_blocked());
  EXPECT_TRUE(sync_.barrier_arrive(128, threads_[2].get(), 2));
  EXPECT_TRUE(threads_[0]->sync_blocked());   // barrier 64 still waiting
  EXPECT_FALSE(threads_[1]->sync_blocked());  // barrier 128 released
}

TEST_F(SyncManagerTest, LockIsImmediateWhenFree) {
  EXPECT_TRUE(sync_.lock_acquire(64, threads_[0].get()));
  EXPECT_FALSE(threads_[0]->sync_blocked());
}

TEST_F(SyncManagerTest, LockBlocksAndHandsOffFifo) {
  EXPECT_TRUE(sync_.lock_acquire(64, threads_[0].get()));
  EXPECT_FALSE(sync_.lock_acquire(64, threads_[1].get()));
  EXPECT_FALSE(sync_.lock_acquire(64, threads_[2].get()));
  EXPECT_TRUE(threads_[1]->sync_blocked());
  EXPECT_TRUE(threads_[2]->sync_blocked());

  sync_.lock_release(64, threads_[0].get());
  EXPECT_FALSE(threads_[1]->sync_blocked());  // FIFO: t1 wakes first
  EXPECT_TRUE(threads_[2]->sync_blocked());

  sync_.lock_release(64, threads_[1].get());
  EXPECT_FALSE(threads_[2]->sync_blocked());
  sync_.lock_release(64, threads_[2].get());
  // Free again.
  EXPECT_TRUE(sync_.lock_acquire(64, threads_[3].get()));
}

TEST_F(SyncManagerTest, ReleaseByNonHolderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_TRUE(sync_.lock_acquire(64, threads_[0].get()));
  ASSERT_DEATH(sync_.lock_release(64, threads_[1].get()), "non-holder");
}

// ---------- sync primitives through the interpreter ----------------------

TEST(SyncPrimitives, BarrierProgramCompletesFunctionally) {
  ProgramBuilder b("bar");
  isa::Reg bar = b.ireg();
  b.li(bar, 64);
  b.barrier(bar, ProgramBuilder::nthreads());
  b.barrier(bar, ProgramBuilder::nthreads());
  b.halt();
  const isa::Program p = b.take();
  mem::PagedMemory memory;
  ThreadGroup g(p, memory, 4, 0);

  // Round-robin functional stepping, skipping blocked threads exactly as
  // the timing model would.
  DynInst d;
  unsigned steps = 0;
  while (!g.all_done() && steps < 10000) {
    for (unsigned t = 0; t < g.size(); ++t) {
      auto& tc = g.thread(t);
      if (!tc.done() && !tc.sync_blocked()) tc.step(d);
    }
    ++steps;
  }
  EXPECT_TRUE(g.all_done());
  // Both barriers released every thread: each retired li, two barriers
  // and the halt.
  for (unsigned t = 0; t < g.size(); ++t) {
    EXPECT_EQ(g.thread(t).instret(), 4u) << "thread " << t;
  }
}

TEST(SyncPrimitives, LockSerializesCriticalSections) {
  // Each thread increments a shared counter inside a lock; with blocking
  // locks the final count is exact regardless of interleaving.
  ProgramBuilder b("lk");
  isa::Reg lock = b.ireg(), addr = b.ireg(), v = b.ireg();
  b.li(lock, 64);
  b.li(addr, 128);
  b.lock_acquire(lock);
  b.ld(v, addr, 0);
  b.addi(v, v, 1);
  b.st(addr, 0, v);
  b.lock_release(lock);
  b.halt();
  const isa::Program p = b.take();
  mem::PagedMemory memory;
  ThreadGroup g(p, memory, 6, 0);
  DynInst d;
  unsigned steps = 0;
  while (!g.all_done() && steps < 10000) {
    for (unsigned t = 0; t < g.size(); ++t) {
      auto& tc = g.thread(t);
      if (!tc.done() && !tc.sync_blocked()) tc.step(d);
    }
    ++steps;
  }
  EXPECT_TRUE(g.all_done());
  EXPECT_EQ(memory.read(128), 6u);
}

TEST(ThreadGroup, CreatesTidSequence) {
  ProgramBuilder b("t");
  b.halt();
  const isa::Program p = b.take();
  mem::PagedMemory memory;
  ThreadGroup g(p, memory, 5, 0x1000);
  EXPECT_EQ(g.size(), 5u);
  for (unsigned i = 0; i < 5; ++i) {
    EXPECT_EQ(g.thread(i).ireg(isa::kRegTid), i);
    EXPECT_EQ(g.thread(i).ireg(isa::kRegNThreads), 5u);
    EXPECT_EQ(g.thread(i).ireg(isa::kRegArgs), 0x1000u);
  }
  EXPECT_FALSE(g.all_done());
  DynInst d;
  for (unsigned i = 0; i < 5; ++i) g.thread(i).step(d);
  EXPECT_TRUE(g.all_done());
  for (unsigned i = 0; i < 5; ++i) EXPECT_EQ(g.thread(i).instret(), 1u);
}

TEST(SyncPrimitivesDeath, PrimitiveWithoutManagerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ProgramBuilder b("nb");
  isa::Reg bar = b.ireg();
  b.li(bar, 64);
  b.barrier(bar, ProgramBuilder::nthreads());
  b.halt();
  const isa::Program p = b.take();
  ASSERT_DEATH(
      {
        mem::PagedMemory memory;
        ThreadContext tc(0, p, memory, 0, 1, 0);  // no SyncManager
        DynInst d;
        while (tc.step(d)) {
        }
      },
      "SyncManager");
}

}  // namespace
}  // namespace csmt::exec
