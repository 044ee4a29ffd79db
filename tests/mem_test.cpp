// Unit tests for the functional memory (PagedMemory) and the workload
// allocator (SimAlloc).
#include <gtest/gtest.h>

#include "mem/paged_memory.hpp"

namespace csmt::mem {
namespace {

TEST(PagedMemory, ZeroInitialized) {
  PagedMemory m;
  EXPECT_EQ(m.read(0), 0u);
  EXPECT_EQ(m.read(123456 * 8), 0u);
  EXPECT_EQ(m.resident_pages(), 0u);  // reads do not materialize pages
}

TEST(PagedMemory, ReadBackWrites) {
  PagedMemory m;
  m.write(64, 0xDEADBEEFull);
  m.write(72, 1);
  EXPECT_EQ(m.read(64), 0xDEADBEEFull);
  EXPECT_EQ(m.read(72), 1u);
  EXPECT_EQ(m.read(80), 0u);
}

TEST(PagedMemory, SparsePages) {
  PagedMemory m;
  m.write(0, 1);
  m.write(10 * kPageBytes, 2);
  EXPECT_EQ(m.resident_pages(), 2u);
  EXPECT_EQ(m.read(10 * kPageBytes), 2u);
}

TEST(PagedMemory, DoubleRoundTrips) {
  PagedMemory m;
  const double values[] = {0.0, -1.5, 3.14159, 1e300, -1e-300};
  for (std::size_t i = 0; i < 5; ++i) m.write_double(8 * i, values[i]);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(m.read_double(8 * i), values[i]);
}

TEST(PagedMemory, AmoSwapReturnsOld) {
  PagedMemory m;
  m.write(128, 7);
  EXPECT_EQ(m.amo_swap(128, 9), 7u);
  EXPECT_EQ(m.read(128), 9u);
}

TEST(PagedMemory, AmoAddAccumulates) {
  PagedMemory m;
  EXPECT_EQ(m.amo_add(256, 5), 0u);
  EXPECT_EQ(m.amo_add(256, 5), 5u);
  EXPECT_EQ(m.read(256), 10u);
}

TEST(PagedMemory, ReleaseForgetsTheLastPage) {
  PagedMemory m;
  m.write(64, 5);
  EXPECT_EQ(m.read(64), 5u);  // the page is now the cached one
  m.release();
  EXPECT_EQ(m.read(64), 0u);
  EXPECT_EQ(m.resident_pages(), 0u);
}

TEST(PagedMemory, ReadOfUnmappedNeighbourNeverMaterializes) {
  PagedMemory m;
  m.write(kPageBytes, 1);  // caches page 1
  EXPECT_EQ(m.read(2 * kPageBytes), 0u);
  EXPECT_EQ(m.read(0), 0u);
  EXPECT_EQ(m.resident_pages(), 1u);
  EXPECT_EQ(m.read(kPageBytes), 1u);
}

TEST(PagedMemory, AlternatingPagesBothLand) {
  PagedMemory m;
  for (std::uint64_t i = 0; i < 16; ++i) {
    m.write(8 * i, i);
    m.write(7 * kPageBytes + 8 * i, 100 + i);
  }
  EXPECT_EQ(m.resident_pages(), 2u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(m.read(8 * i), i);
    EXPECT_EQ(m.read(7 * kPageBytes + 8 * i), 100 + i);
  }
}

TEST(PagedMemoryDeath, UnalignedAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        PagedMemory m;
        m.read(3);
      },
      "unaligned");
  ASSERT_DEATH(
      {
        PagedMemory m;
        m.write(12345, 1);
      },
      "unaligned");
}

TEST(SimAlloc, RespectsAlignment) {
  SimAlloc a;
  EXPECT_EQ(a.alloc(24, 8) % 8, 0u);
  EXPECT_EQ(a.alloc(100, 64) % 64, 0u);
  EXPECT_EQ(a.alloc(8, 4096) % 4096, 0u);
}

TEST(SimAlloc, AllocationsDoNotOverlap) {
  SimAlloc a;
  const Addr x = a.alloc_words(100);
  const Addr y = a.alloc_words(100);
  EXPECT_GE(y, x + 100 * kWordBytes);
}

TEST(SimAlloc, NeverReturnsNull) {
  SimAlloc a;
  EXPECT_GT(a.alloc(8), 0u);
}

TEST(SimAlloc, SkewBreaksPowerOfTwoAliasing) {
  // Consecutive 32 KB arrays must not land exactly one L1-way apart
  // (32 KB = 512 lines = the 64 KB 2-way L1's way size); see DESIGN.md.
  SimAlloc a;
  const Addr x = a.alloc_words(4096, 64);  // 32 KB
  const Addr y = a.alloc_words(4096, 64);
  EXPECT_NE((y - x) % (32 * 1024), 0u);
}

TEST(SimAlloc, SyncLinesAreLineAligned) {
  SimAlloc a;
  const Addr l1 = a.alloc_sync_line();
  const Addr l2 = a.alloc_sync_line();
  EXPECT_EQ(l1 % 64, 0u);
  EXPECT_EQ(l2 % 64, 0u);
  EXPECT_GE(l2 - l1, 64u);  // never share a coherence unit
}

TEST(SimAlloc, HighWaterAdvances) {
  SimAlloc a;
  const Addr before = a.high_water();
  a.alloc(1000);
  EXPECT_GT(a.high_water(), before);
}

}  // namespace
}  // namespace csmt::mem
