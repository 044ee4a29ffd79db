// Tests for the cache structures: set-associative array (LRU, eviction,
// coherence state), MSHR file, and TLB.
#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_array.hpp"
#include "cache/mshr.hpp"
#include "cache/tlb.hpp"

namespace csmt::cache {
namespace {

CacheLevelParams tiny_l1() {
  // 4 sets x 2 ways x 64 B lines = 512 B.
  return {512, 64, 2, 8, 7, 1, 1};
}

TEST(CacheArray, GeometryFromTable3) {
  CacheArray l1({64 * 1024, 64, 2, 8, 7, 1, 1});
  EXPECT_EQ(l1.params().num_sets(), 512u);
  CacheArray l2({1024 * 1024, 64, 4, 8, 7, 1, 10});
  EXPECT_EQ(l2.params().num_sets(), 4096u);
}

TEST(CacheArray, MissThenHit) {
  CacheArray c(tiny_l1());
  EXPECT_EQ(c.lookup(0x1000), nullptr);
  c.insert(0x1000, LineState::kExclusive, false);
  CacheLine* line = c.lookup(0x1000);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, LineState::kExclusive);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheArray, SameLineDifferentWordsHit) {
  CacheArray c(tiny_l1());
  c.insert(0x1000, LineState::kShared, false);
  EXPECT_NE(c.lookup(0x1008), nullptr);
  EXPECT_NE(c.lookup(0x103F), nullptr);
  EXPECT_EQ(c.lookup(0x1040), nullptr);  // next line
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed) {
  CacheArray c(tiny_l1());  // 2 ways; set = (addr/64) % 4
  // Three lines mapping to set 0: 0x000, 0x100, 0x200.
  c.insert(0x000, LineState::kExclusive, false);
  c.insert(0x100, LineState::kExclusive, false);
  c.lookup(0x000);  // refresh 0x000; 0x100 is now LRU
  const auto ev = c.insert(0x200, LineState::kExclusive, false);
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, 0x100u);
  EXPECT_NE(c.probe(0x000), nullptr);
  EXPECT_EQ(c.probe(0x100), nullptr);
  EXPECT_NE(c.probe(0x200), nullptr);
}

TEST(CacheArray, DirtyEvictionReported) {
  CacheArray c(tiny_l1());
  EXPECT_FALSE(c.insert(0x000, LineState::kExclusive, true).valid);
  EXPECT_FALSE(c.insert(0x100, LineState::kExclusive, false).valid);
  const auto ev = c.insert(0x200, LineState::kExclusive, false);
  EXPECT_TRUE(ev.valid);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.line_addr, 0x000u);
}

TEST(CacheArray, ReinsertUpgradesInPlace) {
  CacheArray c(tiny_l1());
  c.insert(0x000, LineState::kShared, false);
  const auto ev = c.insert(0x000, LineState::kExclusive, true);
  EXPECT_FALSE(ev.valid);  // no eviction: same line upgraded
  CacheLine* line = c.probe(0x000);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, LineState::kExclusive);
  EXPECT_TRUE(line->dirty);
}

TEST(CacheArray, InvalidateReportsDirtiness) {
  CacheArray c(tiny_l1());
  c.insert(0x000, LineState::kExclusive, true);
  bool dirty = false;
  EXPECT_TRUE(c.invalidate(0x000, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_EQ(c.probe(0x000), nullptr);
  EXPECT_FALSE(c.invalidate(0x000, &dirty));  // already gone
}

TEST(CacheArray, DowngradeFlushesAndKeepsLine) {
  CacheArray c(tiny_l1());
  c.insert(0x000, LineState::kExclusive, true);
  bool dirty = false;
  EXPECT_TRUE(c.downgrade(0x000, &dirty));
  EXPECT_TRUE(dirty);
  CacheLine* line = c.probe(0x000);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, LineState::kShared);
  EXPECT_FALSE(line->dirty);  // data flushed
}

TEST(CacheArray, BankMappingIsLineInterleaved) {
  CacheArray c({64 * 1024, 64, 2, 8, 7, 1, 1});
  EXPECT_EQ(c.bank_of(0), 0u);
  EXPECT_EQ(c.bank_of(64), 1u);
  EXPECT_EQ(c.bank_of(7 * 64), 0u);  // 7 banks wrap
  EXPECT_EQ(c.bank_of(63), 0u);      // same line, same bank
}

TEST(CacheArray, LineAddrMasksOffset) {
  CacheArray c(tiny_l1());
  EXPECT_EQ(c.line_addr_of(0x1039), 0x1000u);
  EXPECT_EQ(c.line_addr_of(0x1040), 0x1040u);
}

// Addresses that stress the 64-bit arithmetic: multiprogram job offsets
// (job j's timing addresses start at j << 48) and the top of the space.
std::vector<Addr> wide_addresses() {
  std::vector<Addr> out;
  for (Addr j = 0; j < 8; ++j) {
    for (const Addr a : {Addr{0}, Addr{64}, Addr{0x1238}, Addr{0xFFFFC0},
                         Addr{0x7FFF'FFFF'FFC0}}) {
      out.push_back((j << 48) + a);
    }
  }
  for (Addr k = 0; k < 300; ++k) out.push_back(~Addr{0} - k * 61);
  out.push_back(Addr{1} << 63);
  out.push_back(Addr{0xFFFF'FFFF} << 6);  // line index 2^32 - 1
  out.push_back(Addr{1} << 38);           // line index 2^32
  return out;
}

TEST(CacheArray, BankOfMatchesDivisionForAnyBankCount) {
  for (unsigned banks = 1; banks <= 16; ++banks) {
    for (const std::size_t line : {std::size_t{32}, std::size_t{64}}) {
      const CacheArray c({64 * 1024, line, 2, 8, banks, 1, 1});
      for (const Addr a : wide_addresses()) {
        ASSERT_EQ(c.bank_of(a), (a / line) % banks)
            << "banks " << banks << " line " << line << " addr " << a;
      }
    }
  }
}

TEST(CacheArray, EvictedLineAddrRoundTripsAtWideAddresses) {
  // One set's worth of conflicting lines: the victim's reported address is
  // rebuilt from its tag and set, so it must equal what was inserted.
  CacheArray c(tiny_l1());  // 4 sets x 2 ways x 64 B
  for (const Addr a : wide_addresses()) {
    const Addr line = c.line_addr_of(a);
    const Addr stride = 4 * 64;  // same set, next tag
    c.insert(line, LineState::kExclusive, false);
    c.insert(line + stride, LineState::kExclusive, false);
    const CacheArray::Eviction ev =
        c.insert(line + 2 * stride, LineState::kExclusive, false);
    ASSERT_TRUE(ev.valid) << a;
    EXPECT_EQ(ev.line_addr, line) << a;
    // Clear the set for the next address.
    c.invalidate(line + stride, nullptr);
    c.invalidate(line + 2 * stride, nullptr);
  }
}

TEST(CacheArrayDeath, NonPowerOfTwoGeometryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // 3 sets of 2 x 64 B lines.
  ASSERT_DEATH({ CacheArray c({384, 64, 2, 8, 7, 1, 1}); }, "power");
  // 48-byte lines, 4 sets.
  ASSERT_DEATH({ CacheArray c({384, 48, 2, 8, 7, 1, 1}); }, "power");
}

// ---------- MSHR ----------------------------------------------------------

TEST(Mshr, AllocateAndExpire) {
  MshrFile m(2);
  EXPECT_FALSE(m.full());
  m.allocate(0x1000, 50);
  EXPECT_EQ(m.outstanding(0x1000), 50u);
  EXPECT_EQ(m.outstanding(0x2000), kNeverCycle);
  m.expire(49);
  EXPECT_EQ(m.outstanding(0x1000), 50u);  // not yet
  m.expire(50);
  EXPECT_EQ(m.outstanding(0x1000), kNeverCycle);
}

TEST(Mshr, FullAtCapacity) {
  MshrFile m(2);
  m.allocate(0x1000, 100);
  m.allocate(0x2000, 100);
  EXPECT_TRUE(m.full());
  EXPECT_EQ(m.in_flight(), 2u);
  m.expire(100);
  EXPECT_FALSE(m.full());
  EXPECT_EQ(m.in_flight(), 0u);
}

TEST(Mshr, SlotReuseAfterExpiry) {
  MshrFile m(1);
  m.allocate(0x1000, 10);
  m.expire(10);
  m.allocate(0x2000, 20);
  EXPECT_EQ(m.outstanding(0x2000), 20u);
  EXPECT_EQ(m.outstanding(0x1000), kNeverCycle);
  EXPECT_EQ(m.in_flight(), 1u);
}

TEST(Mshr, ExpireKeepsSurvivorsMergeable) {
  MshrFile m(3);
  m.allocate(0x1000, 30);
  m.allocate(0x2000, 10);
  m.allocate(0x3000, 20);
  EXPECT_TRUE(m.full());
  m.expire(15);  // retires the middle entry
  EXPECT_EQ(m.in_flight(), 2u);
  EXPECT_FALSE(m.full());
  EXPECT_EQ(m.outstanding(0x1000), 30u);
  EXPECT_EQ(m.outstanding(0x3000), 20u);
  EXPECT_EQ(m.outstanding(0x2000), kNeverCycle);
  // The survivors' minimum ready cycle is 20: one cycle earlier nothing
  // retires, at 20 exactly that entry does.
  m.expire(19);
  EXPECT_EQ(m.in_flight(), 2u);
  m.expire(20);
  EXPECT_EQ(m.in_flight(), 1u);
  EXPECT_EQ(m.outstanding(0x3000), kNeverCycle);
  EXPECT_EQ(m.outstanding(0x1000), 30u);
  // The freed room is reused, and the file is full at exactly capacity.
  m.allocate(0x4000, 40);
  m.allocate(0x5000, 50);
  EXPECT_TRUE(m.full());
  EXPECT_EQ(m.outstanding(0x4000), 40u);
  EXPECT_EQ(m.outstanding(0x1000), 30u);
  m.expire(30);
  EXPECT_EQ(m.in_flight(), 2u);
  EXPECT_EQ(m.outstanding(0x4000), 40u);
  // The new minimum is 40, the earlier of the two survivors.
  m.expire(39);
  EXPECT_EQ(m.in_flight(), 2u);
  m.expire(40);
  EXPECT_EQ(m.in_flight(), 1u);
  EXPECT_EQ(m.outstanding(0x5000), 50u);
}

TEST(MshrDeath, AllocateIntoFullFileAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        MshrFile m(2);
        m.allocate(0x1000, 100);
        m.allocate(0x2000, 100);
        m.allocate(0x3000, 100);  // a caller that skipped full()
      },
      "full");
}

// ---------- TLB ------------------------------------------------------------

TEST(Tlb, MissThenHitSamePage) {
  Tlb tlb(4);
  EXPECT_FALSE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1008));  // same 4 KB page
  EXPECT_TRUE(tlb.access(0x1FF8));
  EXPECT_FALSE(tlb.access(0x2000));  // next page
}

TEST(Tlb, CapacityEviction) {
  Tlb tlb(4);
  for (Addr p = 0; p < 8; ++p) tlb.access(p * 4096);
  // 8 pages through a 4-entry TLB: exactly 4 resident.
  EXPECT_EQ(tlb.resident(), 4u);
  EXPECT_EQ(tlb.stats().misses, 8u);
}

TEST(Tlb, FullyAssociativeHoldsExactlyCapacity) {
  Tlb tlb(512);
  for (Addr p = 0; p < 512; ++p) EXPECT_FALSE(tlb.access(p * 4096));
  for (Addr p = 0; p < 512; ++p) EXPECT_TRUE(tlb.access(p * 4096));
  EXPECT_DOUBLE_EQ(tlb.stats().miss_rate(), 0.5);
}

TEST(Tlb, RandomReplacementIsDeterministicPerSeed) {
  auto runs_misses = [](std::uint64_t seed) {
    Tlb tlb(8, seed);
    std::uint64_t misses = 0;
    for (int round = 0; round < 4; ++round) {
      for (Addr p = 0; p < 12; ++p) misses += !tlb.access(p * 4096);
    }
    return misses;
  };
  EXPECT_EQ(runs_misses(1), runs_misses(1));
}

}  // namespace
}  // namespace csmt::cache
