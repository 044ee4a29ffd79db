// Tests for the DASH-like coherent interconnect: network port queuing,
// home interleaving, and the directory protocol state machine with real
// per-chip MemSys instances attached.
#include <gtest/gtest.h>

#include <memory>

#include "cache/memsys.hpp"
#include "noc/dash.hpp"

namespace csmt::noc {
namespace {

using cache::LineState;
using cache::ServiceLevel;

TEST(Network, FreeSendHasNoDelay) {
  NocParams p;
  Network net(p);
  EXPECT_EQ(net.send(0, 1, 100), 0u);
}

TEST(Network, IntraNodeMessagesAreFree) {
  NocParams p;
  Network net(p);
  EXPECT_EQ(net.send(2, 2, 100), 0u);
  EXPECT_EQ(net.send(2, 1, 100), 0u);  // and it occupied no port
}

TEST(Network, PortContentionSerializes) {
  NocParams p;  // message_occupancy = 2
  Network net(p);
  EXPECT_EQ(net.send(0, 1, 100), 0u);
  EXPECT_EQ(net.send(0, 2, 100), 2u);  // output port of node 0 busy
  EXPECT_EQ(net.send(3, 1, 100), 2u);  // input port of node 1 busy until 102
}

TEST(Directory, BitHelpers) {
  EXPECT_EQ(Directory::bit(0), 1u);
  EXPECT_EQ(Directory::bit(3), 8u);
}

TEST(Directory, PeekDefaultsToUncached) {
  Directory d;
  EXPECT_EQ(d.peek(0x1000).state, DirState::kUncached);
  d.entry(0x2000).state = DirState::kShared;
  EXPECT_EQ(d.peek(0x2000).state, DirState::kShared);
  EXPECT_EQ(d.peek(0x1000).state, DirState::kUncached);
}

// ---------- full protocol through DashInterconnect ------------------------

class DashTest : public ::testing::Test {
 protected:
  DashTest() : dash_(noc_params_, mem_params_) {
    for (unsigned c = 0; c < 4; ++c) {
      chips_.push_back(
          std::make_unique<cache::MemSys>(c, mem_params_, dash_));
      dash_.attach_chip(chips_.back().get());
    }
  }

  /// An address homed on node `home` (page-interleaved, 4 KB pages).
  static Addr homed(unsigned home, unsigned line = 0) {
    return static_cast<Addr>(home) * 4096 + line * 64;
  }

  NocParams noc_params_;
  cache::MemSysParams mem_params_;
  DashInterconnect dash_;
  std::vector<std::unique_ptr<cache::MemSys>> chips_;
};

TEST_F(DashTest, HomeInterleaving) {
  EXPECT_EQ(dash_.home_of(0), 0u);
  EXPECT_EQ(dash_.home_of(4096), 1u);
  EXPECT_EQ(dash_.home_of(3 * 4096), 3u);
  EXPECT_EQ(dash_.home_of(4 * 4096), 0u);
  EXPECT_EQ(dash_.home_of(4095), 0u);  // same page, same home
}

TEST_F(DashTest, UncachedLocalFetchIsLocalMemory) {
  const auto r = dash_.fetch_line(0, homed(0), false, 100);
  EXPECT_EQ(r.level, ServiceLevel::kLocalMemory);
  EXPECT_EQ(r.base_latency, mem_params_.local_memory_latency);
  EXPECT_EQ(r.grant, LineState::kExclusive);  // sole cacher gets E
}

TEST_F(DashTest, UncachedRemoteFetchIsRemoteMemory) {
  const auto r = dash_.fetch_line(0, homed(2), false, 100);
  EXPECT_EQ(r.level, ServiceLevel::kRemoteMemory);
  EXPECT_EQ(r.base_latency, mem_params_.remote_memory_latency);
}

TEST_F(DashTest, SecondReaderGetsSharedAndDirectoryTracksBoth) {
  // Chip 1 actually caches the line (through its MemSys), then chip 2
  // reads it: the directory downgrades chip 1 and grants Shared.
  chips_[1]->load(homed(0), 100);
  const auto r = dash_.fetch_line(2, homed(0), false, 1000);
  EXPECT_EQ(r.grant, LineState::kShared);
  const DirEntry e = dash_.directory().peek(homed(0));
  EXPECT_EQ(e.state, DirState::kShared);
  EXPECT_EQ(e.sharers, Directory::bit(1) | Directory::bit(2));
  EXPECT_EQ(dash_.stats().interventions, 1u);
}

TEST_F(DashTest, DirtyRemoteSupplyUsesRemoteL2Latency) {
  // Chip 1 dirties the line; chip 2's read must be supplied from chip 1's
  // L2 at the 75-cycle class and the owner downgraded to Shared.
  chips_[1]->store(homed(0), 100);
  const auto r = dash_.fetch_line(2, homed(0), false, 1000);
  EXPECT_EQ(r.level, ServiceLevel::kRemoteL2);
  EXPECT_EQ(r.base_latency, mem_params_.remote_l2_latency);
  EXPECT_EQ(r.grant, LineState::kShared);
  EXPECT_EQ(dash_.stats().dirty_remote_supplies, 1u);
}

TEST_F(DashTest, ExclusiveFetchInvalidatesSharers) {
  chips_[1]->load(homed(0), 100);
  chips_[2]->load(homed(0), 200);
  ASSERT_TRUE(chips_[1]->holds_line(homed(0)));
  const auto r = dash_.fetch_line(3, homed(0), true, 1000);
  EXPECT_EQ(r.grant, LineState::kExclusive);
  EXPECT_FALSE(chips_[1]->holds_line(homed(0)));
  EXPECT_FALSE(chips_[2]->holds_line(homed(0)));
  EXPECT_EQ(dash_.directory().peek(homed(0)).state, DirState::kOwned);
  EXPECT_EQ(dash_.directory().peek(homed(0)).owner, 3u);
  EXPECT_GE(dash_.stats().invalidations_sent, 2u);
}

TEST_F(DashTest, InvalidationDelayScalesWithSharers) {
  // Exclusive fetch with no sharers vs with two: the latter pays the
  // invalidation round trip.
  const auto clean = dash_.fetch_line(0, homed(0, 1), true, 100);
  chips_[1]->load(homed(0, 2), 100);
  chips_[2]->load(homed(0, 2), 200);
  const auto contested = dash_.fetch_line(0, homed(0, 2), true, 1000);
  EXPECT_GE(contested.extra_delay,
            clean.extra_delay + noc_params_.invalidation_round_trip);
}

TEST_F(DashTest, UpgradeInvalidatesOtherSharers) {
  chips_[0]->load(homed(0), 100);
  chips_[1]->load(homed(0), 200);
  const Cycle extra = dash_.upgrade_line(0, homed(0), 1000);
  EXPECT_GE(extra, noc_params_.local_upgrade_latency);
  EXPECT_FALSE(chips_[1]->holds_line(homed(0)));
  EXPECT_EQ(dash_.directory().peek(homed(0)).state, DirState::kOwned);
  EXPECT_EQ(dash_.directory().peek(homed(0)).owner, 0u);
}

TEST_F(DashTest, RemoteUpgradeCostsMore) {
  chips_[0]->load(homed(1), 100);
  const Cycle remote = dash_.upgrade_line(0, homed(1), 1000);
  EXPECT_GE(remote, noc_params_.remote_upgrade_latency);
}

TEST_F(DashTest, WritebackReturnsLineToMemory) {
  dash_.fetch_line(1, homed(0), true, 100);
  ASSERT_EQ(dash_.directory().peek(homed(0)).state, DirState::kOwned);
  dash_.writeback_line(1, homed(0), 500);
  EXPECT_EQ(dash_.directory().peek(homed(0)).state, DirState::kUncached);
  EXPECT_EQ(dash_.stats().writebacks, 1u);
}

TEST_F(DashTest, SilentEvictionRefetchIsHarmless) {
  // Chip 1 owns the line but silently dropped it (clean E eviction):
  // a refetch by the same chip must be served from memory and keep
  // ownership consistent.
  dash_.fetch_line(1, homed(0), false, 100);  // grants E, dir says owned
  const auto r = dash_.fetch_line(1, homed(0), false, 1000);
  // Home is node 0 and the requester is node 1: remote memory supplies.
  EXPECT_EQ(r.level, ServiceLevel::kRemoteMemory);
  EXPECT_EQ(r.grant, LineState::kExclusive);
  EXPECT_EQ(dash_.directory().peek(homed(0)).owner, 1u);
}

TEST_F(DashTest, CleanOwnerSupplyFallsBackToMemory) {
  // Chip 1 owns the line clean (load-E) but invalidated it silently; chip
  // 2's fetch probes chip 1, finds nothing, and memory supplies the data.
  dash_.fetch_line(1, homed(0), false, 100);  // dir: owned by 1, not cached
  const auto r = dash_.fetch_line(2, homed(0), false, 1000);
  // The probe finds no copy at chip 1, so memory (remote to the
  // requester) supplies the data and chip 2 becomes the owner.
  EXPECT_EQ(r.level, ServiceLevel::kRemoteMemory);
  EXPECT_EQ(r.grant, LineState::kExclusive);
  EXPECT_EQ(dash_.stats().interventions, 1u);
}

TEST(DashDeath, TooManyChipsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  NocParams p;
  p.nodes = 1;
  cache::MemSysParams mp;
  ASSERT_DEATH(
      {
        DashInterconnect d(p, mp);
        cache::MemSys m0(0, mp, d);
        cache::MemSys m1(1, mp, d);
        d.attach_chip(&m0);
        d.attach_chip(&m1);
      },
      "too many");
}

TEST(DashDeath, FetchBeforeAttachAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  NocParams p;
  cache::MemSysParams mp;
  ASSERT_DEATH(
      {
        DashInterconnect d(p, mp);
        d.fetch_line(0, 0, false, 0);
      },
      "attached");
}

}  // namespace
}  // namespace csmt::noc
