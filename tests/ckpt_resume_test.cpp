// Kill-and-resume gate for csmt::ckpt (DESIGN.md §10): a run that is
// interrupted mid-flight and resumed from its checkpoint must produce
// RunStats — every counter, double, and epoch sample — bit-identical to the
// same run executed uninterrupted, across the paper grid and under both
// simulation kernels (idle-skipping and --no-skip). The "kill" is a
// watchdog abort halfway through the reference run's cycle count: like
// SIGKILL it leaves only the on-disk checkpoint behind, but it does so at a
// deterministic cycle, which keeps the test hermetic.
//
// Also covers the sweep integration end to end: a planted checkpoint makes
// the sweep resume that point, count it in SweepCounters::resumed, record
// resumed_from_cycle in the cached JSON, and delete the checkpoint once the
// point completes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sweep/sweep.hpp"
#include "workloads/workload.hpp"

namespace csmt::sim {
namespace {

namespace fs = std::filesystem;

void expect_slots_equal(const core::SlotStats& a, const core::SlotStats& b,
                        const std::string& where) {
  for (std::size_t i = 0; i < core::kNumSlots; ++i) {
    EXPECT_EQ(a.slots[i], b.slots[i])
        << where << " slot[" << core::slot_name(static_cast<core::Slot>(i))
        << "]";
  }
}

void expect_epoch_counters_equal(const obs::EpochCounters& a,
                                 const obs::EpochCounters& b,
                                 const std::string& where) {
  EXPECT_EQ(a.committed_useful, b.committed_useful) << where;
  EXPECT_EQ(a.committed_sync, b.committed_sync) << where;
  EXPECT_EQ(a.fetched, b.fetched) << where;
  expect_slots_equal(a.slots, b.slots, where);
  EXPECT_EQ(a.loads, b.loads) << where;
  EXPECT_EQ(a.stores, b.stores) << where;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << where;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << where;
  EXPECT_EQ(a.tlb_misses, b.tlb_misses) << where;
  EXPECT_EQ(a.bank_rejections, b.bank_rejections) << where;
  EXPECT_EQ(a.mshr_rejections, b.mshr_rejections) << where;
}

void expect_stats_equal(const RunStats& a, const RunStats& b,
                        const std::string& where) {
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.timed_out, b.timed_out) << where;
  EXPECT_EQ(a.committed_useful, b.committed_useful) << where;
  EXPECT_EQ(a.committed_sync, b.committed_sync) << where;
  EXPECT_EQ(a.fetched, b.fetched) << where;
  // Doubles compare with EXPECT_EQ on purpose: the contract is bit
  // identity, not tolerance.
  EXPECT_EQ(a.avg_running_threads, b.avg_running_threads) << where;
  expect_slots_equal(a.slots, b.slots, where);

  EXPECT_EQ(a.predictor.cond_lookups, b.predictor.cond_lookups) << where;
  EXPECT_EQ(a.predictor.cond_mispredicts, b.predictor.cond_mispredicts)
      << where;
  EXPECT_EQ(a.predictor.btb_misses, b.predictor.btb_misses) << where;

  EXPECT_EQ(a.mem.loads, b.mem.loads) << where;
  EXPECT_EQ(a.mem.stores, b.mem.stores) << where;
  for (std::size_t i = 0; i < a.mem.by_level.size(); ++i) {
    EXPECT_EQ(a.mem.by_level[i], b.mem.by_level[i])
        << where << " by_level[" << i << "]";
  }
  EXPECT_EQ(a.mem.bank_rejections, b.mem.bank_rejections) << where;
  EXPECT_EQ(a.mem.mshr_rejections, b.mem.mshr_rejections) << where;
  EXPECT_EQ(a.mem.upgrades, b.mem.upgrades) << where;
  EXPECT_EQ(a.mem.l1_cross_invalidations, b.mem.l1_cross_invalidations)
      << where;
  EXPECT_EQ(a.mem.l1_miss_rate, b.mem.l1_miss_rate) << where;
  EXPECT_EQ(a.mem.l2_miss_rate, b.mem.l2_miss_rate) << where;
  EXPECT_EQ(a.mem.tlb_miss_rate, b.mem.tlb_miss_rate) << where;

  ASSERT_EQ(a.dash.has_value(), b.dash.has_value()) << where;
  if (a.dash) {
    EXPECT_EQ(a.dash->fetches, b.dash->fetches) << where;
    EXPECT_EQ(a.dash->remote_fetches, b.dash->remote_fetches) << where;
    EXPECT_EQ(a.dash->interventions, b.dash->interventions) << where;
    EXPECT_EQ(a.dash->dirty_remote_supplies, b.dash->dirty_remote_supplies)
        << where;
    EXPECT_EQ(a.dash->invalidations_sent, b.dash->invalidations_sent)
        << where;
    EXPECT_EQ(a.dash->upgrades, b.dash->upgrades) << where;
    EXPECT_EQ(a.dash->writebacks, b.dash->writebacks) << where;
  }

  ASSERT_EQ(a.epochs.size(), b.epochs.size()) << where;
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    const std::string ep = where + " epoch[" + std::to_string(e) + "]";
    EXPECT_EQ(a.epochs[e].begin, b.epochs[e].begin) << ep;
    EXPECT_EQ(a.epochs[e].end, b.epochs[e].end) << ep;
    EXPECT_EQ(a.epochs[e].avg_running_threads, b.epochs[e].avg_running_threads)
        << ep;
    expect_epoch_counters_equal(a.epochs[e].counters, b.epochs[e].counters,
                                ep);
  }
}

/// Runs `spec` with the watchdog set to abort at `max_cycles`, taking
/// checkpoints to `path` every `interval` cycles. The abort stands in for a
/// kill: the partial run's counters are discarded and only the checkpoint
/// file survives.
RunStats run_killed(const ExperimentSpec& spec, Cycle max_cycles,
                    Cycle interval, const std::string& path,
                    std::uint64_t tag) {
  MachineConfig mc;
  mc.arch = core::arch_preset(spec.arch);
  mc.chips = spec.chips;
  mc.metrics_interval = spec.metrics_interval;
  mc.no_skip = spec.no_skip;
  mc.max_cycles = max_cycles;
  mc.ckpt_interval = interval;
  mc.ckpt_path = path;
  mc.ckpt_spec_hash = tag;
  Machine machine(mc);
  const auto wl = workloads::make_workload(spec.workload);
  mem::PagedMemory memory;
  const workloads::WorkloadBuild build =
      wl->build(memory, mc.total_threads(), spec.scale);
  return machine
      .run(Mix::single(build.program, memory, build.args_base,
                       mc.total_threads()))
      .combined;
}

constexpr std::uint64_t kTag = 0x5EED;

TEST(CkptResume, KilledRunResumesBitIdenticalAcrossGrid) {
  const std::vector<core::ArchKind> archs = {
      core::ArchKind::kFa1, core::ArchKind::kFa2, core::ArchKind::kSmt2,
      core::ArchKind::kSmt4};
  const std::vector<std::string> workloads = {"swim", "mgrid", "ocean"};
  unsigned combo = 0;
  for (const bool no_skip : {false, true}) {
    for (const unsigned chips : {1u, 4u}) {
      for (const core::ArchKind arch : archs) {
        for (const std::string& wl : workloads) {
          ExperimentSpec spec;
          spec.workload = wl;
          spec.arch = arch;
          spec.chips = chips;
          spec.scale = 1;
          spec.metrics_interval = 128;  // the epoch series must resume too
          spec.no_skip = no_skip;
          const std::string where =
              wl + "/" + core::arch_name(arch) + "/chips=" +
              std::to_string(chips) + (no_skip ? "/no_skip" : "/skip");

          // Leg A: the uninterrupted reference.
          const ExperimentResult ref = run_experiment(spec);
          ASSERT_FALSE(ref.stats.timed_out) << where;
          ASSERT_GT(ref.stats.cycles, 8u) << where;
          EXPECT_EQ(ref.resumed_from_cycle, 0u) << where;

          const std::string path =
              (fs::path(::testing::TempDir()) /
               ("resume-" + std::to_string(combo++) + ".ckpt"))
                  .string();
          fs::remove(path);

          // Leg B: killed halfway; at least one snapshot precedes the kill.
          const Cycle interval = std::max<Cycle>(ref.stats.cycles / 4, 1);
          const RunStats partial =
              run_killed(spec, ref.stats.cycles / 2, interval, path, kTag);
          ASSERT_TRUE(partial.timed_out) << where;
          ASSERT_TRUE(fs::exists(path)) << where;

          // Leg C: resume to completion; stats must match leg A exactly.
          ExperimentSpec resume = spec;
          resume.ckpt_interval = interval;
          resume.ckpt_path = path;
          resume.ckpt_tag = kTag;
          const ExperimentResult resumed = run_experiment(resume);
          ASSERT_GT(resumed.resumed_from_cycle, 0u) << where;
          EXPECT_LE(resumed.resumed_from_cycle, ref.stats.cycles / 2) << where;
          EXPECT_TRUE(resumed.validated) << where;
          expect_stats_equal(resumed.stats, ref.stats, where);
          fs::remove(path);
        }
      }
    }
  }
}

// Regression: the low-end memory controller's occupancy horizon
// (LocalMemoryBackend::busy_until_) is part of the snapshot. A checkpoint
// taken while the channel is backed up — easy to hit at larger scales,
// where the miss stream keeps the controller saturated — used to restore
// with an instantly-free channel, so post-resume misses completed early
// and the run drifted off the reference ~one memory round-trip later.
TEST(CkptResume, ResumeUnderMemoryChannelBacklogIsBitIdentical) {
  ExperimentSpec spec;
  spec.workload = "swim";
  spec.arch = core::ArchKind::kSmt2;
  spec.chips = 1;
  spec.scale = 6;
  const ExperimentResult ref = run_experiment(spec);
  ASSERT_FALSE(ref.stats.timed_out);

  const std::string path =
      (fs::path(::testing::TempDir()) / "membacklog.ckpt").string();
  fs::remove(path);
  // Snapshot at cycle 10000 (inside swim's initialization bursts, where the
  // controller runs a multi-cycle backlog), kill shortly after.
  const Cycle interval = 10000;
  const RunStats partial = run_killed(spec, 20000, interval, path, kTag);
  ASSERT_TRUE(partial.timed_out);
  ASSERT_TRUE(fs::exists(path));

  ExperimentSpec resume = spec;
  resume.ckpt_interval = interval;
  resume.ckpt_path = path;
  resume.ckpt_tag = kTag;
  const ExperimentResult resumed = run_experiment(resume);
  ASSERT_GT(resumed.resumed_from_cycle, 0u);
  EXPECT_TRUE(resumed.validated);
  expect_stats_equal(resumed.stats, ref.stats, "memory-channel backlog");
  fs::remove(path);
}

TEST(CkptResume, ForeignOrCorruptCheckpointIsIgnoredNotFatal) {
  ExperimentSpec spec;
  spec.workload = "swim";
  spec.arch = core::ArchKind::kSmt4;
  spec.chips = 1;
  spec.scale = 1;
  const ExperimentResult ref = run_experiment(spec);
  ASSERT_FALSE(ref.stats.timed_out);

  const std::string path =
      (fs::path(::testing::TempDir()) / "foreign.ckpt").string();
  const Cycle interval = std::max<Cycle>(ref.stats.cycles / 4, 1);
  run_killed(spec, ref.stats.cycles / 2, interval, path, kTag);
  ASSERT_TRUE(fs::exists(path));

  // Wrong identity tag: the checkpoint belongs to some other run, so the
  // machine starts fresh — and still produces the reference stats.
  ExperimentSpec other = spec;
  other.ckpt_interval = interval;
  other.ckpt_path = path;
  other.ckpt_tag = kTag + 1;
  const ExperimentResult fresh = run_experiment(other);
  EXPECT_EQ(fresh.resumed_from_cycle, 0u);
  expect_stats_equal(fresh.stats, ref.stats, "foreign tag");

  // Corrupt the (freshly rewritten) checkpoint: flip one payload byte.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  ExperimentSpec corrupt = spec;
  corrupt.ckpt_interval = interval;
  corrupt.ckpt_path = path;
  corrupt.ckpt_tag = kTag + 1;
  const ExperimentResult recovered = run_experiment(corrupt);
  EXPECT_EQ(recovered.resumed_from_cycle, 0u);
  expect_stats_equal(recovered.stats, ref.stats, "corrupt file");
  fs::remove(path);
}

TEST(CkptResume, SweepResumesCountsAndCleansUp) {
  const std::string cache_dir =
      (fs::path(::testing::TempDir()) / "ckpt-sweep-cache").string();
  fs::remove_all(cache_dir);

  ExperimentSpec spec;
  spec.workload = "swim";
  spec.arch = core::ArchKind::kSmt2;
  spec.chips = 1;
  spec.scale = 1;
  const ExperimentResult ref = run_experiment(spec);
  ASSERT_FALSE(ref.stats.timed_out);

  // Plant a checkpoint exactly where the sweep will look for this point.
  const std::uint64_t hash = sweep::spec_hash(spec);
  char name[64];
  std::snprintf(name, sizeof name, "csmt-%016llx.ckpt",
                static_cast<unsigned long long>(hash));
  const std::string ckpt_path =
      (fs::path(cache_dir) / "ckpt" / name).string();
  const Cycle interval = std::max<Cycle>(ref.stats.cycles / 4, 1);
  run_killed(spec, ref.stats.cycles / 2, interval, ckpt_path, hash);
  ASSERT_TRUE(fs::exists(ckpt_path));

  sweep::SweepOptions options;
  options.cache_dir = cache_dir;
  options.ckpt_interval = interval;
  options.progress = false;
  sweep::SweepRunner runner(options);
  const auto results = runner.run(std::vector<ExperimentSpec>{spec});
  ASSERT_EQ(results.size(), 1u);

  // The point resumed from the planted checkpoint, is counted as such,
  // matches the uninterrupted reference, and its checkpoint is gone (the
  // cache entry supersedes it).
  EXPECT_GT(results[0].resumed_from_cycle, 0u);
  EXPECT_EQ(runner.counters().resumed, 1u);
  EXPECT_EQ(runner.counters().executed, 1u);
  expect_stats_equal(results[0].stats, ref.stats, "sweep resume");
  EXPECT_FALSE(fs::exists(ckpt_path));

  // The cached JSON preserves resumed_from_cycle: a second runner serves
  // the point from cache without touching a machine.
  sweep::SweepRunner second(options);
  const auto again = second.run(std::vector<ExperimentSpec>{spec});
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(second.counters().cache_hits, 1u);
  EXPECT_EQ(second.counters().resumed, 0u);
  EXPECT_GT(again[0].resumed_from_cycle, 0u);
  expect_stats_equal(again[0].stats, ref.stats, "sweep cache");
  fs::remove_all(cache_dir);
}

TEST(CkptResume, EnvIntervalValidation) {
  setenv("CSMT_CKPT_INTERVAL", "4096", 1);
  EXPECT_EQ(sweep::SweepOptions::from_env().ckpt_interval, 4096u);
  setenv("CSMT_CKPT_INTERVAL", "not-a-number", 1);
  EXPECT_EQ(sweep::SweepOptions::from_env().ckpt_interval, 0u);
  setenv("CSMT_CKPT_INTERVAL", "0", 1);
  EXPECT_EQ(sweep::SweepOptions::from_env().ckpt_interval, 0u);
  setenv("CSMT_CKPT_INTERVAL", "12cycles", 1);
  EXPECT_EQ(sweep::SweepOptions::from_env().ckpt_interval, 0u);
  unsetenv("CSMT_CKPT_INTERVAL");
  EXPECT_EQ(sweep::SweepOptions::from_env().ckpt_interval, 0u);
}

}  // namespace
}  // namespace csmt::sim
