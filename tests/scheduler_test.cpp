// Kernel-equivalence tests for the quiescence-aware scheduler (DESIGN.md
// §8): the skip-ahead kernel must produce bit-identical results to the
// per-cycle kernel — same RunStats, same epoch series, same trace counters,
// same timeout clamp. Comparison goes through render_json so every counter
// (including the FP slot histogram and avg_running_threads) is compared at
// full serialized precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "exec/thread_group.hpp"
#include "isa/builder.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "workloads/workload.hpp"

namespace csmt::sim {
namespace {

using isa::ProgramBuilder;

/// Serializes a result with the host-dependent speed block zeroed, so two
/// runs compare byte-for-byte on simulated state only. The spec's no_skip
/// knob is excluded from serialization (like trace_path), so skip and
/// no-skip renderings are directly comparable.
std::string stats_json(ExperimentResult r) {
  r.sim_speed = {};
  return render_json({std::move(r)});
}

/// Wraps a bare RunStats for Machine-level (non-run_experiment) tests.
std::string stats_json(const RunStats& stats) {
  ExperimentResult r;
  r.spec.workload = "direct";
  r.stats = stats;
  return stats_json(std::move(r));
}

TEST(KernelEquivalence, WorkloadGridIsBitIdentical) {
  // The ISSUE grid: {FA1, FA2, SMT2, SMT4} x {low-end, high-end} x three
  // workloads, with interval metrics on so the epoch series is covered.
  const std::vector<core::ArchKind> archs = {
      core::ArchKind::kFa1, core::ArchKind::kFa2, core::ArchKind::kSmt2,
      core::ArchKind::kSmt4};
  const std::vector<std::string> workloads = {"swim", "mgrid", "ocean"};
  for (const unsigned chips : {1u, 4u}) {
    for (const core::ArchKind arch : archs) {
      for (const std::string& wl : workloads) {
        ExperimentSpec spec;
        spec.workload = wl;
        spec.arch = arch;
        spec.chips = chips;
        spec.scale = 1;
        spec.metrics_interval = 128;

        spec.no_skip = false;
        const ExperimentResult fast = run_experiment(spec);
        spec.no_skip = true;
        const ExperimentResult slow = run_experiment(spec);

        EXPECT_TRUE(fast.validated);
        EXPECT_EQ(slow.sim_speed.quiet_cycles, 0u);
        EXPECT_EQ(stats_json(fast), stats_json(slow))
            << wl << " " << core::arch_name(arch) << " chips=" << chips;
      }
    }
  }
}

TEST(KernelEquivalence, FetchPoliciesMatchPerCycleKernel) {
  // The default rr-skip is covered above. Strict rr is the one policy whose
  // quiet spans replay cycle by cycle (its stall check rotates with the
  // fetch pointer); icount replays them in closed form like rr-skip.
  const struct {
    const char* workload;
    unsigned chips;
  } points[] = {{"swim", 1}, {"ocean", 4}};
  for (const core::FetchPolicy policy :
       {core::FetchPolicy::kRoundRobin, core::FetchPolicy::kIcount}) {
    for (const auto& pt : points) {
      ExperimentSpec spec;
      spec.workload = pt.workload;
      spec.arch = core::ArchKind::kSmt2;
      spec.chips = pt.chips;
      spec.scale = 1;
      spec.fetch_policy = policy;
      spec.metrics_interval = 128;

      spec.no_skip = false;
      const ExperimentResult fast = run_experiment(spec);
      spec.no_skip = true;
      const ExperimentResult slow = run_experiment(spec);

      EXPECT_TRUE(fast.validated);
      EXPECT_GT(fast.sim_speed.quiet_cycles, 0u);
      EXPECT_EQ(stats_json(fast), stats_json(slow))
          << pt.workload << " chips=" << pt.chips << " "
          << core::fetch_policy_name(policy);
    }
  }
}

TEST(KernelEquivalence, RunJobsMixIsBitIdentical) {
  auto run_mix = [](bool no_skip) {
    MachineConfig mc;
    mc.arch = core::arch_preset(core::ArchKind::kSmt2);
    mc.no_skip = no_skip;
    Machine machine(mc);
    const auto wla = workloads::make_workload("vpenta");
    const auto wlb = workloads::make_workload("fmm");
    mem::PagedMemory mem_a, mem_b;
    const auto ba = wla->build(mem_a, 4, 1);
    const auto bb = wlb->build(mem_b, 4, 1);
    const std::vector<Job> jobs = {
        {&ba.program, &mem_a, ba.args_base, 4},
        {&bb.program, &mem_b, bb.args_base, 4},
    };
    return machine.run(Mix{jobs});
  };
  const MultiRunStats fast = run_mix(false);
  const MultiRunStats slow = run_mix(true);
  EXPECT_EQ(fast.makespan, slow.makespan);
  EXPECT_EQ(fast.job_finish, slow.job_finish);
  EXPECT_EQ(stats_json(fast.combined), stats_json(slow.combined));
}

TEST(KernelEquivalence, DeadlockClampsToMaxCyclesExactly) {
  // Every thread arrives at a barrier expecting one participant more than
  // exists: the machine quiesces forever, the skip horizon is "never", and
  // the clamp must stop at exactly max_cycles in both kernels (satellite 6
  // semantics — the watchdog is part of the bit-identical contract).
  constexpr Cycle kWatchdog = 4096;
  auto run_deadlock = [](bool no_skip) {
    MachineConfig mc;
    mc.arch = core::arch_preset(core::ArchKind::kSmt2);
    mc.max_cycles = kWatchdog;
    mc.no_skip = no_skip;
    Machine machine(mc);
    ProgramBuilder b("deadlock");
    isa::Reg bar = b.ireg(), n = b.ireg();
    b.li(bar, 64);
    b.li(n, mc.total_threads() + 1);  // one participant too many
    b.barrier(bar, n);
    b.halt();
    mem::PagedMemory memory;
    return machine.run(Mix::single(b.take(), memory, 0, mc.total_threads()))
        .combined;
  };
  const RunStats fast = run_deadlock(false);
  const RunStats slow = run_deadlock(true);
  EXPECT_TRUE(fast.timed_out);
  EXPECT_TRUE(slow.timed_out);
  EXPECT_EQ(fast.cycles, kWatchdog);
  EXPECT_EQ(slow.cycles, kWatchdog);
  EXPECT_EQ(stats_json(fast), stats_json(slow));
}

/// Chrome-trace counter samples for `name`, in file order. Counter records
/// are single-line objects, so line filtering is sufficient.
std::vector<std::string> counter_lines(const std::string& path,
                                       const std::string& name) {
  std::ifstream in(path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"C\"") == std::string::npos) continue;
    if (line.find("\"" + name + "\"") == std::string::npos) continue;
    // Strip record separators so run/run_jobs files compare cleanly.
    if (!line.empty() && line.front() == ',') line.erase(0, 1);
    if (!line.empty() && line.back() == ',') line.pop_back();
    out.push_back(line);
  }
  return out;
}

/// A whole file's bytes.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// 1-based number of the first line where `a` and `b` differ (0 if equal).
std::size_t first_diff_line(const std::string& a, const std::string& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (ia == a.end() && ib == b.end()) return 0;
  return 1 + static_cast<std::size_t>(std::count(a.begin(), ia, '\n'));
}

TEST(KernelEquivalence, TracedPointsWriteIdenticalFiles) {
  // The scale-1 paper-grid points where a thread's run/sync/stall/halt
  // state flips on a cycle the skip kernel replays through the quiet path.
  // The whole trace file, event order included, must be the per-cycle
  // kernel's.
  using core::ArchKind;
  const struct {
    const char* workload;
    ArchKind arch;
    unsigned chips;
  } points[] = {
      {"swim", ArchKind::kSmt2, 4},    {"swim", ArchKind::kSmt4, 4},
      {"tomcatv", ArchKind::kSmt1, 4}, {"tomcatv", ArchKind::kSmt2, 4},
      {"tomcatv", ArchKind::kSmt4, 4}, {"mgrid", ArchKind::kFa8, 1},
      {"mgrid", ArchKind::kFa8, 4},    {"mgrid", ArchKind::kSmt4, 1},
      {"ocean", ArchKind::kSmt1, 1},   {"ocean", ArchKind::kSmt1, 4},
      {"ocean", ArchKind::kSmt2, 1},
  };
  const std::string skip_path = ::testing::TempDir() + "csmt_point_skip.json";
  const std::string slow_path = ::testing::TempDir() + "csmt_point_slow.json";
  for (const auto& pt : points) {
    ExperimentSpec spec;
    spec.workload = pt.workload;
    spec.arch = pt.arch;
    spec.chips = pt.chips;
    spec.scale = 1;
    spec.trace_path = skip_path;
    const ExperimentResult fast = run_experiment(spec);
    spec.trace_path = slow_path;
    spec.no_skip = true;
    run_experiment(spec);
    EXPECT_GT(fast.sim_speed.quiet_cycles, 0u);

    const std::string skip = read_file(skip_path);
    const std::string slow = read_file(slow_path);
    EXPECT_FALSE(skip.empty());
    EXPECT_EQ(first_diff_line(skip, slow), 0u)
        << pt.workload << "/" << core::arch_name(pt.arch) << "/x" << pt.chips;
  }
  std::remove(skip_path.c_str());
  std::remove(slow_path.c_str());
}

TEST(KernelEquivalence, RunJobsTracesRunningThreadsLikeRun) {
  // Single-job mixes and Mix::single share one scheduler loop, so a
  // single-job mix must emit the exact running_threads counter series a
  // plain run of the same program does.
  ProgramBuilder b("loop");
  isa::Reg r = b.ireg(), i = b.ireg(), n = b.ireg();
  b.li(r, 1);
  b.li(n, 300);
  b.for_range(i, 0, n, 1, [&] { b.add(r, r, r); });
  b.halt();
  const isa::Program p = b.take();

  MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kFa2);

  const std::string run_path = ::testing::TempDir() + "csmt_run_trace.json";
  {
    obs::ChromeTraceWriter writer(run_path);
    ASSERT_TRUE(writer.ok());
    MachineConfig traced = mc;
    traced.trace = &writer;
    Machine machine(traced);
    mem::PagedMemory memory;
    machine.run(Mix::single(p, memory, 0, traced.total_threads()));
    writer.finish();
  }

  const std::string jobs_path = ::testing::TempDir() + "csmt_jobs_trace.json";
  {
    obs::ChromeTraceWriter writer(jobs_path);
    ASSERT_TRUE(writer.ok());
    MachineConfig traced = mc;
    traced.trace = &writer;
    Machine machine(traced);
    mem::PagedMemory memory;
    machine.run(Mix{{{&p, &memory, 0, traced.total_threads()}}});
    writer.finish();
  }

  const auto from_run = counter_lines(run_path, "running_threads");
  const auto from_jobs = counter_lines(jobs_path, "running_threads");
  EXPECT_FALSE(from_run.empty());
  EXPECT_EQ(from_run, from_jobs);
}

/// The component-granular quiescence target (DESIGN.md §14): one
/// long-running thread, `busy_tid`, keeps the machine busy while the other
/// seven — each alone on its own FA2 cluster across four chips — sit
/// blocked at a barrier. Machine-level skip never fires on such a span
/// (some cluster is always active); per-cluster sleep must, and every
/// artifact must stay bit-identical across skip and no-skip. The busy
/// thread's final arrival releases the sleepers inside its chip's tick, so
/// where it runs picks the wake order.
void check_asymmetric_mix(std::uint64_t busy_tid) {
  constexpr unsigned kChips = 4;
  MachineConfig base;
  base.arch = core::arch_preset(core::ArchKind::kFa2);
  base.chips = kChips;
  base.metrics_interval = 128;

  ProgramBuilder b("asym");
  isa::Reg bar = b.ireg(), n = b.ireg(), r = b.ireg(), i = b.ireg(),
           cnt = b.ireg(), busy = b.ireg();
  const isa::Label join = b.new_label();
  b.li(bar, 64);
  b.li(n, base.total_threads());
  b.li(busy, static_cast<std::int64_t>(busy_tid));
  b.bne(b.tid(), busy, join);  // every other tid: straight to the barrier
  b.li(r, 1);
  b.li(cnt, 600);
  b.for_range(i, 0, cnt, 1, [&] { b.add(r, r, r); });
  b.bind(join);
  b.barrier(bar, n);
  b.halt();
  const isa::Program p = b.take();

  auto run_once = [&](bool no_skip, std::uint64_t* lazy = nullptr) {
    MachineConfig mc = base;
    mc.no_skip = no_skip;
    Machine machine(mc);
    mem::PagedMemory memory;
    const RunStats out =
        machine.run(Mix::single(p, memory, 0, mc.total_threads())).combined;
    if (lazy) *lazy = machine.cluster_quiet_cycles();
    return out;
  };

  std::uint64_t lazy = 0;
  const RunStats ref = run_once(false, &lazy);
  // The blocked clusters actually slept while the machine stayed busy.
  EXPECT_GT(lazy, 0u);
  const RunStats noskip = run_once(true);
  EXPECT_EQ(stats_json(ref), stats_json(noskip));

  // Trace leg: tracing disables lazy sleep (wake-time replay would emit
  // events out of timestamp order), and the counter series must match the
  // per-cycle kernel's exactly.
  auto traced = [&](bool no_skip, const std::string& path) {
    obs::ChromeTraceWriter writer(path);
    ASSERT_TRUE(writer.ok());
    MachineConfig mc = base;
    mc.no_skip = no_skip;
    mc.trace = &writer;
    Machine machine(mc);
    mem::PagedMemory memory;
    machine.run(Mix::single(p, memory, 0, mc.total_threads()));
    writer.finish();
  };
  const std::string skip_path = ::testing::TempDir() + "csmt_asym_skip.json";
  const std::string slow_path = ::testing::TempDir() + "csmt_asym_slow.json";
  traced(false, skip_path);
  traced(true, slow_path);
  const auto from_skip = counter_lines(skip_path, "running_threads");
  const auto from_slow = counter_lines(slow_path, "running_threads");
  EXPECT_FALSE(from_skip.empty());
  EXPECT_EQ(from_skip, from_slow);
}

TEST(KernelEquivalence, AsymmetricMixSleepsClustersBitIdentically) {
  // Busy tid 0 (chip 0): its release wakes sleepers on chips 1-3 in the
  // same cycle and its chip-0 neighbour in place.
  check_asymmetric_mix(0);
}

TEST(KernelEquivalence, AsymmetricMixLastChipReleaseWakesNextCycle) {
  // Busy tid 7 (chip 3, the last cluster): every sleeper ticked before the
  // release, on an earlier chip or an earlier cluster, so all of them wake
  // at the top of the next cycle.
  check_asymmetric_mix(7);
}

TEST(Scheduler, QuietCyclesEngageOnSyncHeavyPoints) {
  // The skip path must actually fire where it matters: a high-end sync-
  // heavy point spends a measurable fraction of cycles quiescent.
  ExperimentSpec spec;
  spec.workload = "ocean";
  spec.arch = core::ArchKind::kSmt2;
  spec.chips = 4;
  spec.scale = 1;
  const ExperimentResult r = run_experiment(spec);
  EXPECT_TRUE(r.validated);
  EXPECT_GT(r.sim_speed.quiet_cycles, 0u);
  EXPECT_GT(r.sim_speed.quiet_fraction(), 0.0);
  EXPECT_LT(r.sim_speed.quiet_fraction(), 1.0);
}

}  // namespace
}  // namespace csmt::sim
