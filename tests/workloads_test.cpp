// Workload tests: every application validates against its host reference
// both functionally (fast interpreter-only runs, parameterized over thread
// counts and scales) and through the full timing machine; builds are
// deterministic; partitioning covers the whole domain.
#include <gtest/gtest.h>

#include "exec/thread_group.hpp"
#include "sim/experiment.hpp"
#include "workloads/util.hpp"
#include "workloads/workload.hpp"

namespace csmt::workloads {
namespace {

/// Functional-only execution: round-robin steps skipping blocked threads.
bool run_functional(const isa::Program& p, mem::PagedMemory& memory,
                    unsigned nthreads, Addr args) {
  exec::ThreadGroup g(p, memory, nthreads, args);
  exec::DynInst d;
  std::uint64_t guard = 0;
  while (!g.all_done() && guard < 500'000'000) {
    for (unsigned t = 0; t < g.size(); ++t) {
      auto& tc = g.thread(t);
      if (!tc.done() && !tc.sync_blocked()) {
        tc.step(d);
        ++guard;
      }
    }
  }
  return g.all_done();
}

struct Combo {
  std::string workload;
  unsigned nthreads;
  unsigned scale;
};

class WorkloadFunctionalTest : public ::testing::TestWithParam<Combo> {};

TEST_P(WorkloadFunctionalTest, HostReferenceMatches) {
  const Combo c = GetParam();
  const auto wl = make_workload(c.workload);
  mem::PagedMemory memory;
  const WorkloadBuild build = wl->build(memory, c.nthreads, c.scale);
  ASSERT_FALSE(build.program.empty());
  ASSERT_TRUE(run_functional(build.program, memory, c.nthreads,
                             build.args_base));
  EXPECT_TRUE(wl->validate(memory, build, c.nthreads, c.scale));
}

std::vector<Combo> all_combos() {
  std::vector<Combo> out;
  for (const std::string& w : workload_names()) {
    for (const unsigned nt : {1u, 2u, 3u, 8u}) {
      out.push_back({w, nt, 1});
    }
    out.push_back({w, 8, 2});
    out.push_back({w, 32, 1});  // the high-end thread count
  }
  return out;
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  return info.param.workload + "_t" + std::to_string(info.param.nthreads) +
         "_s" + std::to_string(info.param.scale);
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadFunctionalTest,
                         ::testing::ValuesIn(all_combos()), combo_name);

class WorkloadTimingTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTimingTest, ValidatesThroughTheTimingMachine) {
  sim::ExperimentSpec spec;
  spec.workload = GetParam();
  spec.arch = core::ArchKind::kSmt2;
  spec.scale = 1;
  const auto r = sim::run_experiment(spec);
  EXPECT_TRUE(r.validated);
  EXPECT_FALSE(r.stats.timed_out);
  EXPECT_GT(r.stats.useful_ipc(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadTimingTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

class WorkloadHighEndTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadHighEndTest, ValidatesOnFourChips) {
  sim::ExperimentSpec spec;
  spec.workload = GetParam();
  spec.arch = core::ArchKind::kSmt2;
  spec.chips = 4;
  spec.scale = 1;
  const auto r = sim::run_experiment(spec);
  EXPECT_TRUE(r.validated);
  EXPECT_TRUE(r.stats.dash.has_value());
  // Coherence activity must actually happen on a shared-memory app.
  EXPECT_GT(r.stats.dash->fetches, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadHighEndTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

TEST(WorkloadRegistry, NamesAndFactoriesAgree) {
  auto names = workload_names();
  EXPECT_EQ(names.size(), 6u);
  for (const std::string& n : micro_kernel_names()) names.push_back(n);
  for (const std::string& n : names) {
    const auto wl = make_workload(n);
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->name(), n);
  }
}

TEST(WorkloadRegistryDeath, UnknownNameAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH({ make_workload("nonsuch"); }, "unknown workload");
}

TEST(WorkloadBuilds, AreDeterministic) {
  for (const std::string& n : workload_names()) {
    const auto wl = make_workload(n);
    mem::PagedMemory m1, m2;
    const auto b1 = wl->build(m1, 4, 1);
    const auto b2 = wl->build(m2, 4, 1);
    ASSERT_EQ(b1.program.size(), b2.program.size()) << n;
    for (std::size_t i = 0; i < b1.program.size(); ++i) {
      const isa::Inst &x = b1.program.at(i), &y = b2.program.at(i);
      ASSERT_TRUE(x.op == y.op && x.rd == y.rd && x.rs1 == y.rs1 &&
                  x.rs2 == y.rs2 && x.imm == y.imm &&
                  x.sync_tag == y.sync_tag)
          << n << " differs at " << i;
    }
    EXPECT_EQ(b1.args_base, b2.args_base);
  }
}

TEST(WorkloadBuilds, ContainSynchronization) {
  // Every paper application synchronizes (barriers at minimum).
  for (const std::string& n : workload_names()) {
    const auto wl = make_workload(n);
    mem::PagedMemory m;
    const auto b = wl->build(m, 8, 1);
    unsigned sync_insts = 0;
    for (const auto& inst : b.program.code()) sync_insts += inst.sync_tag;
    EXPECT_GT(sync_insts, 0u) << n;
  }
}

// ---------- micro-kernels --------------------------------------------------

/// The word each micro-kernel's validate() checks first: the Table 3
/// rings' final pointer, A4's first element, thread 0's chase end and
/// thread 0's loop count.
Addr result_word(const std::string& name, const mem::PagedMemory& memory,
                 const WorkloadBuild& b) {
  if (name.rfind("ring-", 0) == 0) return b.args_base + 16;
  if (name.rfind("barrier-", 0) == 0) return memory.read(b.args_base + 8);
  if (name == "chase") return b.args_base - 8;
  return b.args_base + 128;  // cluster-idle
}

/// A scale that keeps each micro-kernel's run short.
unsigned small_scale(const std::string& name) {
  return name == "chase" || name == "cluster-idle" ? 64 : 1;
}

class MicroKernelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MicroKernelTest, ValidatesAfterARunAndNotAfterItsResultFlips) {
  const std::string& name = GetParam();
  const auto wl = make_workload(name);
  EXPECT_EQ(wl->name(), name);
  const unsigned scale = small_scale(name);
  mem::PagedMemory memory;
  const WorkloadBuild build = wl->build(memory, 4, scale);
  ASSERT_TRUE(run_functional(build.program, memory, 4, build.args_base));
  EXPECT_TRUE(wl->validate(memory, build, 4, scale));
  const Addr word = result_word(name, memory, build);
  memory.write(word, memory.read(word) ^ 1);
  EXPECT_FALSE(wl->validate(memory, build, 4, scale));
}

TEST_P(MicroKernelTest, ValidatesThroughTheTimingMachine) {
  sim::ExperimentSpec spec;
  spec.workload = GetParam();
  spec.arch = core::ArchKind::kFa2;
  spec.scale = small_scale(spec.workload);
  const auto r = sim::run_experiment(spec);
  EXPECT_TRUE(r.validated);
  EXPECT_TRUE(r.job_finish.empty());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, MicroKernelTest,
                         ::testing::ValuesIn(micro_kernel_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) c = c == '-' ? '_' : c;
                           return n;
                         });

// ---------- workload names: mixes -------------------------------------------

TEST(SplitContexts, PlainNameIsOneJobOnEveryContext) {
  std::string why;
  const auto jobs = split_contexts("swim", 8, &why);
  ASSERT_EQ(jobs.size(), 1u) << why;
  EXPECT_EQ(jobs[0].workload, "swim");
  EXPECT_EQ(jobs[0].threads, 8u);
}

TEST(SplitContexts, MixSplitsEvenlyOrByWeight) {
  std::string why;
  auto jobs = split_contexts("swim+ocean", 8, &why);
  ASSERT_EQ(jobs.size(), 2u) << why;
  EXPECT_EQ(jobs[0].workload, "swim");
  EXPECT_EQ(jobs[0].threads, 4u);
  EXPECT_EQ(jobs[1].workload, "ocean");
  EXPECT_EQ(jobs[1].threads, 4u);

  jobs = split_contexts("tomcatv*2+mgrid*6", 8, &why);
  ASSERT_EQ(jobs.size(), 2u) << why;
  EXPECT_EQ(jobs[0].threads, 2u);
  EXPECT_EQ(jobs[1].threads, 6u);

  // Weights are relative, and a name may repeat.
  jobs = split_contexts("tomcatv+mgrid*3", 32, &why);
  ASSERT_EQ(jobs.size(), 2u) << why;
  EXPECT_EQ(jobs[0].threads, 8u);
  EXPECT_EQ(jobs[1].threads, 24u);
  jobs = split_contexts("fmm+fmm+chase*2", 8, &why);
  ASSERT_EQ(jobs.size(), 3u) << why;
  EXPECT_EQ(jobs[2].workload, "chase");
  EXPECT_EQ(jobs[2].threads, 4u);
}

TEST(SplitContexts, RejectsFractionalAndZeroShares) {
  // FA2 has two contexts: a 2/8 share is half a context.
  std::string why;
  EXPECT_TRUE(split_contexts("tomcatv*2+mgrid*6", 2, &why).empty());
  EXPECT_EQ(why,
            "tomcatv's 2/8 share of 2 contexts is not a whole, nonzero "
            "number of contexts");
  why.clear();
  EXPECT_TRUE(split_contexts("swim+ocean", 1, &why).empty());
  EXPECT_FALSE(why.empty());
  why.clear();
  EXPECT_TRUE(split_contexts("swim", 0, &why).empty());
  EXPECT_FALSE(why.empty());
}

TEST(SplitContexts, RejectsMalformedNames) {
  for (const char* name :
       {"", "+", "swim+", "+swim", "swim++ocean", "swim*", "swim*0",
        "swim*-1", "swim*2x", "swim**2", "swim*1.5", "nonsuch",
        "swim+nonsuch", "swim ocean", "swim*99999999999"}) {
    std::string why;
    EXPECT_TRUE(split_contexts(name, 8, &why).empty()) << "'" << name << "'";
    EXPECT_FALSE(why.empty()) << "'" << name << "'";
  }
}

// ---------- util helpers ---------------------------------------------------

TEST(Partition, CoversDomainWithoutOverlap) {
  // Execute the emitted partition code for every (n, nthreads) pair and
  // check the chunks tile [0, n).
  for (const unsigned n : {1u, 7u, 8u, 62u, 100u}) {
    for (const unsigned nt : {1u, 2u, 3u, 8u, 32u}) {
      std::vector<int> hits(n, 0);
      for (unsigned tid = 0; tid < nt; ++tid) {
        isa::ProgramBuilder b("p");
        isa::Reg nn = b.ireg(), lo = b.ireg(), hi = b.ireg();
        b.li(nn, n);
        emit_partition(b, nn, lo, hi);
        b.halt();
        mem::PagedMemory memory;
        const isa::Program p = b.take();
        exec::ThreadContext tc(tid, p, memory, tid, nt, 0);
        exec::DynInst d;
        while (tc.step(d)) {
        }
        const auto l = static_cast<std::int64_t>(tc.ireg(lo.idx));
        const auto h = static_cast<std::int64_t>(tc.ireg(hi.idx));
        for (std::int64_t k = l; k < h && k < n; ++k) ++hits[k];
      }
      for (unsigned k = 0; k < n; ++k) {
        EXPECT_EQ(hits[k], 1) << "n=" << n << " nt=" << nt << " k=" << k;
      }
    }
  }
}

TEST(FillDoubles, HostAndMemoryAgree) {
  mem::PagedMemory m;
  fill_doubles(m, 4096, 32, -1.0, 1.0);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(m.read_double(4096 + 8 * i), fill_value(i, -1.0, 1.0));
    EXPECT_GE(fill_value(i, -1.0, 1.0), -1.0);
    EXPECT_LT(fill_value(i, -1.0, 1.0), 1.0);
  }
}

TEST(ChecksumEpilogue, HostMirrorsEmittedOrder) {
  // The emitted epilogue and the host mirror must agree bit-for-bit for
  // every thread count.
  const std::size_t count = 40;
  std::vector<double> data(count * 2);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = fill_value(i, 0.0, 1.0);
  for (const unsigned nt : {1u, 3u, 8u}) {
    mem::PagedMemory memory;
    mem::SimAlloc alloc;
    const Addr args = alloc.alloc_words(4, 64);
    const Addr bar = alloc.alloc_sync_line();
    const Addr arr = alloc.alloc_words(data.size(), 64);
    const Addr partials = alloc.alloc_words(nt, 64);
    for (std::size_t i = 0; i < data.size(); ++i)
      memory.write_double(arr + 8 * i, data[i]);
    memory.write(args + 0, bar);
    memory.write(args + 8, arr);
    memory.write(args + 16, partials);
    memory.write_double(args + 24, 0.5);  // pre-seeded checksum slot

    isa::ProgramBuilder b("ck");
    isa::Reg barr = b.ireg(), base = b.ireg(), parts = b.ireg();
    b.ld(barr, isa::ProgramBuilder::args(), 0);
    b.ld(base, isa::ProgramBuilder::args(), 8);
    b.ld(parts, isa::ProgramBuilder::args(), 16);
    emit_checksum_epilogue(b, {base}, count, 2, parts, barr, 3);
    b.halt();
    const isa::Program p = b.take();
    ASSERT_TRUE(run_functional(p, memory, nt, args));

    const double expect = host_checksum_epilogue({&data}, count, 2, nt, 0.5);
    EXPECT_EQ(memory.read_double(args + 24), expect) << "nt=" << nt;
  }
}

}  // namespace
}  // namespace csmt::workloads
