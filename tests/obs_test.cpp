// Unit tests for csmt::obs: Chrome trace writer output stability, phase
// profiling, the no-perturbation contract (tracing and the phase profiler
// must not change RunStats), and the JSON round trip of SimSpeed.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "isa/builder.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"

namespace csmt {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- ChromeTraceWriter ---------------------------------------------------

TEST(ChromeTraceWriter, GoldenOutputIsStable) {
  // The writer's byte-level format is a compatibility surface: Perfetto and
  // chrome://tracing parse it, and this golden string pins it down.
  const std::string path = temp_path("csmt_obs_golden_trace.json");
  {
    obs::ChromeTraceWriter w(path);
    ASSERT_TRUE(w.ok());
    w.name_process(obs::kChipPidBase, "chip 0");
    w.name_track({obs::kChipPidBase, 0}, "cluster 0 pipeline");
    w.instant({obs::kChipPidBase, 0}, "fetch", 5, 3);
    w.complete({obs::kChipPidBase, obs::kThreadTidBase}, "run", 0, 10);
    w.counter({0, 0}, "running_threads", 7, 8);
    w.finish();
    EXPECT_EQ(w.events_written(), 5u);
  }
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"chip 0\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"cluster 0 pipeline\"}},\n"
      "{\"name\":\"fetch\",\"ph\":\"i\",\"s\":\"t\",\"ts\":5,\"pid\":1,"
      "\"tid\":0,\"args\":{\"n\":3}},\n"
      "{\"name\":\"run\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\"pid\":1,"
      "\"tid\":100},\n"
      "{\"name\":\"running_threads\",\"ph\":\"C\",\"ts\":7,\"pid\":0,"
      "\"tid\":0,\"args\":{\"value\":8}}\n"
      "]}\n";
  EXPECT_EQ(slurp(path), expected);
  std::remove(path.c_str());
}

TEST(ChromeTraceWriter, OutputParsesAsJson) {
  const std::string path = temp_path("csmt_obs_parse_trace.json");
  {
    obs::ChromeTraceWriter w(path);
    w.name_track({obs::kSyncPid, 100}, "thread \"0\"\n");  // needs escaping
    w.instant({obs::kSyncPid, 100}, "barrier_enter", 42);
  }  // destructor finishes the document
  const auto doc = json::Value::parse(slurp(path));
  ASSERT_TRUE(doc.has_value());
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->items().size(), 2u);
  std::remove(path.c_str());
}

TEST(ChromeTraceWriter, FinishIsIdempotentAndDropsLateEvents) {
  const std::string path = temp_path("csmt_obs_finish_trace.json");
  obs::ChromeTraceWriter w(path);
  w.instant({1, 0}, "a", 1);
  w.finish();
  w.finish();
  w.instant({1, 0}, "late", 2);  // dropped, file already closed
  EXPECT_EQ(w.events_written(), 1u);
  EXPECT_TRUE(json::Value::parse(slurp(path)).has_value());
  std::remove(path.c_str());
}

TEST(ChromeTraceWriter, UnopenableFileIsNotOk) {
  obs::ChromeTraceWriter w("/nonexistent-dir-xyz/trace.json");
  EXPECT_FALSE(w.ok());
  w.instant({1, 0}, "a", 1);  // must not crash
  EXPECT_EQ(w.events_written(), 0u);
}

// --- PhaseProfiler -------------------------------------------------------

TEST(PhaseProfiler, SelfTimeAttribution) {
  obs::PhaseProfiler prof;
  volatile std::uint64_t sink = 0;
  {
    obs::ScopedPhase issue(&prof, obs::Phase::kIssue);
    for (int i = 0; i < 50'000; ++i) sink = sink + i;
    {
      obs::ScopedPhase mem(&prof, obs::Phase::kMemory);
      for (int i = 0; i < 50'000; ++i) sink = sink + i;
    }
  }
  double total = 0;
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    const double sec = prof.seconds(static_cast<obs::Phase>(p));
    EXPECT_GE(sec, 0.0);
    total += sec;
  }
  EXPECT_GT(total, 0.0);
  // Self-time: the nested memory scope's time must not also be charged to
  // issue, so both buckets are populated independently.
  EXPECT_GT(prof.seconds(obs::Phase::kIssue), 0.0);
  EXPECT_GT(prof.seconds(obs::Phase::kMemory), 0.0);
}

TEST(PhaseProfiler, ProfiledRunHasIdenticalStats) {
  sim::ExperimentSpec spec;
  spec.workload = "ocean";
  spec.arch = core::ArchKind::kSmt2;
  spec.chips = 4;
  spec.scale = 1;
  const sim::ExperimentResult plain = sim::run_experiment(spec);
  spec.profile_phases = true;
  const sim::ExperimentResult profiled = sim::run_experiment(spec);
  EXPECT_TRUE(profiled.sim_speed.phases_measured);
  // Every RunStats counter, compared as serialized.
  EXPECT_EQ(sim::to_json(profiled).find("stats")->dump(),
            sim::to_json(plain).find("stats")->dump());
}

TEST(PhaseProfiler, NullScopeIsNoop) {
  obs::ScopedPhase scope(nullptr, obs::Phase::kNoc);  // must not crash
  obs::SimSpeed speed;
  EXPECT_FALSE(speed.measured);
  EXPECT_EQ(speed.summary(), "unmeasured");
  EXPECT_DOUBLE_EQ(speed.cycles_per_sec(), 0.0);
}

// --- Whole-machine tracing ----------------------------------------------

isa::Program busy_program(unsigned iters) {
  isa::ProgramBuilder b("busy");
  isa::Reg r = b.ireg(), i = b.ireg(), n = b.ireg();
  b.li(r, 1);
  b.li(n, iters);
  b.for_range(i, 0, n, 1, [&] { b.add(r, r, r); });
  b.halt();
  return b.take();
}

sim::RunStats run_busy(obs::ChromeTraceWriter* trace) {
  sim::MachineConfig mc;
  mc.arch = core::arch_preset(core::ArchKind::kSmt2);
  mc.trace = trace;
  sim::Machine m(mc);
  mem::PagedMemory memory;
  return m
      .run(sim::Mix::single(busy_program(150), memory, 0,
                            mc.total_threads()))
      .combined;
}

TEST(MachineTrace, ProducesLoadableTracksAndIdenticalStats) {
  const std::string path = temp_path("csmt_obs_machine_trace.json");
  sim::RunStats traced;
  {
    obs::ChromeTraceWriter w(path);
    ASSERT_TRUE(w.ok());
    traced = run_busy(&w);
    w.finish();
    EXPECT_GT(w.events_written(), 0u);
  }
  const std::string text = slurp(path);
  ASSERT_TRUE(json::Value::parse(text).has_value());
  // The advertised track layout: per-chip process, per-cluster pipeline
  // tracks, per-thread state tracks, a memsys track, sync + machine rows.
  EXPECT_NE(text.find("\"chip 0\""), std::string::npos);
  EXPECT_NE(text.find("\"cluster 0 pipeline\""), std::string::npos);
  EXPECT_NE(text.find("\"cluster 1 pipeline\""), std::string::npos);
  EXPECT_NE(text.find("\"thread 0\""), std::string::npos);
  EXPECT_NE(text.find("\"thread 7\""), std::string::npos);
  EXPECT_NE(text.find("\"memsys\""), std::string::npos);
  EXPECT_NE(text.find("\"running_threads\""), std::string::npos);
  std::remove(path.c_str());

  // Null-writer fast path: turning tracing off must leave every
  // architectural counter bit-identical.
  const sim::RunStats base = run_busy(nullptr);
  EXPECT_EQ(base.cycles, traced.cycles);
  EXPECT_EQ(base.committed_useful, traced.committed_useful);
  EXPECT_EQ(base.committed_sync, traced.committed_sync);
  EXPECT_EQ(base.fetched, traced.fetched);
  EXPECT_EQ(base.timed_out, traced.timed_out);
  EXPECT_DOUBLE_EQ(base.avg_running_threads, traced.avg_running_threads);
  for (std::size_t i = 0; i < core::kNumSlots; ++i)
    EXPECT_DOUBLE_EQ(base.slots.slots[i], traced.slots.slots[i]);
  EXPECT_EQ(base.mem.loads, traced.mem.loads);
  EXPECT_EQ(base.mem.stores, traced.mem.stores);
  EXPECT_EQ(base.mem.bank_rejections, traced.mem.bank_rejections);
  EXPECT_EQ(base.mem.mshr_rejections, traced.mem.mshr_rejections);
  EXPECT_DOUBLE_EQ(base.mem.l1_miss_rate, traced.mem.l1_miss_rate);
  EXPECT_DOUBLE_EQ(base.mem.l2_miss_rate, traced.mem.l2_miss_rate);
}

// --- JSON round trip -----------------------------------------------------

TEST(ObsJson, SimSpeedRoundTrip) {
  sim::ExperimentResult r;
  r.spec.workload = "ocean";
  r.spec.arch = core::ArchKind::kSmt2;
  r.stats.cycles = 1000;
  r.stats.committed_useful = 4000;
  r.validated = true;
  r.sim_speed.measured = true;
  r.sim_speed.wall_seconds = 0.25;
  r.sim_speed.sim_cycles = 1000;
  r.sim_speed.committed = 4100;
  r.sim_speed.phases_measured = true;
  r.sim_speed.phase_seconds[static_cast<std::size_t>(obs::Phase::kMemory)] =
      0.125;

  const auto back = sim::result_from_json(sim::to_json(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->spec == r.spec);
  EXPECT_TRUE(back->sim_speed.measured);
  EXPECT_DOUBLE_EQ(back->sim_speed.wall_seconds, 0.25);
  EXPECT_EQ(back->sim_speed.sim_cycles, 1000u);
  EXPECT_EQ(back->sim_speed.committed, 4100u);
  EXPECT_TRUE(back->sim_speed.phases_measured);
  EXPECT_DOUBLE_EQ(
      back->sim_speed
          .phase_seconds[static_cast<std::size_t>(obs::Phase::kMemory)],
      0.125);
}

TEST(ObsJson, SpecIdentityIgnoresTraceKnobs) {
  sim::ExperimentSpec a, b;
  a.workload = b.workload = "fft";
  b.trace_path = "somewhere.json";
  b.profile_phases = true;
  b.no_skip = true;
  EXPECT_TRUE(a == b);  // observation knobs never perturb RunStats
}

}  // namespace
}  // namespace csmt
