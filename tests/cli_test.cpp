// csmt::cli, the options and run path every bench binary and the csmt
// driver share: environment and flag parsing, usage errors, per-point
// trace names, and run_points' tracing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "cli/options.hpp"

namespace csmt::cli {
namespace {

/// parse_options over `args`, after a "csmt" argv[0].
Options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "csmt");
  return parse_options(static_cast<int>(args.size()),
                       const_cast<char**>(args.data()));
}

TEST(CliOptions, EnvAndFlagParsing) {
  setenv("CSMT_SCALE", "3", 1);
  setenv("CSMT_JOBS", "2", 1);
  setenv("CSMT_CACHE_DIR", "env-cache", 1);
  Options opt = parse({});
  EXPECT_EQ(opt.scale, 3u);
  EXPECT_EQ(opt.sweep.jobs, 2u);
  EXPECT_EQ(opt.sweep.cache_dir, "env-cache");

  // Malformed environment values warn and keep the default.
  setenv("CSMT_SCALE", "0", 1);
  setenv("CSMT_JOBS", "soon", 1);
  opt = parse({});
  EXPECT_EQ(opt.scale, 4u);
  EXPECT_EQ(opt.sweep.jobs, 1u);
  // 2^32 would wrap to scale 0 in an unsigned.
  setenv("CSMT_SCALE", "4294967296", 1);
  EXPECT_EQ(parse({}).scale, 4u);

  // Flags override the environment.
  opt = parse({"--scale=5", "--jobs", "0", "--cache-dir", "flag-cache"});
  EXPECT_EQ(opt.scale, 5u);
  EXPECT_EQ(opt.sweep.jobs, 0u);
  EXPECT_EQ(opt.sweep.cache_dir, "flag-cache");
  unsetenv("CSMT_SCALE");
  unsetenv("CSMT_JOBS");
  unsetenv("CSMT_CACHE_DIR");
}

TEST(CliOptions, UnknownCsmtVariableWarns) {
  // A variable no csmt binary reads (here one the allocation flags' removal
  // retired) warns on stderr and changes nothing.
  setenv("CSMT_ALLOC_POLICY", "symbiosis", 1);
  ::testing::internal::CaptureStderr();
  const Options opt = parse({});
  const std::string err = ::testing::internal::GetCapturedStderr();
  unsetenv("CSMT_ALLOC_POLICY");
  EXPECT_NE(err.find("csmt: ignoring unknown environment variable "
                     "CSMT_ALLOC_POLICY\n"),
            std::string::npos)
      << err;
  const Options defaults;
  EXPECT_EQ(opt.scale, defaults.scale);
  EXPECT_EQ(opt.sweep.jobs, defaults.sweep.jobs);
  EXPECT_EQ(opt.sweep.cache_dir, defaults.sweep.cache_dir);
  EXPECT_EQ(opt.json_path, defaults.json_path);
  EXPECT_EQ(opt.trace_path, defaults.trace_path);
  EXPECT_EQ(opt.no_skip, defaults.no_skip);
}

TEST(CliOptionsDeathTest, RemovedFlagsAreUnknown) {
  // Live telemetry serving, mid-run checkpointing and the per-binary
  // allocation knobs were removed, so their flags are unknown arguments
  // like any typo: usage line, exit 2.
  EXPECT_EXIT(parse({"--serve-telemetry", "0"}),
              ::testing::ExitedWithCode(2), "usage: csmt ");
  EXPECT_EXIT(parse({"--ckpt-interval", "2000"}),
              ::testing::ExitedWithCode(2), "usage: csmt ");
  EXPECT_EXIT(parse({"--alloc-policy", "symbiosis"}),
              ::testing::ExitedWithCode(2), "usage: csmt ");
  EXPECT_EXIT(parse({"--alloc-epoch", "2000"}),
              ::testing::ExitedWithCode(2), "usage: csmt ");
}

TEST(CliOptionsDeathTest, MalformedValuesPrintWhyAndTheUsageLine) {
  EXPECT_EXIT(parse({"--scale", "x"}), ::testing::ExitedWithCode(2),
              "--scale wants an integer >= 1, got 'x'\nusage: csmt ");
  EXPECT_EXIT(parse({"--scale=0"}), ::testing::ExitedWithCode(2),
              "usage: csmt ");
  // 2^32 would wrap to scale 0 in an unsigned.
  EXPECT_EXIT(parse({"--scale", "4294967296"}), ::testing::ExitedWithCode(2),
              "usage: csmt ");
  EXPECT_EXIT(parse({"--jobs", "-1"}), ::testing::ExitedWithCode(2),
              "usage: csmt ");
}

TEST(CliOptionsDeathTest, UsageLineListsTheBinarysOwnFlagsFirst) {
  const char* argv[] = {"csmt", "--bogus"};
  EXPECT_EXIT(parse_options(2, const_cast<char**>(argv), "[--chips N,...]"),
              ::testing::ExitedWithCode(2),
              "unknown argument '--bogus'\nusage: csmt \\[--chips N,...\\] "
              "\\[--scale N\\]");
}

std::string traced(const std::string& path, std::size_t index,
                   std::size_t n) {
  Options opt;
  opt.trace_path = path;
  return trace_path_for(opt, index, n);
}

TEST(TracePathFor, OnePointKeepsThePathVerbatim) {
  EXPECT_EQ(traced("run.d/trace.json", 0, 1), "run.d/trace.json");
  EXPECT_EQ(traced("", 3, 8), "");
}

TEST(TracePathFor, TagGoesBetweenTheFileNamesStemAndExtension) {
  EXPECT_EQ(traced("trace.json", 3, 8), "trace.p3.json");
  EXPECT_EQ(traced("trace", 3, 8), "trace.p3");
  EXPECT_EQ(traced(".trace", 3, 8), ".trace.p3");
  EXPECT_EQ(traced("run.d/trace", 3, 8), "run.d/trace.p3");
  EXPECT_EQ(traced("../trace", 3, 8), "../trace.p3");
}

TEST(RunPoints, TracedPointsWriteOneFileEachAndProfilePhases) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "csmt_cli_run_points.d";
  std::filesystem::create_directories(dir);
  sim::ExperimentSpec spec;
  spec.workload = "ring-l1";
  spec.arch = core::ArchKind::kSmt2;
  spec.scale = 1;
  Options opt;
  opt.sweep.progress = false;
  opt.trace_path = (dir / "trace.json").string();
  const auto traced_results = run_points(opt, {spec, spec});
  ASSERT_EQ(traced_results.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string path =
        (dir / ("trace.p" + std::to_string(i) + ".json")).string();
    EXPECT_EQ(traced_results[i].spec.trace_path, path);
    EXPECT_TRUE(std::filesystem::file_size(path) > 0) << path;
    EXPECT_TRUE(traced_results[i].validated);
    EXPECT_TRUE(traced_results[i].sim_speed.phases_measured);
  }
  std::filesystem::remove_all(dir);

  // Untraced points are not profiled.
  opt.trace_path.clear();
  const auto plain = run_points(opt, {spec});
  EXPECT_FALSE(plain[0].sim_speed.phases_measured);
  EXPECT_TRUE(plain[0].spec.trace_path.empty());
}

}  // namespace
}  // namespace csmt::cli
