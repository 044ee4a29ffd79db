#include "cli/options.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "cli/parse.hpp"
#include "sim/report.hpp"

#if defined(__unix__) || defined(__APPLE__)
extern char** environ;
#endif

namespace csmt::cli {
namespace {

Options from_env() {
  warn_unknown_env();
  Options opt;
  opt.scale = static_cast<unsigned>(
      env_u64("CSMT_SCALE", opt.scale, 1, UINT_MAX, "an integer >= 1"));
  opt.sweep.jobs = static_cast<unsigned>(
      env_u64("CSMT_JOBS", 1, 0, UINT_MAX,
              "a worker count, 0 = all hardware threads"));
  opt.sweep.cache_dir = env_string("CSMT_CACHE_DIR");
  opt.json_path = env_string("CSMT_JSON");
  opt.trace_path = env_string("CSMT_TRACE");
  opt.no_skip = env_flag("CSMT_NO_SKIP");
  return opt;
}

}  // namespace

void warn_unknown_env() {
#if defined(__unix__) || defined(__APPLE__)
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry = *e;
    const std::string_view name = entry.substr(0, entry.find('='));
    if (!name.starts_with("CSMT_") ||
        std::find(std::begin(kEnvNames), std::end(kEnvNames), name) !=
            std::end(kEnvNames))
      continue;
    std::fprintf(stderr, "csmt: ignoring unknown environment variable %.*s\n",
                 static_cast<int>(name.size()), name.data());
  }
#endif
}

void Usage::fail(const std::string& why) const {
  std::fprintf(stderr,
               "csmt: %s\n"
               "usage: %s%s%s [--scale N] [--jobs N] [--cache-dir PATH] "
               "[--json PATH] [--trace PATH] [--no-skip]\n"
               "  (env: CSMT_SCALE, CSMT_JOBS, CSMT_CACHE_DIR, CSMT_JSON, "
               "CSMT_TRACE, CSMT_NO_SKIP)\n",
               why.c_str(), argv0, *own_flags ? " " : "", own_flags);
  std::exit(2);
}

Options parse_options(int argc, char** argv, const char* own_flags) {
  const Usage usage{argv[0], own_flags};
  Options opt = from_env();
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argc, argv, i, "--scale", usage)) {
      opt.scale = static_cast<unsigned>(
          flag_u64(v, "--scale", 1, UINT_MAX, "an integer >= 1", usage));
    } else if (const char* v = flag_value(argc, argv, i, "--jobs", usage)) {
      opt.sweep.jobs = static_cast<unsigned>(
          flag_u64(v, "--jobs", 0, UINT_MAX, "a worker count", usage));
    } else if (const char* v =
                   flag_value(argc, argv, i, "--cache-dir", usage)) {
      opt.sweep.cache_dir = v;
    } else if (const char* v = flag_value(argc, argv, i, "--json", usage)) {
      opt.json_path = v;
    } else if (const char* v = flag_value(argc, argv, i, "--trace", usage)) {
      opt.trace_path = v;
    } else if (std::strcmp(argv[i], "--no-skip") == 0) {
      opt.no_skip = true;
    } else {
      usage.fail("unknown argument '" + std::string(argv[i]) + "'");
    }
  }
  return opt;
}

std::string trace_path_for(const Options& opt, std::size_t index,
                           std::size_t n) {
  if (opt.trace_path.empty() || n <= 1) return opt.trace_path;
  std::filesystem::path path = opt.trace_path;
  path.replace_filename(path.stem().string() + ".p" + std::to_string(index) +
                        path.extension().string());
  return path.string();
}

std::vector<sim::ExperimentResult> run_points(
    const Options& opt, std::vector<sim::ExperimentSpec> points) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].trace_path = trace_path_for(opt, i, points.size());
    points[i].profile_phases = !points[i].trace_path.empty();
    points[i].no_skip = opt.no_skip;
  }
  sweep::SweepRunner runner(opt.sweep);
  return runner.run(points);
}

void export_json(const Options& opt,
                 const std::vector<sim::ExperimentResult>& results) {
  if (opt.json_path.empty()) return;
  std::FILE* f = std::fopen(opt.json_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "csmt: cannot write JSON artifact '%s'\n",
                 opt.json_path.c_str());
    return;
  }
  const std::string doc = sim::render_json(results);
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "csmt: wrote %s (%zu results)\n",
               opt.json_path.c_str(), results.size());
}

bool all_validated(const std::vector<sim::ExperimentResult>& results) {
  bool ok = true;
  for (const sim::ExperimentResult& r : results) {
    if (r.validated) continue;
    std::fprintf(stderr, "csmt: %s on %s x%u at scale %u did not validate\n",
                 r.spec.workload.c_str(), core::arch_name(r.spec.arch),
                 r.spec.chips, r.spec.scale);
    ok = false;
  }
  return ok;
}

}  // namespace csmt::cli
