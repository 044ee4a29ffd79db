#include "cli/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cli/parse.hpp"

#if defined(__unix__) || defined(__APPLE__)
extern char** environ;
#endif

namespace csmt::cli {

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

Options Options::from_env(unsigned default_scale) {
  warn_unknown_env();
  Options opt;
  opt.scale = static_cast<unsigned>(env_u64(
      "CSMT_SCALE", default_scale, 1, "an integer >= 1"));
  opt.sweep.jobs = static_cast<unsigned>(env_u64(
      "CSMT_JOBS", 1, 0, "a worker count, 0 = all hardware threads"));
  opt.sweep.cache_dir = env_string("CSMT_CACHE_DIR");
  opt.json_path = env_string("CSMT_JSON");
  opt.trace_path = env_string("CSMT_TRACE");
  opt.no_skip = env_flag("CSMT_NO_SKIP");
  return opt;
}

Options parse_options(int argc, char** argv, unsigned default_scale) {
  Options opt = Options::from_env(default_scale);
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argc, argv, i, "--scale")) {
      opt.scale = static_cast<unsigned>(
          flag_u64(v, "--scale", 1, "an integer >= 1"));
    } else if (const char* v = flag_value(argc, argv, i, "--jobs")) {
      opt.sweep.jobs = static_cast<unsigned>(
          flag_u64(v, "--jobs", 0, "a worker count"));
    } else if (const char* v = flag_value(argc, argv, i, "--cache-dir")) {
      opt.sweep.cache_dir = v;
    } else if (const char* v = flag_value(argc, argv, i, "--json")) {
      opt.json_path = v;
    } else if (const char* v = flag_value(argc, argv, i, "--trace")) {
      opt.trace_path = v;
    } else if (std::strcmp(argv[i], "--no-skip") == 0) {
      opt.no_skip = true;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--scale N] [--jobs N] [--cache-dir PATH] "
          "[--json PATH] [--trace PATH] [--no-skip]\n"
          "  (env: CSMT_SCALE, CSMT_JOBS, CSMT_CACHE_DIR, CSMT_JSON, "
          "CSMT_TRACE, CSMT_NO_SKIP)\n",
          argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace csmt::cli
