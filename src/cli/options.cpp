#include "cli/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cli/parse.hpp"

namespace csmt::cli {

Options Options::from_env(unsigned default_scale) {
  Options opt;
  opt.scale = static_cast<unsigned>(env_u64(
      "CSMT_SCALE", default_scale, 1, "an integer >= 1"));
  opt.sweep = sweep::SweepOptions::from_env();
  opt.json_path = env_string("CSMT_JSON");
  opt.trace_path = env_string("CSMT_TRACE");
  opt.no_skip = env_flag("CSMT_NO_SKIP");
  if (const char* s = std::getenv("CSMT_ALLOC_POLICY")) {
    if (const auto kind = alloc::policy_from_name(s)) {
      opt.alloc_policy = *kind;
    } else {
      std::fprintf(stderr,
                   "csmt: ignoring unknown CSMT_ALLOC_POLICY='%s' (want "
                   "static, greedy-util, symbiosis, or ipc-migrate)\n",
                   s);
    }
  }
  opt.alloc_epoch = env_u64("CSMT_ALLOC_EPOCH", 0, 0,
                            "a cycle count, 0 = policy default");
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
    } else if (const char* v = flag_value(argc, argv, i, "--alloc-policy")) {
      const auto kind = alloc::policy_from_name(v);
      if (!kind) {
        std::fprintf(stderr,
                     "csmt: --alloc-policy wants static, greedy-util, "
                     "symbiosis, or ipc-migrate, got '%s'\n",
                     v);
        std::exit(2);
      }
      opt.alloc_policy = *kind;
    } else if (const char* v = flag_value(argc, argv, i, "--alloc-epoch")) {
      opt.alloc_epoch =
          flag_u64(v, "--alloc-epoch", 0, "a cycle count, 0 = default");
    } else if (std::strcmp(argv[i], "--no-skip") == 0) {
      opt.no_skip = true;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--scale N] [--jobs N] [--cache-dir PATH] "
          "[--json PATH] [--trace PATH] [--no-skip] "
          "[--alloc-policy NAME] [--alloc-epoch N]\n"
          "  (env: CSMT_SCALE, CSMT_JOBS, CSMT_CACHE_DIR, CSMT_JSON, "
          "CSMT_TRACE, CSMT_NO_SKIP, CSMT_ALLOC_POLICY, "
          "CSMT_ALLOC_EPOCH)\n"
          "  allocation policies: static, greedy-util, symbiosis, "
          "ipc-migrate\n",
          argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace csmt::cli
