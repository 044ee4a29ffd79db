// High-end scaling: run one application on 1, 2 and 4 chips (the 4-chip
// point is the paper's high-end machine) and report speedups and how the
// hazard mix shifts — more sync and remote-memory waste as chips are
// added, the effect §5.1 discusses.
//
//   ./highend_scaling [workload] [arch] [scale]
//
// The arch is a Table 2 name in any case ("smt2", "FA1"); an unknown one
// exits 2 with a usage line.
#include <cstdio>
#include <cstdlib>

#include "cli/options.hpp"
#include "cli/parse.hpp"
#include "csmt.hpp"

int main(int argc, char** argv) {
  using namespace csmt;

  const std::string workload = argc > 1 ? argv[1] : "ocean";
  core::ArchKind arch = core::ArchKind::kSmt2;
  if (argc > 2) {
    const auto named = cli::arch_arg(argv[2]);
    if (!named) {
      std::fprintf(stderr,
                   "usage: %s [workload] [arch: FA1|FA2|FA4|FA8|SMT1|SMT2|"
                   "SMT4|SMT8, any case] [scale]\n",
                   argv[0]);
      return 2;
    }
    arch = *named;
  }
  const unsigned scale = argc > 3 ? static_cast<unsigned>(atoi(argv[3])) : 4;

  std::printf("High-end scaling: %s on %s, scale %u\n\n", workload.c_str(),
              core::arch_name(arch), scale);

  // The chip-count axis as one sweep grid (CSMT_JOBS runs the three
  // machines concurrently; CSMT_CACHE_DIR caches them).
  sweep::SweepSpec grid;
  grid.workloads = {workload};
  grid.archs = {arch};
  grid.chips = {1u, 2u, 4u};
  grid.scales = {scale};
  sweep::SweepRunner runner(cli::Options::from_env().sweep);
  const auto results = runner.run(grid);

  AsciiTable t;
  t.header({"chips", "threads", "cycles", "speedup", "useful%", "sync%",
            "memory%", "remote fetches", "valid"});
  const double base = static_cast<double>(results.front().stats.cycles);
  for (const auto& r : results) {
    t.row({std::to_string(r.spec.chips),
           std::to_string(r.spec.chips *
                          core::arch_preset(arch).threads_per_chip()),
           format_count(r.stats.cycles),
           format_fixed(base / static_cast<double>(r.stats.cycles), 2) + "x",
           format_percent(r.stats.slots.fraction(core::Slot::kUseful)),
           format_percent(r.stats.slots.fraction(core::Slot::kSync)),
           format_percent(r.stats.slots.fraction(core::Slot::kMemory)),
           r.stats.dash ? format_count(r.stats.dash->remote_fetches) : "-",
           r.validated ? "yes" : "NO"});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
