// Trace viewer companion: run one experiment with full observability on —
// Chrome trace events and phase profiling — then print where to look.
//
//   ./trace_viewer [workload] [arch] [chips] [trace.json]
//
// Defaults: ocean on SMT2, one chip, trace written to csmt_trace.json. The
// arch is a Table 2 name in any case ("smt2", "FA1"); an unknown one exits
// 2 with a usage line.
// Load the trace at https://ui.perfetto.dev (or chrome://tracing): each
// chip is a process with per-cluster pipeline tracks, a memsys track, and
// one track per thread showing run/spin/halt slices; sync events live on
// their own process, DASH directory traffic on another.
#include <cstdio>
#include <cstdlib>

#include "cli/parse.hpp"
#include "csmt.hpp"

int main(int argc, char** argv) {
  using namespace csmt;

  sim::ExperimentSpec spec;
  spec.workload = argc > 1 ? argv[1] : "ocean";
  spec.arch = core::ArchKind::kSmt2;
  if (argc > 2) {
    const auto arch = cli::arch_arg(argv[2]);
    if (!arch) {
      std::fprintf(stderr,
                   "usage: %s [workload] [arch: FA1|FA2|FA4|FA8|SMT1|SMT2|"
                   "SMT4|SMT8, any case] [chips] [trace.json]\n",
                   argv[0]);
      return 2;
    }
    spec.arch = *arch;
  }
  spec.chips = argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 1;
  spec.scale = 2;
  spec.trace_path = argc > 4 ? argv[4] : "csmt_trace.json";
  spec.profile_phases = true;

  std::printf("Tracing %s on %s (%u chip%s) -> %s ...\n",
              spec.workload.c_str(), core::arch_name(spec.arch), spec.chips,
              spec.chips > 1 ? "s" : "", spec.trace_path.c_str());
  const sim::ExperimentResult r = sim::run_experiment(spec);

  std::printf("\n%s\n", sim::render_summary_table({r}).c_str());
  std::printf("Sim speed: %s\n", r.sim_speed.summary().c_str());
  if (r.sim_speed.phases_measured) {
    std::printf("Phase breakdown (self time):\n");
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      std::printf("  %-8s %.3fs\n",
                  obs::phase_name(static_cast<obs::Phase>(p)),
                  r.sim_speed.phase_seconds[p]);
    }
  }
  std::printf(
      "\nOpen %s in https://ui.perfetto.dev to browse per-cluster\n"
      "pipeline activity, per-thread run/spin/halt slices, memory-system\n"
      "misses, sync events, and DASH directory traffic on a shared "
      "timeline.\n",
      spec.trace_path.c_str());
  return r.validated ? 0 : 1;
}
