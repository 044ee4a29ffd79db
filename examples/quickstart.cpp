// Quickstart: run one of the paper's applications on the clustered SMT2
// processor and print the paper-style statistics.
//
//   ./quickstart [workload] [arch] [chips] [scale]
//
// Defaults: ocean on SMT2, low-end machine, scale 2. The arch is a Table 2
// name in any case ("smt2", "FA1"); an unknown one exits 2 with a usage
// line.
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
                   "SMT4|SMT8, any case] [chips] [scale]\n",
                   argv[0]);
      return 2;
    }
    spec.arch = *arch;
  }
  spec.chips = argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 1;
  spec.scale = argc > 4 ? static_cast<unsigned>(std::atoi(argv[4])) : 2;

  std::printf("Running %s on %s (%u chip%s, scale %u)...\n",
              spec.workload.c_str(), core::arch_name(spec.arch), spec.chips,
              spec.chips > 1 ? "s" : "", spec.scale);
  const sim::ExperimentResult r = sim::run_experiment(spec);

  std::printf("\n%s\n", sim::render_summary_table({r}).c_str());
  std::printf("Issue-slot breakdown (Section 4.1 accounting):\n  %s\n",
              r.stats.slots.summary().c_str());
  std::printf("Branch prediction: %.2f%% mispredict rate\n",
              100.0 * r.stats.predictor.mispredict_rate());
  std::printf("Memory: L1 miss %.2f%%, L2 miss %.2f%%, TLB miss %.3f%%\n",
              100.0 * r.stats.mem.l1_miss_rate,
              100.0 * r.stats.mem.l2_miss_rate,
              100.0 * r.stats.mem.tlb_miss_rate);
  if (r.stats.dash) {
    std::printf("Coherence: %llu fetches, %llu interventions, "
                "%llu invalidations\n",
                static_cast<unsigned long long>(r.stats.dash->fetches),
                static_cast<unsigned long long>(r.stats.dash->interventions),
                static_cast<unsigned long long>(
                    r.stats.dash->invalidations_sent));
  }
  std::printf("Functional validation against the host reference: %s\n",
              r.validated ? "PASSED" : "FAILED");
  return r.validated ? 0 : 1;
}
