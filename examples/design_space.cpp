// Design-space exploration: sweep all seven Table 2 architectures for one
// application and compare the measured ranking against the Section 2
// analytic model of parallelism.
//
//   ./design_space [workload] [chips] [scale]
#include <cstdio>
#include <cstdlib>

#include "cli/options.hpp"
#include "csmt.hpp"

int main(int argc, char** argv) {
  using namespace csmt;

  const std::string workload = argc > 1 ? argv[1] : "swim";
  const unsigned chips = argc > 2 ? static_cast<unsigned>(atoi(argv[2])) : 1;
  const unsigned scale = argc > 3 ? static_cast<unsigned>(atoi(argv[3])) : 2;

  std::printf("Design-space sweep: %s, %u chip%s, scale %u\n\n",
              workload.c_str(), chips, chips > 1 ? "s" : "", scale);

  // One sweep over all seven Table 2 architectures; CSMT_JOBS parallelizes
  // the points and CSMT_CACHE_DIR makes re-renders free.
  sweep::SweepSpec grid;
  grid.workloads = {workload};
  grid.archs = {core::ArchKind::kFa8, core::ArchKind::kFa4,
                core::ArchKind::kFa2, core::ArchKind::kFa1,
                core::ArchKind::kSmt4, core::ArchKind::kSmt2,
                core::ArchKind::kSmt1};
  grid.chips = {chips};
  grid.scales = {scale};
  sweep::SweepRunner runner(cli::Options::from_env().sweep);
  const std::vector<sim::ExperimentResult> results = runner.run(grid);

  std::printf("%s\n", sim::render_summary_table(results).c_str());
  std::printf("%s\n",
              sim::render_figure("Execution time, " + workload, results,
                                 "FA8").c_str());

  // Characterize the application (FA8 -> threads, FA1 -> ILP) and ask the
  // Section 2 model which architecture it predicts.
  double threads = 0.0, ilp = 0.0;
  for (const auto& r : results) {
    if (r.spec.arch == core::ArchKind::kFa8)
      threads = r.stats.avg_running_threads;
    if (r.spec.arch == core::ArchKind::kFa1)
      ilp = r.stats.useful_ipc() / chips;
  }
  const model::AppPoint app{workload, threads, ilp};
  std::printf("\nSection 2 model, application point (threads=%.2f, "
              "ILP/thread=%.2f):\n", threads, ilp);
  AsciiTable t;
  t.header({"architecture", "model slots/cycle", "region",
            "measured cycles"});
  for (const model::ModelRow& row : model::rank_architectures(app)) {
    std::string measured = "-";
    for (const auto& r : results) {
      if (row.arch.name == core::arch_name(r.spec.arch))
        measured = format_count(r.stats.cycles);
    }
    t.row({row.arch.name, format_fixed(row.delivered, 2),
           model::region_name(row.region), measured});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
