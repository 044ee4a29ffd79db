// Ablation A5 — shared vs per-cluster private L1. §3.4: "Typically, each
// cluster in a processor would have its own private primary cache and
// share the secondary cache. In our work, however, we wanted to avoid the
// results being influenced by different memory hierarchies in different
// processors. Consequently, we choose a shared primary cache." This bench
// quantifies the choice: the private variant splits the 64 KB L1 across
// clusters (write-invalidate coherence through the shared L2) and is run
// against the shared baseline on every application.
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace csmt;
  const cli::Options opt = cli::parse_options(argc, argv);

  std::vector<sim::ExperimentResult> all;
  for (const core::ArchKind arch :
       {core::ArchKind::kFa8, core::ArchKind::kSmt2}) {
    std::printf("== Ablation A5: shared vs private L1 on %s (low-end, "
                "scale %u) ==\n",
                core::arch_name(arch), opt.scale);

    // (shared, private) pair per workload, via the l1_private override.
    std::vector<sim::ExperimentSpec> points;
    for (const std::string& w : workloads::workload_names()) {
      for (const bool priv : {false, true}) {
        sim::ExperimentSpec spec;
        spec.workload = w;
        spec.arch = arch;
        spec.scale = opt.scale;
        spec.l1_private = priv;
        points.push_back(std::move(spec));
      }
    }
    const auto results = cli::run_points(opt, points);
    all.insert(all.end(), results.begin(), results.end());

    AsciiTable t;
    t.header({"workload", "shared L1 cycles", "private L1 cycles", "delta",
              "shared L1 miss", "private L1 miss", "cross-invalidations"});
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
      const sim::RunStats& shared = results[i].stats;
      const sim::RunStats& priv = results[i + 1].stats;
      t.row({results[i].spec.workload, format_count(shared.cycles),
             format_count(priv.cycles),
             format_percent(static_cast<double>(priv.cycles) /
                                static_cast<double>(shared.cycles) -
                            1.0),
             format_percent(shared.mem.l1_miss_rate),
             format_percent(priv.mem.l1_miss_rate),
             format_count(priv.mem.l1_cross_invalidations)});
    }
    std::printf("%s\n", t.render().c_str());
  }
  cli::export_json(opt, all);
  std::printf(
      "Expectation: the private variant pays capacity misses (each cluster\n"
      "keeps 1/clusters of the L1) and write-invalidate misses on shared\n"
      "rows, costing a few percent — and, crucially for the paper's\n"
      "methodology, the penalty differs *across architectures* (FA8 splits\n"
      "8 ways, SMT2 only 2), which is exactly the cross-hierarchy\n"
      "pollution the authors chose the shared L1 to avoid.\n");
  return 0;
}
