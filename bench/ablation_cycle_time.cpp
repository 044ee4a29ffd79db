// Ablation A3 — cycle-time adjustment (§5.2). The figures compare cycle
// counts at equal clocks; the paper then argues from Palacharla, Jouppi &
// Smith [12] that a 4-issue cluster clocks ~2x faster than a centralized
// 8-issue core in 0.18um technology, while 4-issue and narrower clusters
// clock about the same. Applying those factors to the Figure 7/8 data
// turns "SMT2 slightly slower in cycles" into "SMT2 clearly faster in
// time" — the paper's cost-effectiveness conclusion.
#include <map>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

/// Relative clock frequency per architecture (8-issue cluster = 1.0;
/// 4-issue and narrower clusters = 2.0), after [12].
double clock_factor(csmt::core::ArchKind kind) {
  using csmt::core::ArchKind;
  switch (kind) {
    case ArchKind::kFa1:
    case ArchKind::kSmt1:
      return 1.0;  // 8-issue cluster: bypass network bound
    default:
      return 2.0;  // <= 4-issue clusters
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csmt;
  const cli::Options opt = cli::parse_options(argc, argv);
  const std::vector<core::ArchKind> archs = {
      core::ArchKind::kSmt8, core::ArchKind::kSmt4, core::ArchKind::kSmt2,
      core::ArchKind::kSmt1};

  std::vector<sim::ExperimentResult> all;
  for (const unsigned chips : {1u, 4u}) {
    std::printf("== Ablation A3: cycle-time-adjusted SMT comparison "
                "(%s, scale %u) ==\n",
                chips == 1 ? "low-end" : "high-end", opt.scale);
    const auto results =
        bench::run_figure_grid(opt, workloads::workload_names(), archs, chips);
    all.insert(all.end(), results.begin(), results.end());

    AsciiTable t;
    t.header({"workload", "arch", "cycles", "clock x", "time (norm SMT8)",
              "cycles (norm SMT8)"});
    std::map<std::string, double> base_time, base_cycles;
    for (const auto& r : results) {
      if (r.spec.arch == core::ArchKind::kSmt8) {
        base_cycles[r.spec.workload] = static_cast<double>(r.stats.cycles);
        base_time[r.spec.workload] =
            static_cast<double>(r.stats.cycles) / clock_factor(r.spec.arch);
      }
    }
    for (const auto& r : results) {
      const double f = clock_factor(r.spec.arch);
      const double time = static_cast<double>(r.stats.cycles) / f;
      t.row({r.spec.workload, core::arch_name(r.spec.arch),
             format_count(r.stats.cycles), format_fixed(f, 1),
             format_fixed(100.0 * time / base_time[r.spec.workload], 1),
             format_fixed(100.0 * static_cast<double>(r.stats.cycles) /
                              base_cycles[r.spec.workload],
                          1)});
    }
    std::printf("%s\n", t.render().c_str());
  }
  cli::export_json(opt, all);
  std::printf(
      "Expectation: in raw cycles SMT1 edges out SMT2, but with the [12]\n"
      "clock factors SMT2 is decisively faster — the paper's conclusion\n"
      "that the clustered SMT2 is the most cost-effective organization.\n");
  return 0;
}
