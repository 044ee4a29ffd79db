// Figure 8: centralized vs clustered SMT processors on the high-end
// machine, normalized to SMT8. The low-end conclusions carry over: SMT2 is
// only slightly slower than SMT1 in cycles, and (per the paper's cycle-time
// argument, see ablation_cycle_time) a much better design point.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace csmt;
  const cli::Options opt = cli::parse_options(argc, argv);
  const auto results = bench::run_figure_grid(
      opt, workloads::workload_names(),
      {core::ArchKind::kSmt8, core::ArchKind::kSmt4, core::ArchKind::kSmt2,
       core::ArchKind::kSmt1},
      /*chips=*/4);
  bench::print_figure(
      "Figure 8: clustered vs centralized SMT, high-end machine (scale " +
          std::to_string(opt.scale) + ")",
      results, "SMT8");
  cli::export_json(opt, results);
  return 0;
}
