// Figure 7: centralized vs clustered SMT processors on the low-end
// machine, normalized to SMT8 (= FA8). Paper expectation: cycles decrease
// from SMT8 to SMT1, SMT2 lands within 0-9% of the centralized SMT1, and
// the fetch hazard grows toward SMT1 (unified-queue clogging).
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace csmt;
  const cli::Options opt = cli::parse_options(argc, argv);
  const auto results = bench::run_figure_grid(
      opt, workloads::workload_names(),
      {core::ArchKind::kSmt8, core::ArchKind::kSmt4, core::ArchKind::kSmt2,
       core::ArchKind::kSmt1},
      /*chips=*/1);
  bench::print_figure(
      "Figure 7: clustered vs centralized SMT, low-end machine (scale " +
          std::to_string(opt.scale) + ")",
      results, "SMT8");
  cli::export_json(opt, results);
  return 0;
}
