// Figure 4: FA processors vs the SMT2 clustered processor on the low-end
// (single-chip) machine. Paper expectation: the FA bars form an
// application-dependent U across FA8..FA1, and SMT2 takes the fewest
// cycles for every application (~13% below the best FA on average).
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace csmt;
  const cli::Options opt = cli::parse_options(argc, argv);
  const auto results = bench::run_figure_grid(
      opt, workloads::workload_names(),
      {core::ArchKind::kFa8, core::ArchKind::kFa4, core::ArchKind::kFa2,
       core::ArchKind::kFa1, core::ArchKind::kSmt2},
      /*chips=*/1);
  bench::print_figure(
      "Figure 4: FA vs clustered SMT, low-end machine (scale " +
          std::to_string(opt.scale) + ")",
      results, "FA8");
  cli::export_json(opt, results);
  return 0;
}
