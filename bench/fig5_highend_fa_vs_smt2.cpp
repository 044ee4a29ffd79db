// Figure 5: FA processors vs the SMT2 clustered processor on the high-end
// machine (4 chips over the DASH-like interconnect). Paper expectation:
// the sweet spot of low-parallelism applications (swim/tomcatv/mgrid)
// moves to wide-issue FA processors, vpenta/ocean stay with many-thread
// FA, and SMT2 remains the lowest and most stable.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace csmt;
  const cli::Options opt = cli::parse_options(argc, argv);
  const auto results = bench::run_figure_grid(
      opt, workloads::workload_names(),
      {core::ArchKind::kFa8, core::ArchKind::kFa4, core::ArchKind::kFa2,
       core::ArchKind::kFa1, core::ArchKind::kSmt2},
      /*chips=*/4);
  bench::print_figure(
      "Figure 5: FA vs clustered SMT, high-end machine (scale " +
          std::to_string(opt.scale) + ")",
      results, "FA8");
  cli::export_json(opt, results);
  return 0;
}
