// Ablation A2 — instruction-window size. Table 2 fixes the chip-wide
// window at 128 entries (64 per SMT2 cluster). This bench sweeps the
// per-cluster IQ/ROB size on SMT2 to show how sensitive the design point
// is to that choice (renaming registers scale along, as in Table 2).
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace csmt;
  const cli::Options opt = cli::parse_options(argc, argv);
  const unsigned sizes[] = {16, 32, 64, 128, 256};

  std::printf("== Ablation A2: SMT2 per-cluster window size (low-end, scale "
              "%u) ==\n", opt.scale);

  // Workload-major point list with a per-point window override (renaming
  // registers scale along, as in Table 2 — see ExperimentSpec).
  std::vector<sim::ExperimentSpec> points;
  for (const std::string& w : workloads::workload_names()) {
    for (const unsigned size : sizes) {
      sim::ExperimentSpec spec;
      spec.workload = w;
      spec.arch = core::ArchKind::kSmt2;
      spec.scale = opt.scale;
      spec.window_size = size;
      points.push_back(std::move(spec));
    }
  }
  const auto results = cli::run_points(opt, points);

  AsciiTable t;
  std::vector<std::string> header = {"workload"};
  for (const unsigned s : sizes) header.push_back(std::to_string(s));
  header.push_back("Table 2 (64) vs best");
  t.header(header);

  for (std::size_t i = 0; i < results.size();) {
    std::vector<std::string> row = {results[i].spec.workload};
    Cycle best = kNeverCycle;
    Cycle at64 = 0;
    for (std::size_t s = 0; s < std::size(sizes); ++s, ++i) {
      const Cycle cycles = results[i].stats.cycles;
      row.push_back(format_count(cycles));
      best = std::min(best, cycles);
      if (sizes[s] == 64) at64 = cycles;
    }
    row.push_back("+" + format_percent(static_cast<double>(at64 - best) /
                                       static_cast<double>(best)));
    t.row(row);
  }
  std::printf("%s\n", t.render().c_str());
  cli::export_json(opt, results);
  std::printf(
      "Expectation: strong gains up to ~64 entries per cluster, then\n"
      "diminishing returns — supporting Table 2's 128-entry chip window.\n");
  return 0;
}
