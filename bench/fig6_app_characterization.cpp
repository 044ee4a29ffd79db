// Figure 6: ILP versus thread parallelism for the six applications, on the
// low-end (a) and high-end (b) machines. Following §5.1.1, thread
// parallelism is the average number of running threads measured on FA8
// (the architecture enabling the most threads) and ILP is the average
// useful IPC measured on FA1 (the architecture enabling the most ILP).
// Expectation: ocean/vpenta fall bottom-right, tomcatv leftmost, the rest
// center; high-end points move left (serial sections matter more) and
// down (parallel threads suffer more hazards).
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "model/parallelism_model.hpp"

namespace {

using namespace csmt;

struct Point {
  std::string name;
  double threads;
  double ilp;
};

std::vector<Point> measure(const cli::Options& opt, unsigned chips) {
  // One grid: workload-major over {FA8, FA1}, so results come back as
  // (FA8, FA1) pairs per workload.
  const auto results = bench::run_figure_grid(
      opt, workloads::workload_names(),
      {core::ArchKind::kFa8, core::ArchKind::kFa1}, chips);
  std::vector<Point> points;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const sim::ExperimentResult& r8 = results[i];
    const sim::ExperimentResult& r1 = results[i + 1];
    // Per-chip averages, as in the paper's 0..8 axes.
    points.push_back({r8.spec.workload, r8.stats.avg_running_threads,
                      r1.stats.useful_ipc() / chips});
  }
  return points;
}

void scatter(const std::vector<Point>& points) {
  // 8x8 chart, Y = ILP/thread (top = 8), X = threads.
  const int kW = 49, kH = 17;  // 6 columns per thread, 2 rows per ILP
  std::vector<std::string> grid(kH, std::string(kW, ' '));
  for (const Point& p : points) {
    int x = static_cast<int>(p.threads / 8.0 * (kW - 1) + 0.5);
    int y = kH - 1 - static_cast<int>(p.ilp / 8.0 * (kH - 1) + 0.5);
    x = std::max(0, std::min(kW - 1, x));
    y = std::max(0, std::min(kH - 1, y));
    grid[y][x] = static_cast<char>(std::toupper(p.name[0]));
  }
  std::printf("  ILP/thread\n");
  for (int y = 0; y < kH; ++y) {
    const double ilp = 8.0 * (kH - 1 - y) / (kH - 1);
    std::printf("%4.1f |%s\n", ilp, grid[y].c_str());
  }
  std::printf("     +%s\n      0", std::string(kW, '-').c_str());
  std::printf("%*s\n", kW - 1, "8  threads");
}

void report(const char* title, unsigned chips, const cli::Options& opt) {
  std::printf("== %s ==\n", title);
  const auto points = measure(opt, chips);
  scatter(points);
  AsciiTable t;
  t.header({"workload", "avg threads (FA8)", "ILP/thread (FA1)",
            "model: best architecture"});
  for (const Point& p : points) {
    const model::AppPoint app{p.name, p.threads, p.ilp};
    const auto ranked = model::rank_architectures(app);
    t.row({p.name, format_fixed(p.threads, 2), format_fixed(p.ilp, 2),
           ranked.front().arch.name + " (" +
               format_fixed(ranked.front().delivered, 1) + " slots/cycle)"});
  }
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = csmt::cli::parse_options(argc, argv);
  report("Figure 6(a): application characterization, low-end machine", 1,
         opt);
  report("Figure 6(b): application characterization, high-end machine", 4,
         opt);
  return 0;
}
