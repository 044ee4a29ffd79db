// Table 3: memory-hierarchy round-trip latencies, measured with dependent
// pointer chases (each load's address is the previous load's value, so the
// measured cycles-per-load is the full round trip plus the 1-cycle unit
// time from Table 1's 2-cycle L1 load):
//   L1 hit     ~ 1 + 1     (ring resident in the 64 KB L1)
//   L2 hit     ~ 10 + 1    (ring larger than L1, inside the 1 MB L2)
//   local mem  ~ 40 + 1    (ring larger than L2, single-chip machine)
//   remote mem ~ 60 + 1    (ring homed on another node, 4-chip machine)
//   remote L2  ~ 75 + 1    (ring dirty in another chip's L2)
// The rings are the `ring-*` workloads (src/workloads/micro.cpp), whose
// scale is the number of passes over the ring.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace csmt;

struct Level {
  const char* name;
  double table3;     ///< the paper's round trip
  const char* ring;  ///< workload
  unsigned lines;    ///< ring length: loads per pass
  unsigned chips;
  /// Passes of the two runs whose difference is measured. Plain rings
  /// compare 2 against 4 passes (each pass behaves the same: capacity
  /// evictions keep the target level exercised). For the dirty ring the
  /// *first* pass is the interesting one (afterwards the requester's own
  /// L2 holds the lines), so it compares one pass against none, which
  /// cancels the writer phase and barrier.
  unsigned passes_a, passes_b;
  double tolerance;
};

constexpr Level kLevels[] = {
    {"L1", 1, "ring-l1", 256, 1, 2, 4, 0.5},
    {"L2", 10, "ring-l2", 4096, 1, 2, 4, 1.5},
    {"local memory", 40, "ring-local", 32768, 1, 2, 4, 4.0},
    {"remote memory", 60, "ring-remote", 384 * 64, 4, 2, 4, 6.0},
    {"remote L2 (dirty)", 75, "ring-remote-l2", 64 * 64, 4, 0, 1, 8.0},
};

}  // namespace

int main(int argc, char** argv) {
  const cli::Options opt = cli::parse_options(argc, argv);
  std::printf("== Table 3: memory round-trip latencies (pointer chase) ==\n");

  std::vector<sim::ExperimentSpec> points;
  for (const Level& level : kLevels) {
    for (const unsigned passes : {level.passes_a, level.passes_b}) {
      sim::ExperimentSpec spec;
      spec.workload = level.ring;
      spec.arch = core::ArchKind::kFa1;
      spec.chips = level.chips;
      spec.scale = passes;
      points.push_back(std::move(spec));
    }
  }
  const auto results = cli::run_points(opt, points);

  AsciiTable t;
  t.header({"level", "Table 3", "expected chase", "measured", "match"});
  bool all_ok = cli::all_validated(results);
  for (std::size_t i = 0; i < std::size(kLevels); ++i) {
    const Level& level = kLevels[i];
    const sim::ExperimentResult& a = results[2 * i];
    const sim::ExperimentResult& b = results[2 * i + 1];
    const double loads =
        static_cast<double>(level.lines) * (level.passes_b - level.passes_a);
    const double got =
        static_cast<double>(b.stats.cycles - a.stats.cycles) / loads;
    const double expect = level.table3 + 1.0;  // + the load unit cycle
    const bool ok = std::abs(got - expect) <= level.tolerance;
    all_ok = all_ok && ok;
    t.row({level.name, format_fixed(level.table3, 0), format_fixed(expect, 0),
           format_fixed(got, 1), ok ? "yes" : "NO"});
  }

  std::printf("%s\n%s\n", t.render().c_str(),
              all_ok ? "All Table 3 latencies reproduced."
                     : "MISMATCH against Table 3!");
  cli::export_json(opt, results);
  return all_ok ? 0 : 1;
}
