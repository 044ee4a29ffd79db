// Ablation A1 — fetch policy. §5.2 attributes the SMT1 fetch hazard to the
// unified instruction queue clogging under the round-robin fetch unit, and
// cites Tullsen's alternatives (partitioned fetch, instruction-count
// feedback). This bench compares strict round-robin, round-robin over
// fetchable threads, and ICOUNT on the centralized and clustered SMTs.
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace csmt;
  const cli::Options opt = cli::parse_options(argc, argv);
  struct Policy {
    core::FetchPolicy policy;
    const char* name;
  };
  const Policy policies[] = {
      {core::FetchPolicy::kRoundRobin, "strict-RR"},
      {core::FetchPolicy::kRoundRobinSkip, "RR-skip"},
      {core::FetchPolicy::kIcount, "ICOUNT"},
  };

  std::vector<sim::ExperimentResult> all;
  for (const core::ArchKind arch :
       {core::ArchKind::kSmt2, core::ArchKind::kSmt1}) {
    std::printf("== Ablation A1: fetch policy on %s (low-end, scale %u) ==\n",
                core::arch_name(arch), opt.scale);
    // Non-cartesian in the policy axis, so hand the runner an explicit
    // point list: workload-major, one point per (workload, policy).
    std::vector<sim::ExperimentSpec> points;
    for (const std::string& w : workloads::workload_names()) {
      for (const Policy& p : policies) {
        sim::ExperimentSpec spec;
        spec.workload = w;
        spec.arch = arch;
        spec.scale = opt.scale;
        spec.fetch_policy = p.policy;
        points.push_back(std::move(spec));
      }
    }
    const auto results = cli::run_points(opt, points);
    all.insert(all.end(), results.begin(), results.end());

    AsciiTable t;
    std::vector<std::string> header = {"workload"};
    for (const Policy& p : policies) {
      header.push_back(std::string(p.name) + " cycles");
      header.push_back(std::string(p.name) + " fetch%");
    }
    t.header(header);
    for (std::size_t i = 0; i < results.size();) {
      std::vector<std::string> row = {results[i].spec.workload};
      for (std::size_t p = 0; p < std::size(policies); ++p, ++i) {
        row.push_back(format_count(results[i].stats.cycles));
        row.push_back(format_percent(
            results[i].stats.slots.fraction(core::Slot::kFetch)));
      }
      t.row(row);
    }
    std::printf("%s\n", t.render().c_str());
  }
  cli::export_json(opt, all);
  std::printf(
      "Expectation: strict round-robin, which wastes a stalled thread's\n"
      "fetch turn, takes the most cycles and ICOUNT the fewest, with RR-skip\n"
      "between — ICOUNT is the fix Tullsen et al. propose and the paper\n"
      "cites for the fetch bottleneck. The fetch share stays small under\n"
      "all three.\n");
  return 0;
}
