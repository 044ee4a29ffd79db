// csmt: the simulator driver. Its three list flags are the paper's axes:
// applications, Table 2 organizations and machine size. Their cross
// product runs through the run path the bench binaries share (--jobs,
// --cache-dir, --json, --trace and --no-skip work as in every bench), and
// the driver prints the summary table, then each point's Section 4.1
// issue-slot breakdown, branch and miss rates.
//
//   ./csmt [--workload W,...] [--arch A,...] [--chips N,...] [--scale N]
//          [--jobs N] [--cache-dir PATH] [--json PATH] [--trace PATH]
//          [--no-skip]
//
// Defaults: ocean on SMT2, one chip (the low-end machine), scale 4. A
// workload is any registered name, micro-kernel or '+' mix ("swim+ocean");
// an arch is a Table 2 name in any case; four chips make the high-end
// DASH machine. For example:
//
//   ./csmt --chips 1,2,4                 # scaling to the high end
//   ./csmt --workload swim --arch fa8,fa4,fa2,fa1,smt4,smt2,smt1
//   ./csmt --scale 2 --trace t.json      # Perfetto trace + phase profile
//
// Bad input prints why and a usage line, and exits 2 before any point
// runs. Exit 1 names each point that did not validate.
#include <cstdio>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "cli/parse.hpp"
#include "common/stats.hpp"
#include "sim/report.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace csmt;

/// The DASH directory's full bit map covers at most 32 chips.
constexpr std::uint64_t kMaxChips = 32;

/// "a,b,c" -> {"a", "b", "c"}. An empty item stays, and fails validation.
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  for (std::size_t begin = 0;;) {
    const std::size_t end = list.find(',', begin);
    items.push_back(list.substr(begin, end - begin));
    if (end == std::string::npos) return items;
    begin = end + 1;
  }
}

void print_point(const sim::ExperimentResult& r) {
  const sim::RunStats& s = r.stats;
  std::printf("\n%s on %s, %u chip%s, scale %u:\n", r.spec.workload.c_str(),
              core::arch_name(r.spec.arch), r.spec.chips,
              r.spec.chips > 1 ? "s" : "", r.spec.scale);
  std::printf("Issue-slot breakdown (Section 4.1 accounting):\n  %s\n",
              s.slots.summary().c_str());
  std::printf("Branch prediction: %.2f%% mispredict rate\n",
              100.0 * s.predictor.mispredict_rate());
  std::printf("Memory: L1 miss %.2f%%, L2 miss %.2f%%, TLB miss %.3f%%\n",
              100.0 * s.mem.l1_miss_rate, 100.0 * s.mem.l2_miss_rate,
              100.0 * s.mem.tlb_miss_rate);
  if (s.dash) {
    std::printf("Coherence: %s fetches, %s remote fetches, %s "
                "interventions, %s invalidations\n",
                format_count(s.dash->fetches).c_str(),
                format_count(s.dash->remote_fetches).c_str(),
                format_count(s.dash->interventions).c_str(),
                format_count(s.dash->invalidations_sent).c_str());
  }
  if (!r.sim_speed.phases_measured) return;
  std::printf("Sim speed: %s\nPhase breakdown (self time):\n",
              r.sim_speed.summary().c_str());
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    std::printf("  %-8s %.3fs\n", obs::phase_name(static_cast<obs::Phase>(p)),
                r.sim_speed.phase_seconds[p]);
  }
  std::printf("Trace: %s (open it in https://ui.perfetto.dev)\n",
              r.spec.trace_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Usage usage{argv[0],
                         "[--workload W,...] [--arch A,...] [--chips N,...]"};
  sweep::SweepSpec grid;
  grid.workloads = {"ocean"};
  grid.archs = {core::ArchKind::kSmt2};
  grid.chips = {1};
  // The driver's three flags come out of argv; the rest is the shared set.
  std::vector<char*> shared = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (const char* v = cli::flag_value(argc, argv, i, "--workload")) {
      grid.workloads = split_list(v);
    } else if (const char* v = cli::flag_value(argc, argv, i, "--arch")) {
      grid.archs.clear();
      for (const std::string& name : split_list(v)) {
        const auto arch = cli::arch_arg(name);
        if (!arch) {
          usage.fail("--arch wants FA1|FA2|FA4|FA8|SMT1|SMT2|SMT4|SMT8 in "
                     "any case, got '" + name + "'");
        }
        grid.archs.push_back(*arch);
      }
    } else if (const char* v = cli::flag_value(argc, argv, i, "--chips")) {
      grid.chips.clear();
      for (const std::string& n : split_list(v)) {
        grid.chips.push_back(static_cast<unsigned>(cli::flag_u64(
            n.c_str(), "--chips", 1, kMaxChips, "chip counts from 1 to 32",
            usage)));
      }
    } else {
      shared.push_back(argv[i]);
    }
  }
  const cli::Options opt = cli::parse_options(
      static_cast<int>(shared.size()), shared.data(), usage.own_flags);
  grid.scales = {opt.scale};

  // Every point must be runnable before any runs: a workload the machine
  // cannot split its contexts among is a usage error, not an abort.
  const std::vector<sim::ExperimentSpec> points = grid.expand();
  for (const sim::ExperimentSpec& p : points) {
    std::string why;
    const unsigned contexts =
        p.chips * core::arch_preset(p.arch).threads_per_chip();
    if (workloads::split_contexts(p.workload, contexts, &why).empty()) {
      usage.fail(why);
    }
  }

  const auto results = cli::run_points(opt, points);
  std::printf("%s", sim::render_summary_table(results).c_str());
  for (const sim::ExperimentResult& r : results) print_point(r);
  cli::export_json(opt, results);
  return cli::all_validated(results) ? 0 : 1;
}
