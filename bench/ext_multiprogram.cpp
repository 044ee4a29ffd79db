// Extension E1 — multiprogrammed workloads. The SMT proposals the paper
// builds on ([16, 9]) were evaluated on multiprogrammed mixes; this bench
// runs pairs of the paper's applications simultaneously (each job gets
// half the machine's hardware contexts, in its own address space) and
// compares how the FA and SMT organizations absorb the mix. The adaptive
// SMTs overlap one job's stalls with the other's work.
//
// The second section sweeps the csmt::alloc policies (DESIGN.md §11) over
// multiprogrammed mixes, SYNPA-style: every dynamic policy starts from the
// same static placement and is free to migrate threads at epoch
// boundaries, so the table isolates what epoch-boundary reallocation buys
// (or costs) on top of each organization. The asymmetric mix is the
// load-balancers' home turf: its jobs finish at different times, leaving
// idle clusters for the survivors to inherit.
//
// A mix is an ordinary workload name ("swim+ocean", "tomcatv*2+mgrid*6";
// workloads::split_contexts), so every point runs through the sweep
// runner like a figure's, and --json writes the standard results artifact.
#include <algorithm>

#include "alloc/policy.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace csmt;

constexpr std::pair<const char*, const char*> kPairMixes[] = {
    {"swim", "ocean"},      // ILP-rich + thread-rich
    {"tomcatv", "vpenta"},  // serial-heavy + parallel
    {"mgrid", "fmm"},       // regular + irregular
};

constexpr core::ArchKind kPairArchs[] = {
    core::ArchKind::kFa8, core::ArchKind::kFa2, core::ArchKind::kSmt2,
    core::ArchKind::kSmt1};

constexpr alloc::PolicyKind kPolicies[] = {
    alloc::PolicyKind::kStatic,
    alloc::PolicyKind::kGreedyUtil,
    alloc::PolicyKind::kSymbiosis,
    alloc::PolicyKind::kIpcMigrate,
};

constexpr core::ArchKind kPolicyArchs[] = {core::ArchKind::kSmt2,
                                           core::ArchKind::kFa8};

/// (label, workload name) of each policy-sweep mix.
constexpr std::pair<const char*, const char*> kPolicyMixes[] = {
    {"swim+ocean", "swim+ocean"},
    {"tomcatv+vpenta", "tomcatv+vpenta"},
    // Asymmetric: the short job gets 3/4 of the contexts, so when it
    // drains, the long job's threads are left crowding one cluster while
    // the short job's clusters idle — the load-balancers' home turf.
    {"tomcatv+mgrid", "tomcatv*2+mgrid*6"},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const unsigned scale = std::max(2u, opt.scale / 2);

  // Pairs first (static), then the policy sweep, in print order. Every
  // point runs at the default epoch (alloc_epoch 0).
  std::vector<sim::ExperimentSpec> points;
  const auto add = [&](const std::string& workload, core::ArchKind arch,
                       alloc::PolicyKind policy) {
    sim::ExperimentSpec spec;
    spec.workload = workload;
    spec.arch = arch;
    spec.scale = scale;
    spec.alloc_policy = policy;
    points.push_back(std::move(spec));
  };
  for (const auto& [a, b] : kPairMixes) {
    for (const core::ArchKind arch : kPairArchs)
      add(std::string(a) + "+" + b, arch, alloc::PolicyKind::kStatic);
  }
  for (const auto& [label, workload] : kPolicyMixes) {
    for (const core::ArchKind arch : kPolicyArchs) {
      for (const alloc::PolicyKind policy : kPolicies)
        add(workload, arch, policy);
    }
  }
  // A share that is not a whole, nonzero number of contexts stops the
  // bench before any point runs: a row must never vanish from the table.
  for (const sim::ExperimentSpec& p : points) {
    std::string why;
    const unsigned contexts =
        p.chips * core::arch_preset(p.arch).threads_per_chip();
    if (workloads::split_contexts(p.workload, contexts, &why).empty()) {
      std::fprintf(stderr, "\ncsmt: mix %s on %s cannot run: %s\n",
                   p.workload.c_str(), core::arch_name(p.arch), why.c_str());
      return 1;
    }
  }
  const auto results = bench::run_points(opt, points);
  auto next = results.begin();

  std::printf("== Extension E1: multiprogrammed pairs (low-end, scale %u, "
              "each job gets half the contexts) ==\n\n", scale);
  for (const auto& [a, b] : kPairMixes) {
    AsciiTable t;
    t.header({"arch", std::string(a) + " finish", std::string(b) + " finish",
              "makespan", "useful%", "sync%"});
    for (std::size_t i = 0; i < std::size(kPairArchs); ++i, ++next) {
      const sim::ExperimentResult& r = *next;
      t.row({core::arch_name(r.spec.arch),
             format_count(r.job_finish[0]) + (r.validated ? "" : " (INVALID)"),
             format_count(r.job_finish[1]), format_count(r.stats.cycles),
             format_percent(r.stats.slots.fraction(core::Slot::kUseful)),
             format_percent(r.stats.slots.fraction(core::Slot::kSync))});
    }
    std::printf("mix: %s + %s\n%s\n", a, b, t.render().c_str());
  }
  std::printf(
      "Expectation: on the FA organizations each job is pinned to its own\n"
      "clusters, so one job's sync/serial stalls idle half the chip; the\n"
      "SMT organizations keep those issue slots busy with the other job\n"
      "and finish the mix sooner.\n\n");

  // -------------------------------------------------------------------
  // Allocation-policy sweep: mixes under every csmt::alloc policy, on the
  // two organizations that bracket the design space.
  std::printf("== Allocation-policy sweep (epoch %llu cycles, "
              "migration cost %llu) ==\n\n",
              static_cast<unsigned long long>(alloc::kDefaultEpoch),
              static_cast<unsigned long long>(alloc::kMigrationCost));
  for (const auto& [label, workload] : kPolicyMixes) {
    for (std::size_t a = 0; a < std::size(kPolicyArchs); ++a) {
      AsciiTable t;
      t.header({"policy", "makespan", "agg IPC", "migrations", "rejected",
                "vs static"});
      Cycle static_makespan = 0;
      for (std::size_t p = 0; p < std::size(kPolicies); ++p, ++next) {
        const sim::ExperimentResult& r = *next;
        const sim::RunStats& c = r.stats;
        const bool is_static =
            r.spec.alloc_policy == alloc::PolicyKind::kStatic;
        const double ipc =
            c.cycles ? static_cast<double>(c.committed_useful) / c.cycles : 0.0;
        if (is_static) static_makespan = c.cycles;
        const double delta =
            static_makespan
                ? 100.0 * (static_cast<double>(static_makespan) -
                           static_cast<double>(c.cycles)) /
                      static_cast<double>(static_makespan)
                : 0.0;
        char ipc_buf[32], delta_buf[32];
        std::snprintf(ipc_buf, sizeof ipc_buf, "%.3f", ipc);
        std::snprintf(delta_buf, sizeof delta_buf, "%+.2f%%", delta);
        t.row({alloc::policy_name(r.spec.alloc_policy),
               format_count(c.cycles) + (r.validated ? "" : " (INVALID)"),
               ipc_buf, format_count(c.alloc.migrations),
               format_count(c.alloc.rejected),
               is_static ? "(base)" : delta_buf});
      }
      std::printf("mix: %s on %s\n%s\n", label,
                  core::arch_name(kPolicyArchs[a]), t.render().c_str());
    }
  }
  std::printf(
      "Reading: \"vs static\" is makespan improvement (positive = the\n"
      "dynamic policy finished the mix sooner). Dynamic policies help when\n"
      "jobs finish at different times (the survivor inherits freed\n"
      "clusters) or when complementary threads share an SMT cluster; they\n"
      "cost drain + %llu-cycle restarts per migration when they guess\n"
      "wrong.\n",
      static_cast<unsigned long long>(alloc::kMigrationCost));
  bench::export_json(opt, results);
  return 0;
}
