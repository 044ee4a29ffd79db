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
// idle clusters for the survivors to inherit. With --json the sweep is
// also written as a "csmt-mix-policies" artifact for the CI smoke job and
// EXPERIMENTS.md.
#include <map>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace csmt;

constexpr std::pair<const char*, const char*> kPairMixes[] = {
    {"swim", "ocean"},      // ILP-rich + thread-rich
    {"tomcatv", "vpenta"},  // serial-heavy + parallel
    {"mgrid", "fmm"},       // regular + irregular
};

constexpr alloc::PolicyKind kPolicies[] = {
    alloc::PolicyKind::kStatic,
    alloc::PolicyKind::kGreedyUtil,
    alloc::PolicyKind::kSymbiosis,
    alloc::PolicyKind::kIpcMigrate,
};

/// A mix: jobs with per-job context shares in eighths of the machine.
/// Every share must be a whole number of contexts on each organization it
/// runs on (FA2 has 2 contexts, so only halves split there).
struct ShareMix {
  const char* name;
  std::vector<std::pair<const char*, unsigned>> jobs;  ///< (workload, 8ths)
};

const std::vector<ShareMix> kPolicyMixes = {
    {"swim+ocean", {{"swim", 4}, {"ocean", 4}}},
    {"tomcatv+vpenta", {{"tomcatv", 4}, {"vpenta", 4}}},
    // Asymmetric: the short job gets 3/4 of the contexts, so when it
    // drains, the long job's threads are left crowding one cluster while
    // the short job's clusters idle — the load-balancers' home turf.
    {"tomcatv+mgrid", {{"tomcatv", 2}, {"mgrid", 6}}},
};

struct MixRun {
  sim::MultiRunStats stats;
  bool valid = false;
};

struct BuiltJob {
  std::unique_ptr<workloads::Workload> wl;
  std::unique_ptr<mem::PagedMemory> memory;
  workloads::WorkloadBuild build;
  unsigned threads = 0;
};

/// Runs a mix whose jobs split the machine's contexts in eighths. A share
/// that is not a whole, nonzero number of contexts exits 1: a row must
/// never vanish from the table.
MixRun run_mix(const ShareMix& mix, core::ArchKind arch, unsigned scale,
               const alloc::AllocConfig& cfg_alloc) {
  sim::MachineConfig mc;
  mc.arch = core::arch_preset(arch);
  mc.alloc = cfg_alloc;
  const unsigned total = mc.total_threads();

  std::vector<BuiltJob> built;
  std::vector<sim::Job> jobs;
  for (const auto& [name, eighths] : mix.jobs) {
    BuiltJob j;
    j.threads = total * eighths / 8;
    if (total * eighths % 8 != 0 || j.threads == 0) {
      std::fprintf(stderr,
                   "\ncsmt: mix %s on %s cannot run: %s's %u/8 share of %u "
                   "contexts is not a whole, nonzero number of contexts\n",
                   mix.name, core::arch_name(arch), name, eighths, total);
      std::exit(1);
    }
    j.wl = workloads::make_workload(name);
    j.memory = std::make_unique<mem::PagedMemory>();
    j.build = j.wl->build(*j.memory, j.threads, scale);
    built.push_back(std::move(j));
  }
  for (const BuiltJob& j : built) {
    jobs.push_back({&j.build.program, j.memory.get(), j.build.args_base,
                    j.threads});
  }

  sim::Machine machine(mc);
  MixRun r;
  r.stats = machine.run(sim::Mix{jobs});
  r.valid = true;
  for (const BuiltJob& j : built) {
    r.valid = r.valid && j.wl->validate(*j.memory, j.build, j.threads, scale);
  }
  std::fprintf(stderr, ".");
  std::fflush(stderr);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const unsigned scale = std::max(2u, opt.scale / 2);

  std::printf("== Extension E1: multiprogrammed pairs (low-end, scale %u, "
              "each job gets half the contexts) ==\n\n", scale);
  for (const auto& [a, b] : kPairMixes) {
    AsciiTable t;
    t.header({"arch", std::string(a) + " finish", std::string(b) + " finish",
              "makespan", "useful%", "sync%"});
    for (const core::ArchKind arch :
         {core::ArchKind::kFa8, core::ArchKind::kFa2, core::ArchKind::kSmt2,
          core::ArchKind::kSmt1}) {
      const std::string name = std::string(a) + "+" + b;
      const ShareMix mix{name.c_str(), {{a, 4}, {b, 4}}};
      const MixRun r = run_mix(mix, arch, scale, alloc::AllocConfig{});
      t.row({core::arch_name(arch),
             format_count(r.stats.job_finish[0]) + (r.valid ? "" : " (INVALID)"),
             format_count(r.stats.job_finish[1]),
             format_count(r.stats.makespan),
             format_percent(r.stats.combined.slots.fraction(core::Slot::kUseful)),
             format_percent(r.stats.combined.slots.fraction(core::Slot::kSync))});
    }
    std::fprintf(stderr, "\n");
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
  alloc::AllocConfig base;
  base.epoch = opt.alloc_epoch;  // 0 -> the policy default
  std::printf("== Allocation-policy sweep (epoch %llu cycles, "
              "migration cost %llu) ==\n\n",
              static_cast<unsigned long long>(base.resolved_epoch()),
              static_cast<unsigned long long>(base.migration_cost));

  json::Value doc = json::Value::object();
  doc["schema"] = "csmt-mix-policies";
  doc["scale"] = scale;
  doc["epoch"] = base.resolved_epoch();
  doc["migration_cost"] = base.migration_cost;
  json::Value rows = json::Value::array();

  for (const ShareMix& mix : kPolicyMixes) {
    for (const core::ArchKind arch :
         {core::ArchKind::kSmt2, core::ArchKind::kFa8}) {
      AsciiTable t;
      t.header({"policy", "makespan", "agg IPC", "migrations", "rejected",
                "vs static"});
      Cycle static_makespan = 0;
      for (const alloc::PolicyKind policy : kPolicies) {
        alloc::AllocConfig cfg = base;
        cfg.policy = policy;
        const MixRun r = run_mix(mix, arch, scale, cfg);
        const sim::RunStats& c = r.stats.combined;
        const double ipc =
            c.cycles ? static_cast<double>(c.committed_useful) / c.cycles : 0.0;
        if (policy == alloc::PolicyKind::kStatic)
          static_makespan = r.stats.makespan;
        const double delta =
            static_makespan
                ? 100.0 * (static_cast<double>(static_makespan) -
                           static_cast<double>(r.stats.makespan)) /
                      static_cast<double>(static_makespan)
                : 0.0;
        char ipc_buf[32], delta_buf[32];
        std::snprintf(ipc_buf, sizeof ipc_buf, "%.3f", ipc);
        std::snprintf(delta_buf, sizeof delta_buf, "%+.2f%%", delta);
        t.row({alloc::policy_name(policy),
               format_count(r.stats.makespan) + (r.valid ? "" : " (INVALID)"),
               ipc_buf, format_count(c.alloc.migrations),
               format_count(c.alloc.rejected),
               policy == alloc::PolicyKind::kStatic ? "(base)" : delta_buf});

        json::Value row = json::Value::object();
        row["mix"] = mix.name;
        row["arch"] = core::arch_name(arch);
        row["policy"] = alloc::policy_name(policy);
        row["makespan"] = r.stats.makespan;
        row["useful"] = c.committed_useful;
        row["agg_ipc"] = ipc;
        row["valid"] = r.valid;
        json::Value fin = json::Value::array();
        for (const Cycle f : r.stats.job_finish) fin.push_back(f);
        row["job_finish"] = std::move(fin);
        json::Value al = json::Value::object();
        al["epochs"] = c.alloc.epochs;
        al["migrations"] = c.alloc.migrations;
        al["rejected"] = c.alloc.rejected;
        al["drain_cycles"] = c.alloc.drain_cycles;
        al["stall_cycles"] = c.alloc.stall_cycles;
        row["alloc"] = std::move(al);
        rows.push_back(std::move(row));
      }
      std::fprintf(stderr, "\n");
      std::printf("mix: %s on %s\n%s\n", mix.name, core::arch_name(arch),
                  t.render().c_str());
    }
  }
  std::printf(
      "Reading: \"vs static\" is makespan improvement (positive = the\n"
      "dynamic policy finished the mix sooner). Dynamic policies help when\n"
      "jobs finish at different times (the survivor inherits freed\n"
      "clusters) or when complementary threads share an SMT cluster; they\n"
      "cost drain + %llu-cycle restarts per migration when they guess\n"
      "wrong.\n",
      static_cast<unsigned long long>(base.migration_cost));

  doc["results"] = std::move(rows);
  if (!opt.json_path.empty()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "csmt: cannot write JSON artifact '%s'\n",
                   opt.json_path.c_str());
      return 1;
    }
    const std::string text = doc.dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "csmt: wrote %s (%zu policy-sweep rows)\n",
                 opt.json_path.c_str(), doc["results"].items().size());
  }
  return 0;
}
