#include "sim/experiment.hpp"

#include <cstdio>
#include <thread>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace csmt::sim {

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  MachineConfig mc;
  mc.arch = core::arch_preset(spec.arch);
  if (spec.fetch_policy) mc.arch.fetch_policy = *spec.fetch_policy;
  if (spec.window_size) {
    mc.arch.cluster.iq_entries = *spec.window_size;
    mc.arch.cluster.rob_entries = *spec.window_size;
    mc.arch.cluster.int_rename = *spec.window_size;
    mc.arch.cluster.fp_rename = *spec.window_size;
  }
  if (spec.l1_private) mc.mem.l1_private = *spec.l1_private;
  mc.chips = spec.chips;
  mc.metrics_interval = spec.metrics_interval;
  mc.alloc.policy = spec.alloc_policy;
  mc.alloc.epoch = spec.alloc_epoch;
  mc.no_skip = spec.no_skip;

  std::optional<obs::ChromeTraceWriter> writer;
  if (!spec.trace_path.empty()) {
    writer.emplace(spec.trace_path);
    if (writer->ok()) {
      mc.trace = &*writer;
    } else {
      std::fprintf(stderr, "csmt: cannot open trace file '%s'; tracing off\n",
                   spec.trace_path.c_str());
      writer.reset();
    }
  }
  obs::PhaseProfiler profiler;
  if (spec.profile_phases) mc.profiler = &profiler;

  Machine machine(mc);

  std::string why;
  const std::vector<workloads::JobShare> shares =
      workloads::split_contexts(spec.workload, mc.total_threads(), &why);
  CSMT_ASSERT_MSG(!shares.empty(), why.c_str());

  // One address space per job: a mix's jobs share only the machine.
  struct BuiltJob {
    std::unique_ptr<workloads::Workload> wl;
    mem::PagedMemory memory;
    workloads::WorkloadBuild build;
  };
  std::vector<BuiltJob> jobs(shares.size());
  Mix mix;
  for (std::size_t j = 0; j < shares.size(); ++j) {
    BuiltJob& job = jobs[j];
    job.wl = workloads::make_workload(shares[j].workload);
    job.build = job.wl->build(job.memory, shares[j].threads, spec.scale);
    mix.jobs.push_back({&job.build.program, &job.memory, job.build.args_base,
                        shares[j].threads});
  }

  ExperimentResult result;
  result.spec = spec;
  obs::WallTimer timer;
  MultiRunStats run = machine.run(mix);
  result.sim_speed.wall_seconds = timer.elapsed_seconds();
  if (writer) writer->finish();
  result.stats = std::move(run.combined);
  if (jobs.size() > 1) result.job_finish = std::move(run.job_finish);

  result.sim_speed.measured = true;
  result.sim_speed.sim_cycles = result.stats.cycles;
  result.sim_speed.quiet_cycles = machine.quiet_cycles();
  result.sim_speed.cluster_quiet_cycles = machine.cluster_quiet_cycles();
  result.sim_speed.committed =
      result.stats.committed_useful + result.stats.committed_sync;
  result.sim_speed.host_threads = std::thread::hardware_concurrency();
  if (spec.profile_phases) {
    result.sim_speed.phases_measured = true;
    for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
      result.sim_speed.phase_seconds[i] =
          profiler.seconds(static_cast<obs::Phase>(i));
    }
  }

  // A timed-out run carries partial counters; it is reported (and rendered)
  // as TIMEOUT rather than aborting the whole sweep, and never validates.
  result.validated = !result.stats.timed_out;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    result.validated =
        result.validated && jobs[j].wl->validate(jobs[j].memory, jobs[j].build,
                                                 shares[j].threads, spec.scale);
    // The point is done with this address space: hand the pages back now
    // so a sweep's peak RSS tracks one point, not the whole grid
    // (DESIGN.md §14).
    jobs[j].memory.release();
  }
  return result;
}

}  // namespace csmt::sim
