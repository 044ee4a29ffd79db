#include "sim/machine.hpp"

#include "alloc/controller.hpp"
#include "common/assert.hpp"
#include "sim/scheduler.hpp"

namespace csmt::sim {

Machine::Machine(const MachineConfig& cfg) : cfg_(cfg) {
  CSMT_ASSERT(cfg.chips >= 1);
  if (cfg_.arch.cluster.sync_wake_latency == 0) {
    // Sync wakeup = re-reading the released sync line: roughly an L2-class
    // round trip on the low-end machine, a remote round trip on the
    // high-end one (Table 3 scale).
    cfg_.arch.cluster.sync_wake_latency = cfg_.chips > 1 ? 40 : 15;
  }
  cache::MemoryBackend* backend = nullptr;
  if (cfg_.chips == 1) {
    local_backend_ = std::make_unique<cache::LocalMemoryBackend>(cfg_.mem);
    backend = local_backend_.get();
  } else {
    noc::NocParams np = cfg_.noc;
    np.nodes = cfg_.chips;
    dash_ = std::make_unique<noc::DashInterconnect>(np, cfg_.mem);
    dash_->set_obs(cfg_.trace, cfg_.profiler);
    backend = dash_.get();
  }
  if (cfg_.trace) {
    cfg_.trace->name_process(0, "machine");
    cfg_.trace->name_process(obs::kSyncPid, "sync");
  }
  chips_.reserve(cfg_.chips);
  for (unsigned c = 0; c < cfg_.chips; ++c) {
    chips_.push_back(std::make_unique<core::Chip>(
        static_cast<ChipId>(c), cfg_.arch, cfg_.mem, *backend, cfg_.trace,
        cfg_.profiler));
    if (dash_) dash_->attach_chip(&chips_.back()->memsys());
  }
  // Cluster-level sleep (DESIGN.md §14): off under --no-skip (ground-truth
  // per-cycle kernel) and under tracing, where wake-time replay would emit
  // events out of timestamp order.
  const bool lazy = !cfg_.no_skip && cfg_.trace == nullptr;
  for (auto& chip : chips_) chip->set_lazy(lazy);
}

Machine::~Machine() = default;

obs::EpochCounters Machine::snapshot_counters() const {
  obs::EpochCounters c;
  for (const auto& chip : chips_) {
    const core::ChipStats cs = chip->stats();
    c.committed_useful += cs.committed_useful;
    c.committed_sync += cs.committed_sync;
    c.fetched += cs.fetched;
    c.slots.merge(cs.slots);
    const cache::MemSys& ms = chip->memsys();
    c.loads += ms.stats().loads;
    c.stores += ms.stats().stores;
    c.l1_misses += ms.l1_stats().misses;
    c.l2_misses += ms.l2_stats().misses;
    c.tlb_misses += ms.tlb_stats().misses;
    c.bank_rejections += ms.stats().bank_rejections;
    c.mshr_rejections += ms.stats().mshr_rejections;
  }
  return c;
}

void Machine::trace_name_sync_tracks(const exec::ThreadGroup& group) {
  for (unsigned t = 0; t < group.size(); ++t) {
    cfg_.trace->name_track({obs::kSyncPid, group.thread(t).tid()},
                           "thread " + std::to_string(group.thread(t).tid()));
  }
}

void Machine::trace_flush(Cycle end) {
  for (auto& chip : chips_) chip->trace_flush(end);
}

MultiRunStats Machine::run(const Mix& mix) {
  CSMT_ASSERT_MSG(!mix.jobs.empty(), "a mix needs at least one job");
  unsigned total = 0;
  for (const Job& j : mix.jobs) {
    CSMT_ASSERT_MSG(j.program != nullptr && j.memory != nullptr,
                    "every job needs a program and a functional memory");
    // A 0-thread job would silently skew the placement interleave and
    // starve the validation of the job's results: reject it loudly.
    CSMT_ASSERT_MSG(j.threads >= 1, "a job must request at least one thread");
    total += j.threads;
  }
  CSMT_ASSERT_MSG(total == cfg_.total_threads(),
                  "job thread counts must sum to the machine's contexts");

  const bool single = mix.jobs.size() == 1;
  const bool dynamic = cfg_.alloc.dynamic();

  // One ThreadGroup per job; each job lives in a disjoint simulated
  // physical address space (48-bit regions) so the shared caches, MSHRs,
  // and TLB see them as distinct, like distinct page mappings would.
  std::vector<std::unique_ptr<exec::ThreadGroup>> groups;
  for (std::size_t j = 0; j < mix.jobs.size(); ++j) {
    const Job& job = mix.jobs[j];
    groups.push_back(std::make_unique<exec::ThreadGroup>(
        *job.program, *job.memory, job.threads, job.args_base));
    for (unsigned t = 0; t < job.threads; ++t) {
      groups.back()->thread(t).set_timing_addr_offset(static_cast<Addr>(j)
                                                      << 48);
    }
  }

  // The allocation controller (DESIGN.md §11) owns placement for every
  // policy. Its `static` initial placement reproduces the historical fill:
  // contexts handed out one job at a time in round-robin — which for a
  // single job degenerates to the block placement the paper uses (tid 0 on
  // chip 0) — so `static` runs are bit-identical to the pre-API machine.
  const alloc::MachineShape shape{cfg_.chips, cfg_.arch.clusters,
                                  cfg_.arch.cluster.threads};
  std::vector<core::Cluster*> clusters;
  std::vector<const cache::MemSys*> memsys;
  for (auto& chip : chips_) {
    for (unsigned j = 0; j < chip->num_clusters(); ++j) {
      clusters.push_back(&chip->cluster(j));
      memsys.push_back(&chip->memsys());
    }
  }
  std::vector<exec::ThreadContext*> threads;
  std::vector<unsigned> job_threads;
  for (std::size_t j = 0; j < mix.jobs.size(); ++j) {
    job_threads.push_back(mix.jobs[j].threads);
    for (unsigned t = 0; t < mix.jobs[j].threads; ++t) {
      threads.push_back(&groups[j]->thread(t));
    }
  }
  alloc::Controller ctl(shape, cfg_.alloc, std::move(clusters),
                        std::move(memsys), std::move(threads),
                        std::move(job_threads), cfg_.trace);
  ctl.place_initial();
  alloc_ctl_ = dynamic ? &ctl : nullptr;

  MultiRunStats out;
  out.job_finish.assign(mix.jobs.size(), 0);
  obs::EpochSampler sampler(cfg_.metrics_interval);
  Scheduler sched(*this, sampler);
  if (cfg_.trace) {
    for (auto& g : groups) {
      g->sync().set_trace(cfg_.trace, sched.clock());
      trace_name_sync_tracks(*g);
    }
  }
  if (dynamic) {
    sched.set_alloc_epoch(cfg_.alloc.resolved_epoch(),
                          [&ctl](Cycle now) { ctl.on_epoch(now); });
  }

  // Per-tick hook: advance in-flight migrations and observe job
  // completions. A job can only finish on a full tick (its last thread has
  // to fetch a halt), so the hook sees every completion exactly when the
  // per-cycle kernel did. Single-job static mixes skip the hook entirely —
  // the hot path of the paper-grid runs stays untouched — and their one
  // job's finish cycle is the makespan by definition.
  const bool track_jobs = !single || dynamic;
  std::function<void(Cycle)> after_tick;
  if (track_jobs) {
    after_tick = [&](Cycle now) {
      if (dynamic) ctl.on_tick(now);
      for (std::size_t j = 0; j < mix.jobs.size(); ++j) {
        if (out.job_finish[j] == 0 && groups[j]->all_done()) {
          out.job_finish[j] = now;
        }
      }
    };
  }
  const Scheduler::Result r = sched.run(after_tick);
  alloc_ctl_ = nullptr;

  if (cfg_.trace) trace_flush(r.cycles);
  sampler.finish(r.cycles, snapshot_counters());
  quiet_cycles_ = sched.quiet_cycles();
  out.makespan = r.cycles;
  if (!track_jobs) out.job_finish[0] = r.cycles;
  out.combined = collect_stats(r.cycles, r.running_accum, r.timed_out);
  out.combined.epochs = sampler.take();
  out.combined.alloc = ctl.stats();
  return out;
}

bool Machine::all_finished() const {
  // A thread mid-migration is bound to no cluster; the machine is not
  // finished until every move has landed.
  if (alloc_ctl_ && !alloc_ctl_->idle()) return false;
  for (const auto& chip : chips_) {
    if (!chip->finished()) return false;
  }
  return true;
}

bool Machine::tick_chips(Cycle now) {
  // Chips tick in index order; cross-chip traffic (DASH requests, atomics,
  // sync hand-offs) takes effect inside the tick, in call order (DESIGN.md
  // §13).
  bool active = false;
  for (auto& chip : chips_) {
    chip->tick(now);
    active |= chip->active_last_tick();
  }
  return active;
}

unsigned Machine::running_now() const {
  unsigned running = 0;
  for (const auto& chip : chips_) running += chip->running_threads();
  return running;
}

Cycle Machine::next_event(Cycle now) {
  Cycle ev = dash_ ? dash_->next_event(now) : kNeverCycle;
  for (auto& chip : chips_) {
    const Cycle c = chip->next_event(now);
    if (c < ev) ev = c;
  }
  return ev;
}

void Machine::settle_chips(Cycle upto) {
  for (auto& chip : chips_) chip->settle(upto);
}

void Machine::quiet_span_chips(Cycle from, Cycle n) {
  if (cfg_.trace) {
    for (Cycle c = from; c < from + n; ++c) {
      for (auto& chip : chips_) chip->quiet_span(c, 1);
    }
    return;
  }
  for (auto& chip : chips_) chip->quiet_span(from, n);
}

RunStats Machine::collect_stats(Cycle now, double running_accum,
                                bool timed_out) {
  RunStats out;
  out.timed_out = timed_out;
  out.cycles = now;
  out.avg_running_threads =
      now ? running_accum / static_cast<double>(now) / cfg_.chips : 0.0;

  for (const auto& chip : chips_) {
    const core::ChipStats cs = chip->stats();
    out.slots.merge(cs.slots);
    out.committed_useful += cs.committed_useful;
    out.committed_sync += cs.committed_sync;
    out.fetched += cs.fetched;
    out.predictor.cond_lookups += cs.predictor.cond_lookups;
    out.predictor.cond_mispredicts += cs.predictor.cond_mispredicts;
    out.predictor.btb_misses += cs.predictor.btb_misses;

    const cache::MemSysStats& ms = chip->memsys().stats();
    out.mem.loads += ms.loads;
    out.mem.stores += ms.stores;
    for (std::size_t i = 0; i < ms.by_level.size(); ++i)
      out.mem.by_level[i] += ms.by_level[i];
    out.mem.bank_rejections += ms.bank_rejections;
    out.mem.mshr_rejections += ms.mshr_rejections;
    out.mem.upgrades += ms.upgrades;
    out.mem.l1_cross_invalidations += ms.l1_cross_invalidations;
  }
  // Miss rates: weighted merge across chips.
  {
    std::uint64_t l1h = 0, l1m = 0, l2h = 0, l2m = 0, th = 0, tm = 0;
    for (const auto& chip : chips_) {
      l1h += chip->memsys().l1_stats().hits;
      l1m += chip->memsys().l1_stats().misses;
      l2h += chip->memsys().l2_stats().hits;
      l2m += chip->memsys().l2_stats().misses;
      th += chip->memsys().tlb_stats().hits;
      tm += chip->memsys().tlb_stats().misses;
    }
    auto rate = [](std::uint64_t m, std::uint64_t h) {
      return (m + h) ? static_cast<double>(m) / static_cast<double>(m + h)
                     : 0.0;
    };
    out.mem.l1_miss_rate = rate(l1m, l1h);
    out.mem.l2_miss_rate = rate(l2m, l2h);
    out.mem.tlb_miss_rate = rate(tm, th);
  }
  if (dash_) out.dash = dash_->stats();
  return out;
}

}  // namespace csmt::sim
