#include "sim/machine.hpp"

#include <algorithm>
#include <optional>

#include "alloc/controller.hpp"
#include "common/assert.hpp"

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
  // Host time outside every pipeline, memory and noc scope is `other`;
  // those scopes pause it, so the phases sum to the run's wall time.
  obs::ScopedPhase phase(cfg_.profiler, obs::Phase::kOther);
  // A run leaves its clock, clusters and caches behind.
  CSMT_ASSERT_MSG(now_ == 0, "one Machine runs one mix");
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

  // Every run starts from the historical fill (DESIGN.md §11): context s,
  // chip-major, runs mix thread placement[s], and Chip::attach_thread
  // fills a chip's clusters in order. A single job degenerates to the
  // block placement the paper uses (tid 0 on chip 0).
  std::vector<exec::ThreadContext*> threads;
  std::vector<unsigned> job_threads;
  for (std::size_t j = 0; j < mix.jobs.size(); ++j) {
    job_threads.push_back(mix.jobs[j].threads);
    for (unsigned t = 0; t < mix.jobs[j].threads; ++t) {
      threads.push_back(&groups[j]->thread(t));
    }
  }
  const std::vector<unsigned> placement =
      alloc::initial_placement(job_threads);
  const unsigned per_chip = cfg_.arch.threads_per_chip();
  for (unsigned s = 0; s < placement.size(); ++s) {
    chips_[s / per_chip]->attach_thread(threads[placement[s]]);
  }
  // Only a dynamic policy migrates; a static run builds no controller.
  std::optional<alloc::Controller> ctl;
  if (dynamic) {
    std::vector<core::Cluster*> clusters;
    for (auto& chip : chips_) {
      for (unsigned j = 0; j < chip->num_clusters(); ++j) {
        clusters.push_back(&chip->cluster(j));
      }
    }
    ctl.emplace(cfg_.alloc, std::move(clusters), std::move(threads),
                cfg_.trace);
  }
  alloc_ctl_ = ctl ? &*ctl : nullptr;

  MultiRunStats out;
  out.job_finish.assign(mix.jobs.size(), 0);
  if (cfg_.trace) {
    for (auto& g : groups) {
      g->sync().set_trace(cfg_.trace, &now_);
      trace_name_sync_tracks(*g);
    }
  }
  // Allocation epochs (DESIGN.md §11) fire at the top of the loop, after
  // the exit checks and before the tick, on every multiple of the epoch.
  // Static runs never reach the compare.
  const Cycle alloc_interval = dynamic ? cfg_.alloc.resolved_epoch() : 0;
  Cycle next_alloc = alloc_interval ? alloc_interval : kNeverCycle;
  // Single-job static mixes skip the per-tick job bookkeeping, so the hot
  // path of the paper-grid runs stays untouched; their one job's finish
  // cycle is the makespan by definition.
  const bool track_jobs = !single || dynamic;

  std::uint64_t running_accum = 0;
  std::int64_t last_running_traced = -1;
  bool timed_out = false;
  // A tick that changes nothing cannot finish the machine (finishing takes
  // a halt commit, which is an active tick), so the finish check runs only
  // after active ticks. `true` initially: nothing has ticked yet.
  bool check_finished = true;
  while (true) {
    if (check_finished && all_finished()) break;
    if (now_ >= cfg_.max_cycles) {
      timed_out = true;
      break;
    }
    if (now_ >= next_alloc) {
      ctl->on_epoch(now_);
      while (next_alloc <= now_) next_alloc += alloc_interval;
    }
    const bool active = tick_chips(now_);
    check_finished = active;
    const unsigned running = running_now();
    running_accum += running;
    if (cfg_.trace && running != last_running_traced) {
      cfg_.trace->counter({0, 0}, "running_threads", now_, running);
      last_running_traced = running;
    }
    ++now_;
    if (track_jobs) {
      // Advance in-flight migrations and observe job completions. Both
      // change only on a tick that commits, so the cycles jumped below
      // cannot hold one.
      if (ctl) ctl->on_tick(now_);
      for (std::size_t j = 0; j < mix.jobs.size(); ++j) {
        if (out.job_finish[j] == 0 && groups[j]->all_done()) {
          out.job_finish[j] = now_;
        }
      }
    }

    // Every cluster on every chip sleeps and none is flagged: nothing can
    // happen before the earliest sleeper wake. Jump there in one step —
    // clamped to the watchdog, so a deadlocked machine times out at exactly
    // max_cycles, and to the next allocation epoch — and let each sleeper
    // replay the span itself when it wakes or the run ends. The
    // running-thread count holds across the span. Under no_skip and
    // tracing no cluster sleeps, so every cycle ticks.
    if (active) continue;
    Cycle stop = sleep_horizon();
    if (stop <= now_) continue;
    if (all_finished()) {  // drained: let the loop header exit
      check_finished = true;
      continue;
    }
    stop = std::min({stop, cfg_.max_cycles, next_alloc});
    running_accum += (stop - now_) * running;
    quiet_cycles_ += stop - now_;
    now_ = stop;
  }
  // Clusters still asleep at exit (deadlock clamp, or sleeping through the
  // final commit elsewhere) replay their remaining span before any stats
  // read.
  settle_chips(now_);
  alloc_ctl_ = nullptr;

  if (cfg_.trace) trace_flush(now_);
  out.makespan = now_;
  if (!track_jobs) out.job_finish[0] = now_;
  out.combined = collect_stats(now_, running_accum, timed_out);
  if (ctl) out.combined.alloc = ctl->stats();
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

Cycle Machine::sleep_horizon() const {
  Cycle h = kNeverCycle;
  for (const auto& chip : chips_) h = std::min(h, chip->sleep_horizon());
  return h;
}

void Machine::settle_chips(Cycle upto) {
  for (auto& chip : chips_) chip->settle(upto);
}

RunStats Machine::collect_stats(Cycle now, std::uint64_t running_accum,
                                bool timed_out) {
  RunStats out;
  out.timed_out = timed_out;
  out.cycles = now;
  out.avg_running_threads =
      now ? static_cast<double>(running_accum) / static_cast<double>(now) /
                cfg_.chips
          : 0.0;

  core::SlotTally slots;
  for (const auto& chip : chips_) {
    const core::ChipStats cs = chip->stats();
    slots.add(cs.tally);
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
  out.slots = slots.slots();  // the one division of the §4.1 tally
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
