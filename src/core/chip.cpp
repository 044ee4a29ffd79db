#include "core/chip.hpp"

#include "common/assert.hpp"

namespace csmt::core {

Chip::Chip(ChipId id, const ArchConfig& cfg,
           const cache::MemSysParams& mem_params,
           cache::MemoryBackend& backend, obs::ChromeTraceWriter* trace,
           obs::PhaseProfiler* prof)
    : id_(id),
      cfg_(cfg),
      memsys_(id, mem_params, backend,
              mem_params.l1_private ? cfg.clusters : 1) {
  const std::uint32_t pid = obs::kChipPidBase + id;
  if (trace) trace->name_process(pid, "chip " + std::to_string(id));
  memsys_.set_obs(trace, prof);
  clusters_.reserve(cfg.clusters);
  for (unsigned c = 0; c < cfg.clusters; ++c) {
    clusters_.push_back(std::make_unique<Cluster>(
        static_cast<ClusterId>(c), cfg.cluster, cfg.fetch_policy, memsys_,
        trace, prof, pid));
  }
  // All clusters start awake, linked in id order (the baseline tick order).
  Cluster* prev = nullptr;
  for (auto& cl : clusters_) {
    cl->set_chip(this);
    if (prev) {
      prev->next_active_ = cl.get();
    } else {
      active_head_ = cl.get();
    }
    prev = cl.get();
  }
}

void Chip::trace_flush(Cycle end) {
  for (auto& cl : clusters_) cl->trace_flush(end);
}

void Chip::attach_thread(exec::ThreadContext* tc) {
  for (auto& cl : clusters_) {
    if (cl->attached_threads() < cfg_.cluster.threads) {
      cl->attach_thread(tc);
      return;
    }
  }
  CSMT_ASSERT_MSG(false, "chip hardware contexts exhausted");
}

void Chip::tick(Cycle now) {
  if (!wake_pending_.empty() || next_wake_ <= now) process_wakes(now);
  bool any = false;
  ticking_ = true;
  tick_now_ = now;
  Cluster* prev = nullptr;
  for (Cluster* c = active_head_; c != nullptr;) {
    ticking_id_ = c->id();
    ticking_node_ = c;
    const unsigned running_before = c->last_running_;
    c->tick(now);
    running_ += c->last_running_ - running_before;
    // Read the successor only after the tick: an in-tick wake of a
    // higher-id cluster splices it in right here, and the baseline ticks
    // that cluster this same cycle.
    Cluster* next = c->next_active_;
    if (c->active_last_tick()) {
      any = true;
      c->idle_streak_ = 0;
      prev = c;
    } else if (lazy_ && c->try_sleep(now)) {
      if (prev) {
        prev->next_active_ = next;
      } else {
        active_head_ = next;
      }
      c->next_active_ = nullptr;
      ++asleep_n_;
      if (c->sleep_until_ < next_wake_) next_wake_ = c->sleep_until_;
    } else {
      prev = c;
    }
    c = next;
  }
  ticking_ = false;
  last_active_ = any;
}

void Chip::settle(Cycle upto) {
  if (asleep_n_ == 0) return;
  for (auto& cl : clusters_) {
    if (cl->asleep_) cl->settle(upto);
  }
}

void Chip::link_active(Cluster* c) {
  if (!active_head_ || c->id() < active_head_->id()) {
    c->next_active_ = active_head_;
    active_head_ = c;
    return;
  }
  Cluster* p = active_head_;
  while (p->next_active_ && p->next_active_->id() < c->id()) {
    p = p->next_active_;
  }
  c->next_active_ = p->next_active_;
  p->next_active_ = c;
}

void Chip::notify_woken(Cluster* c) {
  CSMT_ASSERT(asleep_n_ > 0);
  --asleep_n_;
  link_active(c);
}

void Chip::signal_wake(Cluster* c) {
  if (!c->asleep_ || c->wake_queued_) return;
  if (ticking_ && c->id() > ticking_id_) {
    // The release lands mid-tick and the baseline's id-ordered loop would
    // tick `c` later this same cycle with the release visible: wake it in
    // place and splice it in after the current node so the loop reaches
    // it. (Only a release from this chip's own tick takes this path;
    // ticking_ is false while any other chip ticks.)
    c->wake(tick_now_);
    CSMT_ASSERT(asleep_n_ > 0);
    --asleep_n_;
    Cluster* p = ticking_node_;
    while (p->next_active_ && p->next_active_->id() < c->id()) {
      p = p->next_active_;
    }
    c->next_active_ = p->next_active_;
    p->next_active_ = c;
  } else {
    // Queue for the top of this chip's next tick — exactly when the
    // baseline's order first lets the target observe the release. On this
    // chip, an earlier-id target already ticked this cycle. From another
    // chip, chips tick in index order: a later chip has not ticked yet and
    // processes the wake this cycle, an earlier one next cycle.
    c->wake_queued_ = true;
    wake_pending_.push_back(c);
  }
}

void Chip::process_wakes(Cycle now) {
  for (Cluster* c : wake_pending_) {
    if (!c->asleep_) {
      c->wake_queued_ = false;  // woke through another path meanwhile
      continue;
    }
    c->wake(now);
    CSMT_ASSERT(asleep_n_ > 0);
    --asleep_n_;
    link_active(c);
  }
  wake_pending_.clear();
  if (next_wake_ <= now) {
    next_wake_ = kNeverCycle;
    for (auto& cl : clusters_) {
      if (!cl->asleep_) continue;
      if (cl->sleep_until_ <= now) {
        cl->wake(now);
        CSMT_ASSERT(asleep_n_ > 0);
        --asleep_n_;
        link_active(cl.get());
      } else if (cl->sleep_until_ < next_wake_) {
        next_wake_ = cl->sleep_until_;
      }
    }
  }
}

std::uint64_t Chip::lazy_replayed() const {
  std::uint64_t n = 0;
  for (const auto& cl : clusters_) n += cl->lazy_replayed();
  return n;
}

bool Chip::finished() const {
  for (const auto& cl : clusters_) {
    if (!cl->finished()) return false;
  }
  return true;
}

ChipStats Chip::stats() const {
  ChipStats s;
  for (const auto& cl : clusters_) {
    const ClusterStats& c = cl->stats();
    s.tally.add(c.tally);
    s.committed_useful += c.committed_useful;
    s.committed_sync += c.committed_sync;
    s.fetched += c.fetched;
    const branch::PredictorStats& p = cl->predictor_stats();
    s.predictor.cond_lookups += p.cond_lookups;
    s.predictor.cond_mispredicts += p.cond_mispredicts;
    s.predictor.btb_misses += p.btb_misses;
  }
  return s;
}

}  // namespace csmt::core
