#include "core/chip.hpp"

#include <algorithm>

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
  // Chips tick in index order and clusters in id order, so a release from
  // earlier in that order flags its sleeping target before this scan
  // reaches it (the target wakes and ticks this cycle), and one from later
  // in the order flags it after the scan has passed (it wakes next cycle):
  // the per-cycle kernel's rule for when the target first sees the release
  // (DESIGN.md §14).
  bool any = false;
  for (auto& cl : clusters_) {
    Cluster& c = *cl;
    if (c.sleep_until_ > now) continue;
    if (c.asleep_) c.wake(now);
    const unsigned running_before = c.last_running_;
    c.tick(now);
    running_ += c.last_running_ - running_before;
    if (c.active_last_tick()) {
      any = true;
      c.idle_streak_ = 0;
    } else if (lazy_) {
      c.try_sleep(now);
    }
  }
  last_active_ = any;
}

Cycle Chip::sleep_horizon() const {
  Cycle h = kNeverCycle;
  for (const auto& cl : clusters_) h = std::min(h, cl->sleep_until_);
  return h;
}

void Chip::settle(Cycle upto) {
  for (auto& cl : clusters_) {
    if (cl->asleep_) cl->settle(upto);
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
