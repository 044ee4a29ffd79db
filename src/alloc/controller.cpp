#include "alloc/controller.hpp"

#include <algorithm>

#include "cache/memsys.hpp"
#include "common/assert.hpp"
#include "core/cluster.hpp"
#include "exec/thread_context.hpp"
#include "obs/trace.hpp"

namespace csmt::alloc {

Controller::Controller(const MachineShape& shape, const AllocConfig& cfg,
                       std::vector<core::Cluster*> clusters,
                       std::vector<const cache::MemSys*> memsys,
                       std::vector<exec::ThreadContext*> threads,
                       std::vector<unsigned> job_threads,
                       obs::ChromeTraceWriter* trace)
    : shape_(shape),
      cfg_(cfg),
      policy_(make_policy(cfg)),
      clusters_(std::move(clusters)),
      memsys_(std::move(memsys)),
      threads_(std::move(threads)),
      job_threads_(std::move(job_threads)),
      trace_(trace) {
  CSMT_ASSERT(clusters_.size() == shape_.clusters());
  CSMT_ASSERT(memsys_.size() == clusters_.size());
  loc_.assign(threads_.size(), Location{});
  prev_instret_.assign(threads_.size(), 0);
  prev_issued_.assign(clusters_.size(), 0);
  prev_l1_hits_.assign(clusters_.size(), 0);
  prev_l1_miss_.assign(clusters_.size(), 0);
  prev_tlb_hits_.assign(clusters_.size(), 0);
  prev_tlb_miss_.assign(clusters_.size(), 0);
}

void Controller::place_initial() {
  const Placement p = policy_->initial_placement(shape_, job_threads_);
  CSMT_ASSERT_MSG(p.by_cluster.size() == clusters_.size(),
                  "placement does not cover every cluster");
  for (unsigned c = 0; c < clusters_.size(); ++c) {
    for (const unsigned t : p.by_cluster[c]) {
      CSMT_ASSERT_MSG(t < threads_.size(), "placement names an unknown thread");
      clusters_[c]->attach_thread(threads_[t]);
      loc_[t] = {c, clusters_[c]->attached_threads() - 1};
    }
  }
}

unsigned Controller::mix_index_of(const exec::ThreadContext* tc) const {
  for (unsigned i = 0; i < threads_.size(); ++i) {
    if (threads_[i] == tc) return i;
  }
  CSMT_ASSERT_MSG(false, "context bound to a thread outside the mix");
  return 0;
}

bool Controller::move_pending(unsigned mix_thread) const {
  for (const PendingMove& m : pending_) {
    if (m.mix_thread == mix_thread) return true;
  }
  return false;
}

void Controller::on_epoch(Cycle now) {
  ++stats_.epochs;
  const Cycle epoch_len = cfg_.resolved_epoch();

  EpochView view;
  view.now = now;
  view.epoch_len = epoch_len;
  view.threads.resize(threads_.size());
  view.clusters.resize(clusters_.size());

  for (unsigned i = 0; i < threads_.size(); ++i) {
    ThreadSample& t = view.threads[i];
    t.mix_thread = i;
    t.cluster = loc_[i].cluster;
    t.done = threads_[i]->done();
    t.migrating = move_pending(i);
    const std::uint64_t instret = threads_[i]->instret();
    t.instret_delta = instret - prev_instret_[i];
    prev_instret_[i] = instret;
    t.ipc = static_cast<double>(t.instret_delta) /
            static_cast<double>(epoch_len);
  }
  for (unsigned c = 0; c < clusters_.size(); ++c) {
    ClusterSample& cs = view.clusters[c];
    cs.capacity = clusters_[c]->config().threads;
    const std::uint64_t issued = clusters_[c]->stats().issued;
    cs.issue_util =
        static_cast<double>(issued - prev_issued_[c]) /
        static_cast<double>(clusters_[c]->config().width) /
        static_cast<double>(epoch_len);
    prev_issued_[c] = issued;
    const cache::MemSys& ms = *memsys_[c];
    const std::uint64_t l1h = ms.l1_stats().hits, l1m = ms.l1_stats().misses;
    const std::uint64_t th = ms.tlb_stats().hits, tm = ms.tlb_stats().misses;
    const std::uint64_t dl1 = (l1h - prev_l1_hits_[c]) + (l1m - prev_l1_miss_[c]);
    const std::uint64_t dtlb = (th - prev_tlb_hits_[c]) + (tm - prev_tlb_miss_[c]);
    cs.l1_miss_rate =
        dl1 ? static_cast<double>(l1m - prev_l1_miss_[c]) /
                  static_cast<double>(dl1)
            : 0.0;
    cs.tlb_miss_rate =
        dtlb ? static_cast<double>(tm - prev_tlb_miss_[c]) /
                   static_cast<double>(dtlb)
             : 0.0;
    prev_l1_hits_[c] = l1h;
    prev_l1_miss_[c] = l1m;
    prev_tlb_hits_[c] = th;
    prev_tlb_miss_[c] = tm;
  }
  for (unsigned i = 0; i < threads_.size(); ++i) {
    const Location& l = loc_[i];
    if (l.cluster != kNoCluster && !view.threads[i].done &&
        !view.threads[i].migrating) {
      ++view.clusters[l.cluster].live;
    }
  }

  std::vector<Migration> proposed;
  policy_->plan_epoch(view, proposed);

  // Basic validity (policy bugs must not corrupt the machine).
  std::vector<Migration> moves;
  for (const Migration& m : proposed) {
    const bool valid = m.mix_thread < threads_.size() &&
                       m.to_cluster < clusters_.size() &&
                       !threads_[m.mix_thread]->done() &&
                       !move_pending(m.mix_thread) &&
                       loc_[m.mix_thread].cluster != kNoCluster &&
                       loc_[m.mix_thread].cluster != m.to_cluster;
    if (valid) {
      moves.push_back(m);
    } else {
      ++stats_.rejected;
    }
  }

  // Feasibility on *final* occupancy: after every in-flight and accepted
  // move lands, each cluster must hold at most `capacity` live (non-done)
  // threads — done threads do not count, their contexts are reclaimable.
  // Checking the final state (rather than accepting moves one at a time)
  // admits swaps; an overflow evicts the latest proposal targeting the
  // overfull cluster, deterministically.
  while (!moves.empty()) {
    std::vector<unsigned> occ(clusters_.size(), 0);
    for (unsigned i = 0; i < threads_.size(); ++i) {
      if (threads_[i]->done()) continue;
      unsigned dest = loc_[i].cluster;
      for (const PendingMove& pm : pending_) {
        if (pm.mix_thread == i) dest = pm.to_cluster;
      }
      for (const Migration& m : moves) {
        if (m.mix_thread == i) dest = m.to_cluster;
      }
      if (dest != kNoCluster) ++occ[dest];
    }
    unsigned over = kNoCluster;
    for (unsigned c = 0; c < clusters_.size(); ++c) {
      if (occ[c] > view.clusters[c].capacity) {
        over = c;
        break;
      }
    }
    if (over == kNoCluster) break;
    bool evicted = false;
    for (std::size_t k = moves.size(); k-- > 0;) {
      if (moves[k].to_cluster == over) {
        moves.erase(moves.begin() + static_cast<std::ptrdiff_t>(k));
        ++stats_.rejected;
        evicted = true;
        break;
      }
    }
    // The pre-move state is feasible by invariant, so any overflow names at
    // least one new proposal; the guard keeps a policy bug from looping.
    if (!evicted) {
      stats_.rejected += moves.size();
      moves.clear();
    }
  }

  for (const Migration& m : moves) {
    const Location& l = loc_[m.mix_thread];
    clusters_[l.cluster]->freeze_context(l.slot, now);
    pending_.push_back({m.mix_thread, m.to_cluster, now, false, 0, false});
    if (trace_) {
      trace_->instant({0, 0}, "migrate_start", now,
                      static_cast<std::int64_t>(m.mix_thread));
    }
  }
  // A context already drained at decision time detaches (and possibly
  // lands) in the same cycle: the cost model charges from `now` either way.
  if (!pending_.empty()) advance_pending(now);
}

bool Controller::reclaim_done_context(unsigned c, Cycle now) {
  core::Cluster& cl = *clusters_[c];
  for (unsigned i = 0; i < cl.attached_threads(); ++i) {
    const exec::ThreadContext* tc = cl.context_thread(i);
    if (tc && tc->done() && cl.context_drained(i) && !cl.context_frozen(i)) {
      const unsigned mix = mix_index_of(tc);
      cl.detach_context(i, now);
      loc_[mix] = Location{};
      return true;
    }
  }
  return false;
}

void Controller::advance_pending(Cycle now) {
  // Run to a fixed point: a detach can free the context an attach in the
  // same batch is waiting for (including swaps), so keep sweeping while any
  // move makes progress. Drains are unconditional and final occupancy was
  // checked feasible, so every move eventually completes.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t k = 0; k < pending_.size();) {
      PendingMove& m = pending_[k];
      if (!m.in_transit) {
        const Location l = loc_[m.mix_thread];
        core::Cluster& src = *clusters_[l.cluster];
        if (!src.context_drained(l.slot)) {
          ++k;
          continue;
        }
        m.in_sync = src.context_in_sync(l.slot);
        m.resume_floor = src.context_wake_at(l.slot);
        src.detach_context(l.slot, now);
        stats_.drain_cycles += now - m.decided_at;
        loc_[m.mix_thread] = Location{};
        m.in_transit = true;
        progress = true;
      }
      core::Cluster& dst = *clusters_[m.to_cluster];
      if (!dst.has_free_context() && !reclaim_done_context(m.to_cluster, now)) {
        ++k;
        continue;
      }
      const Cycle wake = std::max(m.resume_floor, now + cfg_.migration_cost);
      const unsigned slot =
          dst.attach_migrated(threads_[m.mix_thread], m.in_sync, now, wake);
      loc_[m.mix_thread] = {m.to_cluster, slot};
      ++stats_.migrations;
      stats_.stall_cycles += wake - m.decided_at;
      if (trace_) {
        trace_->instant({0, 0}, "migrate_done", now,
                        static_cast<std::int64_t>(m.mix_thread));
      }
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(k));
      progress = true;
    }
  }
}

}  // namespace csmt::alloc
