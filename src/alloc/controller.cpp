#include "alloc/controller.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/cluster.hpp"
#include "exec/thread_context.hpp"
#include "obs/trace.hpp"

namespace csmt::alloc {

Controller::Controller(const AllocConfig& cfg,
                       std::vector<core::Cluster*> clusters,
                       std::vector<exec::ThreadContext*> threads,
                       obs::ChromeTraceWriter* trace)
    : epoch_len_(cfg.resolved_epoch()),
      policy_(make_policy(cfg.policy)),
      clusters_(std::move(clusters)),
      threads_(std::move(threads)),
      trace_(trace) {
  CSMT_ASSERT(!clusters_.empty());
  loc_.assign(threads_.size(), Location{});
  prev_instret_.assign(threads_.size(), 0);
  for (unsigned c = 0; c < clusters_.size(); ++c) {
    for (unsigned i = 0; i < clusters_[c]->attached_threads(); ++i) {
      loc_[mix_index_of(clusters_[c]->context_thread(i))] = {c, i};
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

  EpochView view;
  view.clusters = static_cast<unsigned>(clusters_.size());
  view.capacity = clusters_[0]->config().threads;
  view.threads.resize(threads_.size());
  for (unsigned i = 0; i < threads_.size(); ++i) {
    ThreadSample& t = view.threads[i];
    t.cluster = loc_[i].cluster;
    t.done = threads_[i]->done();
    t.migrating = move_pending(i);
    const std::uint64_t instret = threads_[i]->instret();
    t.ipc = static_cast<double>(instret - prev_instret_[i]) /
            static_cast<double>(epoch_len_);
    prev_instret_[i] = instret;
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
      if (occ[c] > view.capacity) {
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
      const Cycle wake = std::max(m.resume_floor, now + kMigrationCost);
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
