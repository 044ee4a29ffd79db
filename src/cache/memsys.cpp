#include "cache/memsys.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace csmt::cache {
namespace {

std::size_t level_index(ServiceLevel lvl) {
  return static_cast<std::size_t>(lvl);
}

}  // namespace

namespace {

CacheLevelParams split_l1(CacheLevelParams p, unsigned count) {
  if (count > 1) p.size_bytes /= count;
  return p;
}

}  // namespace

MemSys::MemSys(ChipId chip, const MemSysParams& params, MemoryBackend& backend,
               unsigned l1_count)
    : chip_(chip),
      params_(params),
      backend_(backend),
      l2_(params.l2),
      tlb_(params.tlb_entries, /*seed=*/0x7165u + chip),
      mshr_(params.max_outstanding_loads),
      l2_bank_busy_(params.l2.banks, 0),
      l1_reject_window_(static_cast<Cycle>(params.l1.occupancy) *
                        params.bank_queue_depth) {
  CSMT_ASSERT_MSG(params.l1.line_bytes == params.l2.line_bytes,
                  "L1 and L2 must share a line size (inclusive hierarchy)");
  CSMT_ASSERT(l1_count >= 1);
  const CacheLevelParams l1p = split_l1(params.l1, l1_count);
  CSMT_ASSERT_MSG(l1p.num_sets() >= 1, "private L1 split below one set");
  for (unsigned i = 0; i < l1_count; ++i) {
    l1s_.emplace_back(l1p);
    l1_bank_busy_.emplace_back(l1p.banks, 0);
  }
}

CacheArrayStats MemSys::l1_stats() const {
  CacheArrayStats out;
  for (const CacheArray& l1 : l1s_) {
    const CacheArrayStats& s = l1.stats();
    out.hits += s.hits;
    out.misses += s.misses;
  }
  return out;
}

void MemSys::cross_invalidate(unsigned port, Addr line_addr) {
  for (unsigned i = 0; i < l1s_.size(); ++i) {
    if (i == port) continue;
    bool dirty = false;
    if (l1s_[i].invalidate(line_addr, &dirty)) {
      ++stats_.l1_cross_invalidations;
      if (dirty) {
        if (CacheLine* l2line = l2_.probe(line_addr)) l2line->dirty = true;
      }
    }
  }
}

AccessResult MemSys::access(Addr addr, Cycle arrival, bool is_store,
                            bool is_atomic, unsigned port) {
  obs::ScopedPhase phase(prof_, obs::Phase::kMemory);
  // The chip passes its cluster id; with the paper's shared L1 every port
  // is L1 0, and with private L1s the id is already in range.
  const unsigned n_l1 = static_cast<unsigned>(l1s_.size());
  const unsigned l1_index =
      n_l1 == 1 ? 0 : (port < n_l1 ? port : port % n_l1);
  CacheArray& l1 = l1s_[l1_index];
  std::vector<Cycle>& l1_busy = l1_bank_busy_[l1_index];
  Cycle t = arrival;
  if (!tlb_.access(addr)) {
    t += params_.tlb_miss_penalty;
    if (trace_) trace_->instant(track_, "tlb_miss", arrival);
  }
  const Addr line = l1.line_addr_of(addr);
  // Write-invalidate between private L1s: a store removes every other
  // cluster's copy (their next access refetches through the shared L2).
  if (is_store && n_l1 > 1) cross_invalidate(l1_index, line);

  auto accept = [&](Cycle done, ServiceLevel level) {
    (is_store ? stats_.stores : stats_.loads)++;
    ++stats_.by_level[level_index(level)];
    return AccessResult{true, done, level, RejectReason::kNone};
  };
  auto reject_bank = [&] {
    ++stats_.bank_rejections;
    if (trace_) trace_->instant(track_, "bank_reject", arrival);
    return AccessResult{false, 0, ServiceLevel::kL1, RejectReason::kBankBusy};
  };
  auto reject_mshr = [&] {
    ++stats_.mshr_rejections;
    if (trace_) trace_->instant(track_, "mshr_reject", arrival);
    return AccessResult{false, 0, ServiceLevel::kL1, RejectReason::kMshrFull};
  };

  const unsigned b1 = l1.bank_of(addr);
  Cycle t1;
  if (mshr_.in_flight() == 0 && l1_busy[b1] <= t) {
    // Fast path (DESIGN.md §9): nothing is in flight and the target bank is
    // free, so MSHR expiry, the merge probe, and the queue arbitration are
    // all provably no-ops — skip straight to the L1 lookup. The typical
    // L1 hit on a quiet hierarchy pays only TLB + lookup + one bank update.
    t1 = t;
  } else {
    mshr_.expire(t);

    // Secondary miss to a line already in flight: piggyback on that fetch.
    const Cycle outstanding = mshr_.outstanding(line);
    if (outstanding != kNeverCycle) {
      Cycle done = std::max(outstanding, t + 1);
      if (is_store && !is_atomic) done = t + 1;  // drains via the write buffer
      return accept(done, ServiceLevel::kMergedMshr);
    }

    // L1 bank arbitration: the access queues at the bank (bounded queue);
    // queuing shows up as extra latency, overflow as a rejection the core
    // retries against.
    if (l1_busy[b1] > t + l1_reject_window_) return reject_bank();
    t1 = std::max(t, l1_busy[b1]);
  }
  const Cycle l1_queue = t1 - t;
  l1_busy[b1] = t1 + params_.l1.occupancy;

  // Handles a line displaced from L1: dirty data is written into the
  // (inclusive) L2 copy, occupying the destination L2 bank.
  auto handle_l1_eviction = [&](const CacheArray::Eviction& ev) {
    if (!ev.valid || !ev.dirty) return;
    if (CacheLine* l2line = l2_.probe(ev.line_addr)) {
      l2line->dirty = true;
    } else {
      backend_.writeback_line(chip_, ev.line_addr, t);
    }
    const unsigned wb = l2_.bank_of(ev.line_addr);
    l2_bank_busy_[wb] =
        std::max(l2_bank_busy_[wb], t) + params_.l2.occupancy;
  };

  if (CacheLine* line1 = l1.lookup(addr)) {
    if (is_store && line1->state == LineState::kShared) {
      // Store to a Shared line: upgrade through the backend (invalidates
      // remote sharers). The upgrade occupies an MSHR until granted.
      if (mshr_.full()) return reject_mshr();
      const Cycle extra = backend_.upgrade_line(chip_, line, t + 1);
      const Cycle granted = t + 1 + extra;
      mshr_.allocate(line, granted);
      ++stats_.upgrades;
      line1->state = LineState::kExclusive;
      line1->dirty = true;
      if (CacheLine* line2 = l2_.probe(line)) {
        line2->state = LineState::kExclusive;
      }
      return accept(is_atomic ? granted : t + 1, ServiceLevel::kL1);
    }
    if (is_store) line1->dirty = true;
    const Cycle done =
        is_store && !is_atomic ? t + 1 : t1 + params_.l1.latency;
    return accept(done, ServiceLevel::kL1);
  }

  // L1 miss: everything below needs an MSHR. The fill's bank occupancy is
  // charged at request time (approximation: one busy-until per bank).
  if (trace_) trace_->instant(track_, "l1_miss", arrival);
  if (mshr_.full()) return reject_mshr();
  l1_busy[b1] = t1 + params_.l1.fill_time;

  const unsigned b2 = l2_.bank_of(addr);
  const Cycle l2_arrival = t1 + params_.l1.latency;
  const Cycle t2 = std::max(l2_arrival, l2_bank_busy_[b2]);
  const Cycle l2_queue = t2 - l2_arrival;
  l2_bank_busy_[b2] = t2 + params_.l2.occupancy;

  CacheLine* line2 = l2_.lookup(addr);
  const bool want_excl = is_store;

  if (line2 && !(want_excl && line2->state == LineState::kShared)) {
    // L2 hit with sufficient permission: fill L1.
    const Cycle done = t + params_.l2.latency + l1_queue + l2_queue;
    const CacheArray::Eviction ev =
        l1.insert(addr, line2->state, /*dirty=*/is_store);
    handle_l1_eviction(ev);
    mshr_.allocate(line, done);
    return accept(is_store && !is_atomic ? t + 1 : done, ServiceLevel::kL2);
  }

  const Cycle t_request = t2 + params_.l2.occupancy;

  if (line2) {
    // Present in L2 but Shared and a store wants it: upgrade, no data moves.
    const Cycle extra = backend_.upgrade_line(chip_, line, t_request);
    const Cycle done = t + params_.l2.latency + l1_queue + l2_queue + extra;
    line2->state = LineState::kExclusive;
    line2->dirty = true;
    const CacheArray::Eviction ev =
        l1.insert(addr, LineState::kExclusive, /*dirty=*/true);
    handle_l1_eviction(ev);
    mshr_.allocate(line, done);
    ++stats_.upgrades;
    return accept(is_atomic ? done : t + 1, ServiceLevel::kL2);
  }

  // L2 miss: fetch from memory / the coherent interconnect. The L2 fill's
  // bank occupancy is likewise charged at request time.
  if (trace_) trace_->instant(track_, "l2_miss", arrival);
  l2_bank_busy_[b2] = t2 + params_.l2.fill_time;

  const MemoryBackend::FetchResult res =
      backend_.fetch_line(chip_, line, want_excl, t_request);
  const Cycle done =
      t + res.base_latency + l1_queue + l2_queue + res.extra_delay;

  CacheArray::Eviction ev2 = l2_.insert(addr, res.grant, /*dirty=*/is_store);
  if (ev2.valid) {
    // Inclusive hierarchy: back-invalidate every L1 copy of the L2 victim.
    for (CacheArray& other : l1s_) {
      bool l1_dirty = false;
      if (other.invalidate(ev2.line_addr, &l1_dirty) && l1_dirty) {
        ev2.dirty = true;
      }
    }
    if (ev2.dirty) backend_.writeback_line(chip_, ev2.line_addr, done);
  }
  const CacheArray::Eviction ev1 = l1.insert(addr, res.grant, is_store);
  handle_l1_eviction(ev1);
  mshr_.allocate(line, done);
  return accept(is_store && !is_atomic ? t + 1 : done, res.level);
}

bool MemSys::coherence_invalidate(Addr line_addr, bool* was_dirty) {
  bool dirty = false;
  bool present = false;
  for (CacheArray& l1 : l1s_) {
    bool d = false;
    present |= l1.invalidate(line_addr, &d);
    dirty |= d;
  }
  bool d2 = false;
  present |= l2_.invalidate(line_addr, &d2);
  dirty |= d2;
  if (was_dirty) *was_dirty = dirty;
  return present;
}

bool MemSys::coherence_downgrade(Addr line_addr, bool* was_dirty) {
  bool dirty = false;
  bool present = false;
  for (CacheArray& l1 : l1s_) {
    bool d = false;
    present |= l1.downgrade(line_addr, &d);
    dirty |= d;
  }
  bool d2 = false;
  present |= l2_.downgrade(line_addr, &d2);
  dirty |= d2;
  if (was_dirty) *was_dirty = dirty;
  return present;
}

}  // namespace csmt::cache
