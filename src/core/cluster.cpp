#include "core/cluster.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "core/chip.hpp"

namespace csmt::core {
namespace {

/// Thread states for the per-thread trace tracks. kHalt is terminal: a
/// halted thread's track goes quiet instead of carrying an endless slice.
enum ThreadState : std::uint8_t { kRun = 0, kSyncWait, kStall, kHalt };

const char* thread_state_name(std::uint8_t s) {
  switch (s) {
    case kRun: return "run";
    case kSyncWait: return "sync";
    case kStall: return "stall";
    default: return "halt";
  }
}

}  // namespace

Cluster::Cluster(ClusterId id, const ClusterConfig& cfg, FetchPolicy policy,
                 cache::MemSys& memsys, obs::ChromeTraceWriter* trace,
                 obs::PhaseProfiler* prof, std::uint32_t trace_pid)
    : id_(id),
      cfg_(cfg),
      policy_(policy),
      memsys_(memsys),
      predictor_(),
      trace_(trace),
      prof_(prof),
      track_{trace_pid, id} {
  CSMT_ASSERT(cfg.width > 0 && cfg.threads > 0 && cfg.window > 0);
  CSMT_ASSERT_MSG(cfg.window < kNoUop, "window too large for slot indices");
  slots_.resize(cfg.window);
  free_slots_.reserve(cfg.window);
  for (std::uint16_t i = cfg.window; i-- > 0;) free_slots_.push_back(i);
  wheel_.assign(kWheelSlots, kNoSrc);
  far_.reserve(2 * std::size_t{cfg.window});
  ready_.reserve(cfg.window);
  threads_.reserve(cfg.threads);
  // A cycle's hazards: at most `window` waiting or ready uops, one charge
  // per live thread, and the dispatch stall.
  stats_.tally = SlotTally(std::size_t{cfg.window} + cfg.threads + 1);
  if (trace_) {
    trace_->name_track(track_, "cluster " + std::to_string(id_) + " pipeline");
  }
}

void Cluster::attach_thread(exec::ThreadContext* tc) {
  CSMT_ASSERT(tc != nullptr);
  CSMT_ASSERT_MSG(threads_.size() < cfg_.threads,
                  "cluster hardware contexts exhausted");
  tc->set_unblock_hook(&Cluster::unblock_hook, this);
  ThreadSlot slot;
  slot.tc = tc;
  slot.rob.init(cfg_.window);
  if (trace_) {
    slot.obs_track = {track_.pid, obs::kThreadTidBase + tc->tid()};
    trace_->name_track(slot.obs_track,
                       "thread " + std::to_string(tc->tid()));
  }
  threads_.push_back(std::move(slot));
  commit_start_ = commit_rr_ % static_cast<unsigned>(threads_.size());
}

bool Cluster::has_free_context() const {
  unsigned bound = 0;
  for (const ThreadSlot& t : threads_) {
    if (t.tc) ++bound;
  }
  return bound < cfg_.threads;
}

void Cluster::freeze_context(unsigned slot, Cycle now) {
  ensure_awake(now);
  CSMT_ASSERT(slot < threads_.size() && threads_[slot].tc);
  threads_[slot].frozen = true;
  active_ = true;  // the fetch fence changes next_event's answer
}

exec::ThreadContext* Cluster::detach_context(unsigned slot, Cycle now) {
  ensure_awake(now);
  CSMT_ASSERT(slot < threads_.size());
  ThreadSlot& t = threads_[slot];
  CSMT_ASSERT_MSG(t.tc && t.window_count == 0,
                  "detach requires a bound, drained context");
  exec::ThreadContext* tc = t.tc;
  tc->set_unblock_hook(nullptr, nullptr);
  if (trace_) {
    if (t.obs_state != kHalt && now > t.obs_since) {
      trace_->complete(t.obs_track, thread_state_name(t.obs_state),
                       t.obs_since, now);
    }
    trace_->instant(t.obs_track, "migrate_out", now);
  }
  // Migration flushes the context's architectural rename state; the drain
  // precondition means there is no in-flight state to flush.
  t.tc = nullptr;
  t.blocked_on = kNoUop;
  t.blocked_gen = 0;
  t.blocked_sync = false;
  t.was_sync_blocked = false;
  t.wake_at = 0;
  for (auto& e : t.int_map) e = RenameEntry{};
  for (auto& e : t.fp_map) e = RenameEntry{};
  t.in_sync = false;
  t.frozen = false;
  active_ = true;
  return tc;
}

unsigned Cluster::attach_migrated(exec::ThreadContext* tc, bool in_sync,
                                  Cycle now, Cycle wake_at) {
  ensure_awake(now);
  CSMT_ASSERT(tc != nullptr);
  tc->set_unblock_hook(&Cluster::unblock_hook, this);
  unsigned slot = static_cast<unsigned>(threads_.size());
  for (unsigned i = 0; i < threads_.size(); ++i) {
    if (!threads_[i].tc) {
      slot = i;
      break;
    }
  }
  if (slot == threads_.size()) {
    CSMT_ASSERT_MSG(threads_.size() < cfg_.threads,
                    "cluster hardware contexts exhausted");
    ThreadSlot fresh;
    fresh.rob.init(cfg_.window);
    threads_.push_back(std::move(fresh));
    commit_start_ = commit_rr_ % static_cast<unsigned>(threads_.size());
  }
  ThreadSlot& t = threads_[slot];
  t.tc = tc;
  t.wake_at = wake_at;
  // A thread migrated while sync-blocked re-enters the wake protocol here:
  // when the release lands, fetch() charges the sync wake latency on top of
  // whatever migration floor is still in force (the max() above).
  t.was_sync_blocked = tc->sync_blocked();
  t.in_sync = in_sync;
  if (trace_) {
    t.obs_track = {track_.pid, obs::kThreadTidBase + tc->tid()};
    t.obs_state = kStall;  // paying the migration cost until first fetch
    t.obs_since = now;
    trace_->instant(t.obs_track, "migrate_in", now);
  }
  active_ = true;
  return slot;
}

std::uint16_t Cluster::alloc_slot() {
  CSMT_ASSERT(!free_slots_.empty());
  const std::uint16_t idx = free_slots_.back();
  free_slots_.pop_back();
  Uop& u = slots_[idx];
  ++u.gen;  // invalidate stale references from the previous occupant
  u.live = true;
  u.issued = false;
  u.complete_at = kNeverCycle;
  u.consumers = kNoSrc;
  u.pending = 0;
  return idx;
}

void Cluster::free_slot(std::uint16_t idx) {
  slots_[idx].live = false;
  free_slots_.push_back(idx);
}

bool Cluster::mispredict_blocked(const ThreadSlot& t, Cycle now) const {
  if (t.blocked_on == kNoUop) return false;
  const Uop& u = slots_[t.blocked_on];
  if (!u.live || u.gen != t.blocked_gen) return false;  // committed
  // The branch resolves at complete_at; the redirect consumes one more
  // cycle, so fetching resumes strictly after resolution.
  return !(u.issued && u.complete_at < now);
}

bool Cluster::sync_waiting(const ThreadSlot& t, Cycle now) const {
  return t.tc && (t.tc->sync_blocked() || now < t.wake_at);
}

bool Cluster::fetchable(const ThreadSlot& t, Cycle now) const {
  return t.tc && !t.tc->done() && !t.frozen && !sync_waiting(t, now) &&
         !mispredict_blocked(t, now) && !window_full();
}

void Cluster::tick(Cycle now) {
  const std::uint64_t committed_before =
      stats_.committed_useful + stats_.committed_sync;
  const std::uint64_t fetched_before = stats_.fetched;
  const std::uint64_t issued_before = stats_.issued;
  const std::uint64_t rejected_before = stats_.mem_rejections;
  active_ = false;
  {
    obs::ScopedPhase p(prof_, obs::Phase::kCommit);
    commit(now);
  }
  {
    obs::ScopedPhase p(prof_, obs::Phase::kIssue);
    issue(now);
  }
  {
    obs::ScopedPhase p(prof_, obs::Phase::kFetch);
    fetch(now);
  }
  account(now);
  // Any commit, issue, fetch, memory-system access (accepted or rejected),
  // or sync-wake assignment means next cycle's tick may differ from this
  // one: the cluster is active and must be stepped for real.
  active_ = active_ ||
            committed_before != stats_.committed_useful + stats_.committed_sync ||
            fetched_before != stats_.fetched ||
            issued_before != stats_.issued ||
            rejected_before != stats_.mem_rejections;
  if (trace_) trace_cycle(now, committed_before, fetched_before);
}

Cycle Cluster::next_event(Cycle now) {
  if (active_) return now + 1;
  const Cycle next = now + 1;
  Cycle ev = kNeverCycle;
  const auto consider = [&ev, next](Cycle c) {
    if (c < next) c = next;
    if (c < ev) ev = c;
  };
  for (const ThreadSlot& t : threads_) {
    if (!t.rob.empty()) {
      const Uop& head = slots_[t.rob.front()];
      // The ROB head commits the cycle it completes; younger completions
      // are passive until then (dependents are source events below).
      if (head.issued) consider(head.complete_at);
    }
    if (!t.tc || t.tc->done()) continue;
    if (t.tc->sync_blocked()) {
      // Only another cluster's full tick can release this thread, and the
      // release wakes us through the unblock hook. The one self-event is
      // latching was_sync_blocked on the next tick.
      if (!t.was_sync_blocked) return next;
      continue;
    }
    if (t.was_sync_blocked) return next;  // wake_at assignment pending
    if (next < t.wake_at) {
      consider(t.wake_at);  // paying the sync wake latency
      continue;
    }
    if (mispredict_blocked(t, next)) {
      const Uop& b = slots_[t.blocked_on];
      // Fetch resumes the cycle after the branch resolves; an unissued
      // branch is gated by its operands' source events.
      if (b.issued) consider(b.complete_at + 1);
      continue;
    }
    // A frozen context cannot fetch; its remaining horizon contributions
    // (ROB-head commit, wake, mispredict resolution) were considered above.
    if (t.frozen) continue;
    if (!window_full()) return next;  // would fetch next cycle
    // A full window: only a commit (an event above) frees an entry, so
    // this thread contributes no horizon of its own.
  }
  // The issue stage, in O(1): a ready uop issues or charges a slot next
  // cycle. Otherwise the earliest source event ends the span — every event
  // flips a readiness bit and, with it, the stall histogram, even when the
  // uop still cannot issue. A source whose producer has not issued has no
  // cycle of its own: the producer's issue comes first.
  if (!ready_.empty()) return next;
  consider(earliest_event(now));
  if (ev > next) prime_quiet_plan(now);
  return ev;
}

void Cluster::prime_quiet_plan(Cycle now) {
  // Every predicate below is constant across the whole quiescent span
  // (next_event() ends the span at the first cycle any of them flips), so
  // evaluating at the first skipped cycle stands for all of them.
  const Cycle q = now + 1;
  // issue()'s stall histogram: during a quiescent span every IQ entry is
  // operand-stalled, so it is exactly the waiting uops' per-class counts.
  CSMT_ASSERT_MSG(ready_.empty(), "issuable uop inside a quiescent span");
  for (std::size_t i = 0; i < kNumSlots; ++i) quiet_hist_[i] = waiting_[i];
  // account()'s per-thread contributions, plus fetch()'s dispatch stall: a
  // full window stalls strict RR's selected thread, which is any live one,
  // and otherwise the chosen<0 scan's live, unblocked one.
  quiet_live_ = 0;
  bool stalled = false;
  for (const ThreadSlot& t : threads_) {
    if (!t.tc || t.tc->done()) continue;
    ++quiet_live_;
    if (sync_waiting(t, q)) {
      ++quiet_hist_[static_cast<std::size_t>(Slot::kSync)];
    } else if (mispredict_blocked(t, q)) {
      ++quiet_hist_[static_cast<std::size_t>(t.blocked_sync ? Slot::kSync
                                                            : Slot::kControl)];
    } else if (t.window_count == 0) {
      ++quiet_hist_[static_cast<std::size_t>(Slot::kFetch)];
    }
    if (policy_ == FetchPolicy::kRoundRobin || !mispredict_blocked(t, q)) {
      stalled = true;
    }
  }
  if (stalled && window_full()) {
    ++quiet_hist_[static_cast<std::size_t>(Slot::kOther)];
  }
}

void Cluster::quiet_span(Cycle n) {
  stats_.tally.charge(quiet_hist_, cfg_.width, n);
  if (threads_.empty()) return;
  const unsigned size = static_cast<unsigned>(threads_.size());
  commit_rr_ += static_cast<unsigned>(n);  // one commit() turn per cycle
  commit_start_ = commit_rr_ % size;
  if (policy_ != FetchPolicy::kRoundRobin || quiet_live_ == 0) return;
  // Strict RR burns a turn on the next live thread every cycle, stalled or
  // not: the span's last turn is the ((n-1) mod live)-th live thread from
  // the pointer.
  Cycle k = (n - 1) % quiet_live_;
  for (unsigned cand = fetch_start(size);; cand = next_thread(cand, size)) {
    const ThreadSlot& t = threads_[cand];
    if (!t.tc || t.tc->done()) continue;
    if (k-- == 0) {
      fetch_rr_ = cand + 1;
      return;
    }
  }
}

bool Cluster::try_sleep(Cycle now) {
  // Probe deferral (DESIGN.md §9): a failed probe (horizon at now+1)
  // doubles the number of inactive ticks the next probe waits for, so busy
  // clusters with 1-cycle gaps do not pay the per-thread horizon walk and
  // the wheel search every gap.
  if (++idle_streak_ <= sleep_defer_) return false;
  idle_streak_ = 0;
  const Cycle h = next_event(now);
  if (h <= now + 1) {
    sleep_defer_ = sleep_defer_ == 0 ? 1 : std::min<Cycle>(sleep_defer_ * 2, 64);
    return false;
  }
  // next_event primed the quiet plan for (now, h); it stays valid for the
  // whole sleep because nothing internal can change and every external
  // input (sync unblock, freeze/detach/attach) wakes us first.
  sleep_defer_ = 0;
  asleep_ = true;
  wake_queued_ = false;
  sleep_until_ = h;
  quiet_from_ = now + 1;
  return true;
}

void Cluster::settle(Cycle upto) {
  if (quiet_from_ >= upto) return;
  const Cycle n = upto - quiet_from_;
  quiet_span(n);
  quiet_from_ = upto;
  lazy_replayed_ += n;
}

void Cluster::wake(Cycle now) {
  settle(now);
  asleep_ = false;
  wake_queued_ = false;
  idle_streak_ = 0;
}

void Cluster::ensure_awake(Cycle now) {
  if (!asleep_) return;
  wake(now);
  if (chip_) chip_->notify_woken(this);
}

void Cluster::unblock_hook(void* ctx, exec::ThreadContext* /*tc*/) {
  Cluster* c = static_cast<Cluster*>(ctx);
  if (c->asleep_ && c->chip_) c->chip_->signal_wake(c);
}

std::uint8_t Cluster::thread_state(const ThreadSlot& t, Cycle now) const {
  if (!t.tc || t.tc->done()) return kHalt;
  if (sync_waiting(t, now)) return kSyncWait;
  if (mispredict_blocked(t, now) || t.window_count == 0) return kStall;
  return kRun;
}

void Cluster::trace_cycle(Cycle now, std::uint64_t committed_before,
                          std::uint64_t fetched_before) {
  const std::uint64_t committed =
      stats_.committed_useful + stats_.committed_sync - committed_before;
  const std::uint64_t fetched = stats_.fetched - fetched_before;
  const unsigned issued = issued_useful_ + issued_sync_;
  if (fetched) {
    trace_->instant(track_, "fetch", now,
                    static_cast<std::int64_t>(fetched));
  }
  if (issued) {
    trace_->instant(track_, "issue", now, static_cast<std::int64_t>(issued));
  }
  if (committed) {
    trace_->instant(track_, "commit", now,
                    static_cast<std::int64_t>(committed));
  }
  if (dispatch_stalled_) trace_->instant(track_, "dispatch_stall", now);
  // Emit the previous slice when a thread's state changes (so an unchanged
  // state costs one compare per thread).
  for (ThreadSlot& t : threads_) {
    const std::uint8_t st = thread_state(t, now);
    if (st == t.obs_state) continue;
    if (now > t.obs_since && t.obs_state != kHalt) {
      trace_->complete(t.obs_track, thread_state_name(t.obs_state),
                       t.obs_since, now);
    }
    if (st == kHalt) trace_->instant(t.obs_track, "halt", now);
    t.obs_state = st;
    t.obs_since = now;
  }
}

void Cluster::trace_flush(Cycle end) {
  if (!trace_) return;
  for (ThreadSlot& t : threads_) {
    if (t.obs_state != kHalt && end > t.obs_since) {
      trace_->complete(t.obs_track, thread_state_name(t.obs_state),
                       t.obs_since, end);
      t.obs_since = end;
    }
  }
}

void Cluster::commit(Cycle now) {
  if (threads_.empty()) return;
  const unsigned n = static_cast<unsigned>(threads_.size());
  unsigned budget = cfg_.width;
  unsigned next = commit_start_;
  step_commit_rr();
  for (unsigned k = 0; k < n && budget > 0; ++k) {
    ThreadSlot& t = threads_[next];
    next = next_thread(next, n);
    while (budget > 0 && !t.rob.empty()) {
      const std::uint16_t idx = t.rob.front();
      Uop& u = slots_[idx];
      if (!u.issued || u.complete_at > now) break;
      if (u.sync) {
        ++stats_.committed_sync;
      } else {
        ++stats_.committed_useful;
      }
      t.rob.pop_front();
      --t.window_count;
      free_slot(idx);
      --budget;
    }
  }
}

void Cluster::link_src(std::uint16_t idx, unsigned s, Cycle now) {
  Uop& u = slots_[idx];
  const SrcDep& dep = u.src[s];
  if (dep.producer == kNoUop) return;
  Uop& p = slots_[dep.producer];
  // A dead or recycled slot means the producer already committed.
  if (!p.live || p.gen != dep.gen) return;
  const std::uint32_t src = 2u * idx + s;
  if (p.issued) {
    // Already complete: ready at the first issue stage this uop sees.
    if (p.complete_at <= now) return;
    u.pending |= static_cast<std::uint8_t>(1u << s);
    schedule(src, p.complete_at, now);
    return;
  }
  // Unissued: wait on the producer's consumer list.
  u.pending |= static_cast<std::uint8_t>(1u << s);
  u.src_next[s] = p.consumers;
  p.consumers = src;
}

void Cluster::schedule(std::uint32_t src, Cycle at, Cycle now) {
  if (at <= now) {
    satisfy(src);
    return;
  }
  Uop& u = slots_[src >> 1];
  if (at - now < kWheelSlots) {
    // Wheel events lie in (now, now + kWheelSlots), so a bucket never
    // holds two cycles: its pop at `at` finds only due events.
    const std::size_t b = at & (kWheelSlots - 1);
    u.src_next[src & 1] = wheel_[b];
    wheel_[b] = src;
    wheel_bits_[b / 64] |= std::uint64_t{1} << (b % 64);
    ++wheel_events_;
  } else {
    far_.push_back({at, src});
    if (at < far_min_) far_min_ = at;
  }
}

void Cluster::release_consumers(std::uint16_t idx, Cycle now) {
  Uop& p = slots_[idx];
  std::uint32_t src = p.consumers;
  p.consumers = kNoSrc;
  while (src != kNoSrc) {
    const std::uint32_t next = slots_[src >> 1].src_next[src & 1];
    schedule(src, p.complete_at, now);
    src = next;
  }
}

void Cluster::satisfy(std::uint32_t src) {
  const std::uint16_t idx = static_cast<std::uint16_t>(src >> 1);
  Uop& u = slots_[idx];
  --waiting_[static_cast<std::size_t>(waiting_class(u))];
  u.pending &= static_cast<std::uint8_t>(~(1u << (src & 1)));
  if (u.pending == 0) {
    make_ready(idx);
  } else {
    ++waiting_[static_cast<std::size_t>(waiting_class(u))];
  }
}

void Cluster::make_ready(std::uint16_t idx) {
  std::size_t pos = ready_.size();
  ready_.push_back(idx);
  while (pos > 0 && older(idx, ready_[pos - 1])) {
    ready_[pos] = ready_[pos - 1];
    --pos;
  }
  ready_[pos] = idx;
}

void Cluster::pull_far(Cycle now) {
  Cycle min = kNeverCycle;
  std::size_t keep = 0;
  for (const FarEvent& e : far_) {
    if (e.at < now + kWheelSlots) {
      schedule(e.src, e.at, now);  // into the wheel, or fires if due
    } else {
      far_[keep++] = e;
      if (e.at < min) min = e.at;
    }
  }
  far_.resize(keep);
  far_min_ = min;
}

void Cluster::fire_events(Cycle now) {
  if (far_min_ < now + kWheelSlots) pull_far(now);
  const std::size_t b = now & (kWheelSlots - 1);
  std::uint32_t src = wheel_[b];
  if (src != kNoSrc) {
    wheel_[b] = kNoSrc;
    wheel_bits_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    while (src != kNoSrc) {
      const std::uint32_t next = slots_[src >> 1].src_next[src & 1];
      --wheel_events_;
      satisfy(src);
      src = next;
    }
  }
}

Cycle Cluster::earliest_event(Cycle now) const {
  if (wheel_events_ == 0) return far_min_;
  // Every wheel event lies in (now, now + kWheelSlots): the first non-empty
  // bucket at or after now + 1, wrapping once, is the earliest.
  const std::size_t start = (now + 1) & (kWheelSlots - 1);
  const std::size_t w0 = start / 64;
  const std::uint64_t from = ~std::uint64_t{0} << (start % 64);
  for (std::size_t k = 0; k <= kWheelWords; ++k) {
    const std::size_t w = (w0 + k) % kWheelWords;
    std::uint64_t bits = wheel_bits_[w];
    if (k == 0) bits &= from;
    if (k == kWheelWords) bits &= ~from;
    if (bits != 0) {
      const std::size_t b = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      const Cycle at = now + 1 + ((b - start) & (kWheelSlots - 1));
      return at < far_min_ ? at : far_min_;
    }
  }
  CSMT_ASSERT_MSG(false, "wheel event count without a non-empty bucket");
  return far_min_;
}

void Cluster::issue(Cycle now) {
  fire_events(now);
  // §4.1 charges of the uops still waiting on an operand: the per-class
  // counts stand in for a walk of the queue. Ready uops add theirs below.
  for (std::size_t i = 0; i < kNumSlots; ++i) cycle_hist_[i] = waiting_[i];
  issued_useful_ = 0;
  issued_sync_ = 0;
  dispatch_stalled_ = false;

  unsigned fu_used[3] = {0, 0, 0};  // kInt, kLdSt, kFp
  const unsigned fu_limit[3] = {cfg_.int_units, cfg_.ldst_units,
                                cfg_.fp_units};
  unsigned width_used = 0;

  // Ready uops, oldest first, so the width, FU and memory-system checks
  // see them in queue order. Those that cannot issue are compacted toward
  // the front of ready_ in place: the write cursor never passes the read
  // cursor, so no scratch vector is needed.
  std::size_t kept = 0;

  for (const std::uint16_t idx : ready_) {
    Uop& u = slots_[idx];
    auto stall = [&](Slot s) {
      ++cycle_hist_[static_cast<std::size_t>(u.sync ? Slot::kSync : s)];
      ready_[kept++] = idx;
    };

    // Issue bandwidth and functional units (structural hazards).
    if (width_used >= cfg_.width) {
      stall(Slot::kStructural);
      continue;
    }
    if (u.fu != isa::FuClass::kNone) {
      const auto fc = static_cast<std::size_t>(u.fu);
      if (fu_used[fc] >= fu_limit[fc]) {
        stall(Slot::kStructural);
        continue;
      }
      // Memory ops must additionally be accepted by the hierarchy (free
      // bank, free MSHR) — rejection is the paper's memory hazard.
      if (u.is_load || u.is_store) {
        const Cycle arrival = now + 1;
        cache::AccessResult r;
        if (u.is_atomic) {
          r = memsys_.atomic(u.addr, arrival, id_);
        } else if (u.is_store) {
          r = memsys_.store(u.addr, arrival, id_);
        } else {
          r = memsys_.load(u.addr, arrival, id_);
        }
        if (!r.accepted) {
          ++stats_.mem_rejections;
          stall(Slot::kMemory);
          continue;
        }
        u.complete_at =
            u.is_store && !u.is_atomic ? now + u.latency : r.done;
      } else {
        u.complete_at = now + u.latency;
      }
      ++fu_used[fc];
    } else {
      u.complete_at = now + u.latency;
    }

    // No consumer can issue in its producer's cycle, so releasing the
    // consumers below never touches ready_ mid-walk. Every completion is
    // known at issue, which is what lets link_src schedule on it.
    CSMT_ASSERT(u.complete_at > now && u.complete_at != kNeverCycle);
    u.issued = true;
    release_consumers(idx, now);
    ++width_used;
    ++stats_.issued;
    if (u.sync) {
      ++issued_sync_;
    } else {
      ++issued_useful_;
    }
  }
  ready_.resize(kept);
}

void Cluster::fetch(Cycle now) {
  if (threads_.empty()) return;
  const unsigned n = static_cast<unsigned>(threads_.size());

  // Clear expired mispredict blocks; track sync wakeups (a woken thread
  // pays sync_wake_latency — the re-read of the sync line — before its
  // first fetch).
  for (ThreadSlot& t : threads_) {
    if (t.blocked_on != kNoUop && !mispredict_blocked(t, now)) {
      t.blocked_on = kNoUop;
      t.blocked_sync = false;
    }
    if (!t.tc) continue;
    if (t.tc->sync_blocked()) {
      t.was_sync_blocked = true;
    } else if (t.was_sync_blocked) {
      t.was_sync_blocked = false;
      // max(): a thread released while paying a migration wake floor keeps
      // the later of the two. Without migrations the old wake_at was
      // assigned at an earlier `now`, so the max is always the new value —
      // bit-identical to the historical unconditional assignment.
      t.wake_at = std::max(t.wake_at, now + cfg_.sync_wake_latency);
      active_ = true;  // wake horizon changed: recompute next_event
    }
  }

  int chosen = -1;
  switch (policy_) {
    case FetchPolicy::kRoundRobin: {
      // Strict RR over live threads; a stalled thread wastes its turn.
      unsigned cand = fetch_start(n);
      for (unsigned k = 0; k < n; ++k, cand = next_thread(cand, n)) {
        ThreadSlot& t = threads_[cand];
        if (t.tc && !t.tc->done()) {
          fetch_rr_ = cand + 1;
          if (fetchable(t, now)) chosen = static_cast<int>(cand);
          else if (window_full()) dispatch_stalled_ = true;
          break;
        }
      }
      break;
    }
    case FetchPolicy::kRoundRobinSkip: {
      unsigned cand = fetch_start(n);
      for (unsigned k = 0; k < n; ++k, cand = next_thread(cand, n)) {
        if (fetchable(threads_[cand], now)) {
          chosen = static_cast<int>(cand);
          fetch_rr_ = cand + 1;
          break;
        }
      }
      break;
    }
    case FetchPolicy::kIcount: {
      unsigned best = ~0u;
      unsigned cand = fetch_start(n);
      for (unsigned k = 0; k < n; ++k, cand = next_thread(cand, n)) {
        const ThreadSlot& t = threads_[cand];
        if (fetchable(t, now) && t.window_count < best) {
          best = t.window_count;
          chosen = static_cast<int>(cand);
        }
      }
      if (chosen >= 0) fetch_rr_ = static_cast<unsigned>(chosen) + 1;
      break;
    }
  }

  if (chosen < 0) {
    // Nobody could fetch; if the window was full for some live thread,
    // that is a dispatch stall (lack of window/rename space -> `other`).
    if (window_full()) {
      for (const ThreadSlot& t : threads_) {
        if (t.tc && !t.tc->done() && !mispredict_blocked(t, now)) {
          dispatch_stalled_ = true;
          break;
        }
      }
    }
    return;
  }

  ThreadSlot& t = threads_[static_cast<unsigned>(chosen)];
  exec::ThreadContext& tc = *t.tc;

  for (unsigned i = 0; i < cfg_.width; ++i) {
    if (tc.done()) break;
    if (window_full()) {
      dispatch_stalled_ = true;
      break;
    }

    const std::uint16_t idx = alloc_slot();
    Uop& u = slots_[idx];
    exec::DynInst dyn;
    const bool stepped = tc.step(dyn);
    CSMT_ASSERT(stepped);
    const isa::OpInfo& oi = dyn.info();
    // The timing model sees each job in its own address space; the offset
    // belongs to the thread, which keeps this context until it drains.
    u.addr = dyn.mem_addr + tc.timing_addr_offset();
    // Cache the decode-derived hot bits: the issue stage reads them every
    // cycle the uop sits ready, so they must not cost a pointer chase
    // through the static instruction each time.
    u.fu = oi.fu;
    u.latency = oi.latency;
    u.is_load = oi.is_load;
    u.is_store = oi.is_store;
    u.is_atomic = oi.is_atomic;
    u.sync = dyn.sync_tagged();

    // Capture source dependences from the rename maps (before the dest map
    // update, so "add r1, r1, r2" reads the previous writer of r1).
    auto capture = [&](bool rd_int, bool rd_fp, isa::RegIdx r) -> SrcDep {
      if (rd_int) {
        if (r == isa::kRegZero) return {};
        const RenameEntry& e = t.int_map[r];
        return {e.gen, e.producer, e.is_load};
      }
      if (rd_fp) {
        const RenameEntry& e = t.fp_map[r];
        return {e.gen, e.producer, e.is_load};
      }
      return {};
    };
    u.src[0] = capture(oi.reads_int1, oi.reads_fp1, dyn.inst->rs1);
    u.src[1] = capture(oi.reads_int2, oi.reads_fp2, dyn.inst->rs2);
    u.age = next_age_++;
    link_src(idx, 0, now);
    link_src(idx, 1, now);
    if (u.pending == 0) {
      ready_.push_back(idx);  // youngest, so age order holds
    } else {
      ++waiting_[static_cast<std::size_t>(waiting_class(u))];
    }

    if (oi.writes_int && dyn.inst->rd != isa::kRegZero) {
      t.int_map[dyn.inst->rd] = {u.gen, idx, oi.is_load};
    }
    if (oi.writes_fp) t.fp_map[dyn.inst->rd] = {u.gen, idx, oi.is_load};

    t.rob.push_back(idx);
    ++t.window_count;
    t.in_sync = u.sync;
    ++stats_.fetched;

    if (oi.is_cond_branch) {
      const bool correct = predictor_.predict_and_update(
          dyn.pc, dyn.branch_taken, dyn.next_pc);
      if (!correct) {
        t.blocked_on = idx;
        t.blocked_gen = u.gen;
        t.blocked_sync = u.sync;
        break;  // fetch stalls until the branch resolves
      }
      // Correctly predicted (direction + BTB target): the fetch unit keeps
      // following the predicted path within the packet, like Tullsen's
      // 8-instruction-per-thread fetch (§3.2). Unconditional jumps have
      // static targets and never break the packet either.
    }
    if (oi.is_halt) break;
    if (tc.sync_blocked()) break;  // entered a sync primitive and blocked
  }
}

void Cluster::account(Cycle now) {
  // Per-thread fetch/control contributions: a live thread with an empty
  // window either could not be fetched (fetch hazard) or is squashing after
  // a misprediction (control hazard).
  last_running_ = 0;
  for (const ThreadSlot& t : threads_) {
    if (!t.tc || t.tc->done()) continue;
    if (sync_waiting(t, now)) {
      // Blocked in (or waking from) a lock/barrier: the paper's sync slots.
      ++cycle_hist_[static_cast<std::size_t>(Slot::kSync)];
      continue;
    }
    if (mispredict_blocked(t, now)) {
      ++cycle_hist_[static_cast<std::size_t>(t.blocked_sync ? Slot::kSync
                                                            : Slot::kControl)];
    } else if (t.window_count == 0) {
      ++cycle_hist_[static_cast<std::size_t>(Slot::kFetch)];
    }
    if (!t.in_sync) ++last_running_;
  }
  if (dispatch_stalled_) ++cycle_hist_[static_cast<std::size_t>(Slot::kOther)];

  SlotTally& s = stats_.tally;
  s.whole(Slot::kUseful, issued_useful_);
  s.whole(Slot::kSync, issued_sync_);
  const unsigned issued = issued_useful_ + issued_sync_;
  if (issued < cfg_.width) s.charge(cycle_hist_, cfg_.width - issued, 1);
}

bool Cluster::finished() const {
  // A uop in flight belongs to a bound thread that has not drained.
  if (free_slots_.size() != cfg_.window) return false;
  for (const ThreadSlot& t : threads_) {
    if (t.tc && !t.tc->done()) return false;
  }
  return true;
}

unsigned Cluster::running_threads() const { return last_running_; }

}  // namespace csmt::core
