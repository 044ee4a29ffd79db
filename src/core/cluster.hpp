// Cluster: one SMT core of the clustered architecture (§3.2/§3.3).
//
// A cluster owns a fetch unit (round-robin over its hardware threads, one
// thread per cycle, up to `width` instructions), private renaming-register
// pools, a unified out-of-order instruction queue, per-thread in-order
// commit through a shared reorder buffer, and a private set of functional
// units (Table 2). No resources are shared across clusters; the chip's
// caches are shared (§3.4).
//
// The pipeline is execution-driven: the functional front end resolves each
// instruction at fetch, so the timing model sees actual branch outcomes and
// effective addresses (MINT-style, §4).
#pragma once

#include <cstdint>
#include <vector>

#include "branch/predictor.hpp"
#include "cache/memsys.hpp"
#include "common/types.hpp"
#include "core/arch_config.hpp"
#include "core/hazards.hpp"
#include "exec/thread_context.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace csmt::core {

class Chip;

inline constexpr std::uint16_t kNoUop = 0xFFFF;
/// End of an issue-stage source list. A source node names one operand of
/// one in-flight uop: `slot * 2 + operand`.
inline constexpr std::uint32_t kNoSrc = 0xFFFFFFFFu;

/// A source dependence captured at dispatch: either a reference to the
/// producing in-flight uop (generation-tagged, so slot reuse is detected),
/// or "ready since `ready`". Generation first, so it packs into 8 bytes.
struct SrcDep {
  std::uint32_t gen = 0;
  std::uint16_t producer = kNoUop;
  bool producer_is_load = false;
};

/// One in-flight dynamic instruction. The decode-derived fields (`fu`,
/// `latency`, the memory/sync bits) are cached here at dispatch so the
/// issue stage never re-derives them through `dyn.inst`.
struct Uop {
  exec::DynInst dyn;
  std::uint32_t gen = 0;
  unsigned hw_thread = 0;
  Cycle dispatched_at = 0;
  Cycle complete_at = kNeverCycle;
  SrcDep src[2];
  isa::FuClass fu = isa::FuClass::kNone;  ///< cached OpInfo::fu
  std::uint8_t latency = 0;               ///< cached OpInfo::latency
  bool is_load = false;                   ///< cached OpInfo::is_load
  bool is_store = false;                  ///< cached OpInfo::is_store
  bool is_atomic = false;                 ///< cached OpInfo::is_atomic
  bool sync = false;                      ///< cached DynInst::sync_tagged()
  bool live = false;
  bool issued = false;
  bool holds_int_rename = false;
  bool holds_fp_rename = false;
  bool mispredicted = false;

  // Issue-stage links (DESIGN.md §9), derived from the IQ.
  std::uint32_t age = 0;                         ///< dispatch order, see older()
  std::uint32_t consumers = kNoSrc;              ///< sources awaiting our issue
  std::uint32_t src_next[2] = {kNoSrc, kNoSrc};  ///< wheel bucket/consumer link
  std::uint8_t pending = 0;                      ///< bit s: src[s] not ready
};

/// Fixed-capacity FIFO of slot indices: the per-thread ROB view. Capacity is
/// bounded by the cluster's ROB size, so after init() no push/pop ever
/// allocates (unlike std::deque, whose block churn shows up on the tick
/// hot path).
class UopFifo {
 public:
  void init(std::size_t capacity) {
    buf_.assign(capacity, 0);
    head_ = 0;
    count_ = 0;
  }
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::uint16_t front() const { return buf_[head_]; }
  /// The i-th entry from the head (i < size()).
  std::uint16_t at(std::size_t i) const {
    std::size_t pos = head_ + i;
    if (pos >= buf_.size()) pos -= buf_.size();
    return buf_[pos];
  }
  void push_back(std::uint16_t v) {
    std::size_t tail = head_ + count_;
    if (tail >= buf_.size()) tail -= buf_.size();
    buf_[tail] = v;
    ++count_;
  }
  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) head_ = 0;
    --count_;
  }

 private:
  std::vector<std::uint16_t> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

struct ClusterStats {
  SlotStats slots;
  std::uint64_t cycles = 0;
  std::uint64_t fetched = 0;
  std::uint64_t issued = 0;
  std::uint64_t committed_useful = 0;
  std::uint64_t committed_sync = 0;
  std::uint64_t mem_rejections = 0;
  std::uint64_t dispatch_stall_cycles = 0;
};

class Cluster {
 public:
  /// `trace`/`prof` attach observability hooks (nullptr = off);
  /// `trace_pid` is the owning chip's trace process id.
  Cluster(ClusterId id, const ClusterConfig& cfg, FetchPolicy policy,
          cache::MemSys& memsys, obs::TraceSink* trace = nullptr,
          obs::PhaseProfiler* prof = nullptr, std::uint32_t trace_pid = 0);

  /// Binds a software thread to the next free hardware context. At most
  /// `cfg.threads` threads per cluster (Table 2).
  void attach_thread(exec::ThreadContext* tc);

  // --- dynamic allocation surface (csmt::alloc, DESIGN.md §11) ---
  //
  // A migration is freeze -> drain -> detach -> attach_migrated: the
  // controller freezes the source context (fetch stops, in-flight uops keep
  // issuing and committing), waits for the window to drain, detaches the
  // context (rename maps flushed, slot reusable), and re-binds the thread
  // on the destination cluster with an explicit wake floor that charges the
  // migration cost. All of it runs between full ticks, so the cost model is
  // deterministic. `static` runs never call any of these.

  /// Thread bound to hardware context `slot` (nullptr = empty slot).
  exec::ThreadContext* context_thread(unsigned slot) const {
    return threads_[slot].tc;
  }
  /// True when context `slot` has no in-flight uops (safe to detach).
  bool context_drained(unsigned slot) const {
    return threads_[slot].window_count == 0;
  }
  bool context_frozen(unsigned slot) const { return threads_[slot].frozen; }
  /// Earliest fetch cycle the context is already committed to (sync wake
  /// latency in flight); the migration wake floor must not shorten it.
  Cycle context_wake_at(unsigned slot) const {
    return threads_[slot].wake_at;
  }
  /// The context's sync-spinning latch, carried across a migration so the
  /// running-thread characterization stays consistent.
  bool context_in_sync(unsigned slot) const { return threads_[slot].in_sync; }
  /// True when a migrated thread could bind here (an empty slot exists or a
  /// hardware context is still unused).
  bool has_free_context() const;

  /// Stops fetch for context `slot`; issue/commit continue so the window
  /// drains on its own. `now` settles any pending lazy replay first.
  void freeze_context(unsigned slot, Cycle now);
  /// Unbinds a drained context and returns its thread; the slot's rename
  /// state is flushed and the slot becomes reusable.
  exec::ThreadContext* detach_context(unsigned slot, Cycle now);
  /// Binds a migrated thread to a free context; it fetches no earlier than
  /// `wake_at`. Returns the slot used.
  unsigned attach_migrated(exec::ThreadContext* tc, bool in_sync, Cycle now,
                           Cycle wake_at);

  /// Advances the cluster by one cycle: commit, issue, fetch, then
  /// issue-slot accounting (§4.1). Hot-path contract (DESIGN.md §9): with
  /// tracing off, a tick performs zero heap allocations — every scratch
  /// structure is a pre-sized member.
  void tick(Cycle now);

  /// True when the tick at `now` changed observable state (fetched, issued,
  /// committed, touched the memory system, or started a sync wakeup). An
  /// active cluster must be ticked again next cycle.
  bool active_last_tick() const { return active_; }

  /// Earliest cycle > `now` at which a full tick() could change observable
  /// state, assuming no external input (another cluster waking one of our
  /// sync-blocked threads is external; the scheduler re-evaluates after
  /// every full tick, so such wakes are always observed). kNeverCycle when
  /// nothing in flight can ever make progress on its own. Must be called
  /// right after tick(now); when the horizon is beyond now+1 this also
  /// primes the quiet replay plan for the span (now, horizon).
  Cycle next_event(Cycle now);

  /// Replays the per-cycle accounting of tick() for the `n` cycles
  /// starting at `from` inside a quiescent span: the commit/fetch
  /// round-robin pointers advance and the slot/stat accumulators receive
  /// bit-identical increments, but no pipeline work is attempted (none is
  /// possible, by construction of next_event()). Valid only for cycles
  /// strictly before the horizon the last next_event() call returned.
  /// Outside strict round-robin fetch and tracing every cycle of the span
  /// is identical, so the whole span costs one repeat_add per slot
  /// accumulator (DESIGN.md §8).
  void quiet_span(Cycle from, Cycle n);

  /// True when every attached thread has halted and the pipeline is empty.
  bool finished() const;

  // --- component-granular quiescence (DESIGN.md §14) ---
  //
  // A cluster whose horizon is beyond now+1 can go to sleep: the owning
  // chip unlinks it from the per-chip active list and stops ticking it.
  // While asleep the primed quiet plan stays valid (nothing internal can
  // change, and the one external input — a sync unblock — wakes it through
  // the ThreadContext unblock hook), so the skipped cycles are replayed as
  // one quiet_span() by settle() when the cluster next wakes or a stats
  // consumer needs them.

  /// Binds the owning chip for wake notifications (called at chip setup).
  void set_chip(Chip* chip) { chip_ = chip; }

  /// Called by the chip after an inactive tick at `now`: probes the horizon
  /// (with exponential deferral mirroring the machine-level probe backoff)
  /// and falls asleep when it is beyond now+1. Returns true when asleep.
  bool try_sleep(Cycle now);

  /// Replays quiet accounting for all skipped cycles < `upto`. Keeps
  /// the cluster asleep; wake() is settle() plus rejoining the awake world.
  void settle(Cycle upto);

  /// Settles through `now` and marks the cluster awake. The caller (Chip)
  /// relinks it into the active list.
  void wake(Cycle now);

  bool asleep() const { return asleep_; }
  /// The horizon captured when the cluster fell asleep (valid while asleep).
  Cycle sleep_until() const { return sleep_until_; }
  /// Cycles this cluster skipped and lazily replayed (host observability).
  std::uint64_t lazy_replayed() const { return lazy_replayed_; }

  /// Threads currently "running" for the Figure 6 characterization:
  /// attached, not halted, and not inside a sync region.
  unsigned running_threads() const;

  /// Closes the open per-thread state slices at end of run (tracing only).
  void trace_flush(Cycle end);

  const ClusterStats& stats() const { return stats_; }
  const branch::PredictorStats& predictor_stats() const {
    return predictor_.stats();
  }
  ClusterId id() const { return id_; }
  const ClusterConfig& config() const { return cfg_; }
  unsigned attached_threads() const {
    return static_cast<unsigned>(threads_.size());
  }

 private:
  friend class Chip;  ///< active-list linkage + sleep bookkeeping

  struct RenameEntry {
    std::uint32_t gen = 0;
    std::uint16_t producer = kNoUop;
    bool is_load = false;
  };

  struct ThreadSlot {
    exec::ThreadContext* tc = nullptr;
    std::uint16_t blocked_on = kNoUop;  ///< unresolved mispredicted branch
    std::uint32_t blocked_gen = 0;
    bool blocked_sync = false;          ///< the blocking branch was sync-tagged
    bool was_sync_blocked = false;      ///< observed blocked last cycle
    Cycle wake_at = 0;                  ///< earliest fetch after a sync wake
    bool frozen = false;                ///< fetch fenced off while draining
    RenameEntry int_map[isa::kNumIntRegs];
    RenameEntry fp_map[isa::kNumFpRegs];
    unsigned window_count = 0;          ///< in-flight uops of this thread
    bool in_sync = false;               ///< last fetched inst was sync-tagged
    UopFifo rob;                        ///< program order (indices into slots_)

    // Tracing-only state (untouched when the sink is null).
    obs::Track obs_track;               ///< this thread's trace track
    std::uint8_t obs_state = 0;         ///< ThreadState of the open slice
    Cycle obs_since = 0;                ///< where the open slice began
  };

  void commit(Cycle now);
  void issue(Cycle now);
  void fetch(Cycle now);
  void account(Cycle now);

  /// One cycle of quiet_span(), for the spans that replay cycle by cycle.
  /// With a trace sink attached it also emits the cycle's dispatch-stall
  /// instant and thread-state slices.
  void quiet_tick(Cycle now);

  /// Per-cycle trace emission (only called when a sink is attached):
  /// fetch/issue/commit instants on the cluster pipeline track plus
  /// run/sync/stall/halt state slices on each thread's track.
  void trace_cycle(Cycle now, std::uint64_t committed_before,
                   std::uint64_t fetched_before);
  /// The run/sync/stall/halt slices of trace_cycle(), shared with
  /// quiet_tick() so a state that flips inside a quiet span is not lost.
  void trace_thread_states(Cycle now);
  std::uint8_t thread_state(const ThreadSlot& t, Cycle now) const;

  // --- event-driven issue stage (DESIGN.md §9) ---
  //
  // Every unready source of a waiting uop sits in exactly one place: on its
  // producer's consumer list while the producer has not issued, or in the
  // timing wheel once it has (its completion cycle is then known). A source
  // event fires at the top of the issue stage of its cycle — always a full
  // tick, because next_event() reports the earliest event — and a uop
  // whose last source fires joins the age-ordered ready list. Per-class
  // counts of the waiting uops feed the §4.1 charges, so no stage walks
  // the whole queue.

  /// Dispatch-time capture of operand `s` of uop `idx` at `now`.
  void link_src(std::uint16_t idx, unsigned s, Cycle now);
  /// Source node `src` becomes ready at `at`: fires now if `at <= now`,
  /// else lands in the wheel (or the far list beyond its reach).
  void schedule(std::uint32_t src, Cycle at, Cycle now);
  /// Producer `idx` issued with a known completion: schedule its consumers.
  void release_consumers(std::uint16_t idx, Cycle now);
  /// Clears one pending source; the uop joins the ready list on its last.
  void satisfy(std::uint32_t src);
  /// Sorted insert into ready_ by age.
  void make_ready(std::uint16_t idx);
  /// Dispatch order of two uops both in the IQ. Their ages lie within one
  /// window of each other, so the wrapping difference orders them.
  bool older(std::uint16_t a, std::uint16_t b) const {
    return static_cast<std::int32_t>(slots_[a].age - slots_[b].age) < 0;
  }
  /// Fires every source event due at `now` (top of the issue stage).
  void fire_events(Cycle now);
  /// Moves far events that came within the wheel's reach into it.
  void pull_far(Cycle now);
  /// Earliest pending source event after `now` (kNeverCycle if none).
  Cycle earliest_event(Cycle now) const;
  /// The §4.1 hazard a waiting uop is charged: sync for a sync-tagged uop,
  /// else memory or data by the producer of its first unready source.
  static Slot waiting_class(const Uop& u) {
    if (u.sync) return Slot::kSync;
    return u.src[(u.pending & 1) ? 0 : 1].producer_is_load ? Slot::kMemory
                                                           : Slot::kData;
  }
  /// IQ occupancy: every unissued uop is ready or waiting in one class.
  std::size_t iq_size() const {
    return ready_.size() + waiting_[static_cast<std::size_t>(Slot::kData)] +
           waiting_[static_cast<std::size_t>(Slot::kMemory)] +
           waiting_[static_cast<std::size_t>(Slot::kSync)];
  }

  /// True if `t` may fetch this cycle (not done, not sync-blocked or
  /// waking, not mispredict-blocked, room for at least one instruction).
  bool fetchable(const ThreadSlot& t, Cycle now) const;
  /// Thread is inside a sync primitive: blocked, or paying wake latency.
  bool sync_waiting(const ThreadSlot& t, Cycle now) const;
  bool mispredict_blocked(const ThreadSlot& t, Cycle now) const;
  bool has_dispatch_room(const ThreadSlot& t) const;

  std::uint16_t alloc_slot();
  void free_slot(std::uint16_t idx);

  /// Precomputes what a tick would add to the accumulators during the
  /// quiescent span starting at now+1: the per-slot wasted-issue deltas
  /// (with and without a dispatch stall) and the fetch-stage stall
  /// bookkeeping. Every input to these expressions is constant across the
  /// span, so quiet_span() can replay them bit-identically.
  void prime_quiet_plan(Cycle now);

  /// Settles and wakes a sleeping cluster before external mutation
  /// (freeze/detach/attach); tells the chip so the active list stays
  /// consistent. No-op while awake.
  void ensure_awake(Cycle now);

  /// ThreadContext unblock hook: an externally released thread wakes the
  /// owning (possibly sleeping) cluster through the chip.
  static void unblock_hook(void* ctx, exec::ThreadContext* tc);

  ClusterId id_;
  ClusterConfig cfg_;
  FetchPolicy policy_;
  cache::MemSys& memsys_;
  branch::BranchPredictor predictor_;
  obs::TraceSink* trace_ = nullptr;
  obs::PhaseProfiler* prof_ = nullptr;
  obs::Track track_;  ///< this cluster's pipeline track

  std::vector<ThreadSlot> threads_;
  std::vector<Uop> slots_;
  std::vector<std::uint16_t> free_slots_;

  // Issue stage: all derived from the IQ. Every container is sized at
  // construction, so a tick never allocates.
  static constexpr std::size_t kWheelSlots = 1024;  ///< power of two
  static constexpr std::size_t kWheelWords = kWheelSlots / 64;
  struct FarEvent {
    Cycle at;
    std::uint32_t src;
  };
  std::vector<std::uint32_t> wheel_;  ///< bucket heads, by cycle % slots
  std::uint64_t wheel_bits_[kWheelWords] = {};  ///< non-empty buckets
  unsigned wheel_events_ = 0;
  std::vector<FarEvent> far_;         ///< events beyond the wheel's reach
  Cycle far_min_ = kNeverCycle;
  std::vector<std::uint16_t> ready_;  ///< all sources ready, oldest first
  std::uint32_t waiting_[kNumSlots] = {};  ///< unready uops by hazard
  std::uint32_t next_age_ = 0;
  unsigned int_rename_used_ = 0;
  unsigned fp_rename_used_ = 0;
  unsigned fetch_rr_ = 0;
  unsigned commit_rr_ = 0;
  unsigned last_running_ = 0;  ///< Figure 6 sample, updated each tick

  // Per-cycle accounting state (filled by issue(), consumed by account()).
  // The stall histogram counts events, so it is integer; it is converted to
  // double only where account() divides the cycle's wasted slots. Small
  // integers are exact in double, so the conversion reproduces the old
  // per-cycle `+= 1.0` accumulation bit for bit (DESIGN.md §9).
  std::uint32_t cycle_hist_[kNumSlots] = {};
  unsigned issued_useful_ = 0;
  unsigned issued_sync_ = 0;
  bool dispatch_stalled_ = false;

  // Quiescence state: activity flag maintained by tick(), and the replay
  // plan primed by next_event() for quiet_span() (see prime_quiet_plan).
  bool active_ = true;
  double quiet_delta_[2][kNumSlots] = {};  ///< [dispatch_stalled][slot]
  bool quiet_fallback_stall_ = false;      ///< fetch()'s chosen<0 stall scan
  std::vector<char> quiet_stall_if_selected_;  ///< per-thread RR stall check

  // Cluster-level sleep state (DESIGN.md §14).
  Chip* chip_ = nullptr;          ///< wake notifications (not state)
  Cluster* next_active_ = nullptr;  ///< chip's intrusive active list
  bool asleep_ = false;
  bool wake_queued_ = false;      ///< already on the chip's wake list
  Cycle sleep_until_ = 0;         ///< horizon captured at sleep time
  Cycle quiet_from_ = 0;          ///< next skipped cycle not yet replayed
  Cycle idle_streak_ = 0;         ///< inactive ticks since last probe
  Cycle sleep_defer_ = 0;         ///< probe backoff (mirrors kMaxDefer)
  std::uint64_t lazy_replayed_ = 0;

  ClusterStats stats_;
};

}  // namespace csmt::core
