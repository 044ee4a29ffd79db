// csmt::obs interval metrics: an epoch sampler that turns the simulator's
// cumulative counters into a per-interval time series (useful IPC,
// slot-category mix, running-thread count, memory-level activity), so a run
// can be inspected phase by phase instead of as one end-of-run aggregate.
//
// The sampler is pull-based and read-only: the machine loop feeds it the
// per-cycle running-thread count and, at each epoch boundary, a cumulative
// machine-wide counter snapshot; the sampler differences consecutive
// snapshots. It never perturbs RunStats — with sampling off (interval 0)
// the per-cycle cost is one branch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/hazards.hpp"

namespace csmt::obs {

/// Machine-wide counter snapshot (or epoch delta). Built by merging one
/// instance per chip; differenced across epoch boundaries with minus().
struct EpochCounters {
  std::uint64_t committed_useful = 0;
  std::uint64_t committed_sync = 0;
  std::uint64_t fetched = 0;
  core::SlotStats slots;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t bank_rejections = 0;
  std::uint64_t mshr_rejections = 0;

  /// Accumulates another chip's counters into this machine-wide snapshot.
  void merge(const EpochCounters& o) {
    committed_useful += o.committed_useful;
    committed_sync += o.committed_sync;
    fetched += o.fetched;
    slots.merge(o.slots);
    loads += o.loads;
    stores += o.stores;
    l1_misses += o.l1_misses;
    l2_misses += o.l2_misses;
    tlb_misses += o.tlb_misses;
    bank_rejections += o.bank_rejections;
    mshr_rejections += o.mshr_rejections;
  }

  /// Checkpoint visitor (ckpt::Serializer).
  template <class Serializer>
  void serialize(Serializer& s) {
    s.io(committed_useful);
    s.io(committed_sync);
    s.io(fetched);
    slots.serialize(s);
    s.io(loads);
    s.io(stores);
    s.io(l1_misses);
    s.io(l2_misses);
    s.io(tlb_misses);
    s.io(bank_rejections);
    s.io(mshr_rejections);
  }

  /// Delta of two cumulative snapshots (this at the epoch end, `o` at its
  /// start). Counters are monotone, so plain subtraction is exact.
  EpochCounters minus(const EpochCounters& o) const {
    EpochCounters d;
    d.committed_useful = committed_useful - o.committed_useful;
    d.committed_sync = committed_sync - o.committed_sync;
    d.fetched = fetched - o.fetched;
    for (std::size_t i = 0; i < core::kNumSlots; ++i)
      d.slots.slots[i] = slots.slots[i] - o.slots.slots[i];
    d.loads = loads - o.loads;
    d.stores = stores - o.stores;
    d.l1_misses = l1_misses - o.l1_misses;
    d.l2_misses = l2_misses - o.l2_misses;
    d.tlb_misses = tlb_misses - o.tlb_misses;
    d.bank_rejections = bank_rejections - o.bank_rejections;
    d.mshr_rejections = mshr_rejections - o.mshr_rejections;
    return d;
  }
};

/// One closed epoch: machine-wide counter deltas over [begin, end).
struct EpochSample {
  Cycle begin = 0;
  Cycle end = 0;
  /// Machine-wide average of running (non-halted, non-syncing) threads
  /// over the epoch's cycles.
  double avg_running_threads = 0.0;
  EpochCounters counters;

  Cycle length() const { return end > begin ? end - begin : 0; }
  double useful_ipc() const {
    const Cycle n = length();
    return n ? static_cast<double>(counters.committed_useful) /
                   static_cast<double>(n)
             : 0.0;
  }
};

/// Splits a run into fixed-length epochs (the final one may be shorter).
/// Usage, per simulated cycle after the tick:
///
///   if (sampler.enabled()) {
///     sampler.note_running(running);
///     if (sampler.due(cycles_done)) sampler.close(cycles_done, cumulative);
///   }
///   ... end of run: sampler.finish(cycles_done, cumulative);
class EpochSampler {
 public:
  /// `interval` = epoch length in cycles; 0 disables sampling.
  explicit EpochSampler(Cycle interval) : interval_(interval) {}

  bool enabled() const { return interval_ != 0; }
  Cycle interval() const { return interval_; }

  /// Accumulates `cycles` cycles of `running` running threads into the
  /// open epoch. The accumulator holds an integer far below 2^53, so one
  /// addition equals `cycles` additions of `running` exactly.
  void note_running(unsigned running, Cycle cycles = 1) {
    running_accum_ += static_cast<double>(running * cycles);
  }

  /// First cycle past the open epoch: a quiet span must stop here so the
  /// epoch closes on its boundary.
  Cycle epoch_end() const { return epoch_begin_ + interval_; }

  /// True when `cycles_done` completed cycles reach the open epoch's end.
  bool due(Cycle cycles_done) const {
    return enabled() && cycles_done - epoch_begin_ >= interval_;
  }

  /// Closes the open epoch at `now` given the cumulative machine counters.
  void close(Cycle now, const EpochCounters& cumulative) {
    EpochSample s;
    s.begin = epoch_begin_;
    s.end = now;
    s.counters = cumulative.minus(prev_);
    s.avg_running_threads =
        s.length() ? running_accum_ / static_cast<double>(s.length()) : 0.0;
    samples_.push_back(s);
    prev_ = cumulative;
    epoch_begin_ = now;
    running_accum_ = 0.0;
  }

  /// Closes the trailing partial epoch, if any cycles are open.
  void finish(Cycle now, const EpochCounters& cumulative) {
    if (enabled() && now > epoch_begin_) close(now, cumulative);
  }

  const std::vector<EpochSample>& samples() const { return samples_; }
  std::vector<EpochSample> take() { return std::move(samples_); }

  /// Checkpoint visitor (ckpt::Serializer): the open-epoch accumulators and
  /// every closed sample, so the resumed epoch series is bit-identical to
  /// an uninterrupted run's. The interval is config and only checked.
  template <class Serializer>
  void serialize(Serializer& s) {
    s.check(interval_, "metrics interval");
    s.io(epoch_begin_);
    s.io(running_accum_);
    prev_.serialize(s);
    std::uint64_t n = samples_.size();
    s.io(n);
    if (s.loading()) {
      if (!s.bounded_count(n)) {
        samples_.clear();
        return;
      }
      samples_.resize(static_cast<std::size_t>(n));
    }
    for (auto& e : samples_) {
      s.io(e.begin);
      s.io(e.end);
      s.io(e.avg_running_threads);
      e.counters.serialize(s);
    }
  }

 private:
  Cycle interval_ = 0;
  Cycle epoch_begin_ = 0;
  double running_accum_ = 0.0;
  EpochCounters prev_;
  std::vector<EpochSample> samples_;
};

/// Renders a series as a UTF-8 block-character sparkline, scaled to the
/// series' own [min, max] (a flat series renders as a flat mid row).
std::string sparkline(const std::vector<double>& xs);

}  // namespace csmt::obs
