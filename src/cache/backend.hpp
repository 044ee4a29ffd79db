// MemoryBackend: what sits behind a chip's L2. On the low-end machine this
// is a local memory controller; on the high-end machine it is the DASH-like
// coherent interconnect (src/noc), which may source lines from local memory,
// remote memory, or a remote chip's L2 (Table 3: 40 / 60 / 75 cycles).
#pragma once

#include "cache/cache_array.hpp"
#include "cache/params.hpp"
#include "common/types.hpp"

namespace csmt::cache {

class MemoryBackend {
 public:
  struct FetchResult {
    /// Contention-free round-trip latency for the level that serviced the
    /// request (Table 3), measured from the core's access time.
    unsigned base_latency = 0;
    /// Additional queuing delay from contention (controller, directory,
    /// network links).
    Cycle extra_delay = 0;
    /// Coherence state granted to the requesting chip.
    LineState grant = LineState::kExclusive;
    ServiceLevel level = ServiceLevel::kLocalMemory;
  };

  virtual ~MemoryBackend() = default;

  /// Fetches the line containing `line_addr` for chip `chip`. `exclusive`
  /// requests write permission. `t_request` is when the request leaves the
  /// chip's L2.
  virtual FetchResult fetch_line(ChipId chip, Addr line_addr, bool exclusive,
                                 Cycle t_request) = 0;

  /// Upgrades an already-resident Shared line to Exclusive (invalidating
  /// remote sharers). Returns the extra delay beyond the local write.
  virtual Cycle upgrade_line(ChipId chip, Addr line_addr, Cycle t_request) = 0;

  /// Accepts a dirty line evicted from the chip's L2.
  virtual void writeback_line(ChipId chip, Addr line_addr, Cycle t) = 0;
};

/// Low-end backend: a single local memory controller with fixed round-trip
/// latency and per-transfer occupancy (creates DRAM-side contention).
class LocalMemoryBackend final : public MemoryBackend {
 public:
  explicit LocalMemoryBackend(const MemSysParams& p)
      : latency_(p.local_memory_latency), occupancy_(p.memory_occupancy) {}

  FetchResult fetch_line(ChipId, Addr, bool, Cycle t_request) override {
    const Cycle start = t_request > busy_until_ ? t_request : busy_until_;
    busy_until_ = start + occupancy_;
    return {latency_, start - t_request, LineState::kExclusive,
            ServiceLevel::kLocalMemory};
  }

  Cycle upgrade_line(ChipId, Addr, Cycle) override {
    // Single chip: every resident line is already writable.
    return 0;
  }

  void writeback_line(ChipId, Addr, Cycle t) override {
    const Cycle start = t > busy_until_ ? t : busy_until_;
    busy_until_ = start + occupancy_;
    ++writebacks_;
  }

  std::uint64_t writebacks() const { return writebacks_; }

 private:
  unsigned latency_;
  unsigned occupancy_;
  Cycle busy_until_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace csmt::cache
