// DashInterconnect: the high-end machine's coherent memory backend (§3.4).
//
// A scalable shared-memory multiprocessor in the style of DASH [8]: each
// node holds a slice of global memory (page-interleaved) plus a full-bit-map
// directory; chips' L2 misses route to the home node, which sources data
// from memory or intervenes at the current owner, and writes invalidate
// remote sharers. Contention is modeled at the network ports, the directory,
// and the per-node memory controllers; contention-free round trips follow
// Table 3 (local memory 40 / remote memory 60 / remote L2 75).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/backend.hpp"
#include "cache/memsys.hpp"
#include "noc/directory.hpp"
#include "noc/network.hpp"
#include "noc/params.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace csmt::noc {

struct DashStats {
  std::uint64_t fetches = 0;
  std::uint64_t remote_fetches = 0;        ///< request's home != requester
  std::uint64_t interventions = 0;         ///< owner probed for data
  std::uint64_t dirty_remote_supplies = 0; ///< serviced at remote-L2 latency
  std::uint64_t invalidations_sent = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t writebacks = 0;
};

class DashInterconnect final : public cache::MemoryBackend {
 public:
  DashInterconnect(const NocParams& noc_params,
                   const cache::MemSysParams& mem_params);

  /// Registers chip `i`'s MemSys; must be called for chips 0..nodes-1 in
  /// order before simulation starts (the interconnect probes/invalidates
  /// through these).
  void attach_chip(cache::MemSys* memsys);

  unsigned home_of(Addr line_addr) const {
    return static_cast<unsigned>((line_addr / params_.home_interleave_bytes) %
                                 params_.nodes);
  }

  // --- MemoryBackend ---
  FetchResult fetch_line(ChipId chip, Addr line_addr, bool exclusive,
                         Cycle t_request) override;
  Cycle upgrade_line(ChipId chip, Addr line_addr, Cycle t_request) override;
  void writeback_line(ChipId chip, Addr line_addr, Cycle t) override;

  /// Earliest cycle > `now` at which an in-flight directory or memory-
  /// controller occupancy drains, or kNeverCycle when all ports are idle.
  /// Like MemSys::next_event this is a conservative horizon for the
  /// quiescence scheduler: the interconnect is call-driven, so nothing
  /// happens at that cycle unless a chip issues a request. Cached with the
  /// same dirty-flag protocol (DESIGN.md §9): occupy_directory /
  /// occupy_memory mark the cache dirty, and a clean still-in-the-future
  /// horizon proves the port-drain set is unchanged.
  Cycle next_event(Cycle now) const {
    if (!horizon_dirty_ && horizon_cache_ > now) return horizon_cache_;
    Cycle ev = kNeverCycle;
    for (const Cycle b : dir_busy_) {
      if (b > now && b < ev) ev = b;
    }
    for (const Cycle b : mem_busy_) {
      if (b > now && b < ev) ev = b;
    }
    horizon_cache_ = ev;
    horizon_dirty_ = false;
    return ev;
  }

  const DashStats& stats() const { return stats_; }
  const NetworkStats& network_stats() const { return net_.stats(); }
  const Directory& directory() const { return dir_; }

  /// Attaches observability hooks (nullptr = off). Directory transactions
  /// land on per-home-node tracks; host time is charged to Phase::kNoc.
  void set_obs(obs::TraceSink* trace, obs::PhaseProfiler* prof);

 private:
  MemoryBackend::FetchResult fetch_line_impl(ChipId chip, Addr line_addr,
                                             bool exclusive, Cycle t_request);

  /// Serializes a transaction at the home directory; returns queuing delay.
  Cycle occupy_directory(unsigned home, Cycle t);
  /// Serializes a line transfer at a node's memory controller.
  Cycle occupy_memory(unsigned home, Cycle t);
  /// Invalidates every sharer in `sharers` except `requester`; returns the
  /// extra delay until all acks are collected (0 when there were none).
  Cycle invalidate_sharers(std::uint32_t sharers, ChipId requester,
                           unsigned home, Addr line_addr, Cycle t);

  NocParams params_;
  cache::MemSysParams mem_params_;
  Network net_;
  Directory dir_;
  std::vector<cache::MemSys*> chips_;
  std::vector<Cycle> dir_busy_;
  std::vector<Cycle> mem_busy_;
  mutable Cycle horizon_cache_ = 0;    ///< last next_event() result
  mutable bool horizon_dirty_ = true;  ///< a port occupancy may have moved
  DashStats stats_;
  obs::TraceSink* trace_ = nullptr;
  obs::PhaseProfiler* prof_ = nullptr;
};

}  // namespace csmt::noc
