#include "noc/dash.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace csmt::noc {

using cache::LineState;
using cache::ServiceLevel;

DashInterconnect::DashInterconnect(const NocParams& noc_params,
                                   const cache::MemSysParams& mem_params)
    : params_(noc_params),
      mem_params_(mem_params),
      net_(noc_params),
      dir_busy_(noc_params.nodes, 0),
      mem_busy_(noc_params.nodes, 0) {
  CSMT_ASSERT_MSG(noc_params.nodes <= 32,
                  "full-bit-map directory supports at most 32 chips");
}

void DashInterconnect::set_obs(obs::ChromeTraceWriter* trace,
                               obs::PhaseProfiler* prof) {
  trace_ = trace;
  prof_ = prof;
  if (trace_) {
    trace_->name_process(obs::kNocPid, "dash");
    for (unsigned n = 0; n < params_.nodes; ++n) {
      trace_->name_track({obs::kNocPid, n}, "home " + std::to_string(n));
    }
  }
}

void DashInterconnect::attach_chip(cache::MemSys* memsys) {
  CSMT_ASSERT(memsys != nullptr);
  CSMT_ASSERT_MSG(chips_.size() < params_.nodes, "too many chips attached");
  CSMT_ASSERT_MSG(memsys->chip() == chips_.size(),
                  "chips must be attached in id order");
  chips_.push_back(memsys);
}

Cycle DashInterconnect::occupy_directory(unsigned home, Cycle t) {
  const Cycle start = std::max(t, dir_busy_[home]);
  dir_busy_[home] = start + params_.directory_occupancy;
  return start - t;
}

Cycle DashInterconnect::occupy_memory(unsigned home, Cycle t) {
  const Cycle start = std::max(t, mem_busy_[home]);
  mem_busy_[home] = start + mem_params_.memory_occupancy;
  return start - t;
}

Cycle DashInterconnect::invalidate_sharers(std::uint32_t sharers,
                                           ChipId requester, unsigned home,
                                           Addr line_addr, Cycle t) {
  Cycle worst = 0;
  bool any = false;
  for (unsigned s = 0; s < params_.nodes; ++s) {
    if (!(sharers & Directory::bit(s)) || s == requester) continue;
    any = true;
    const Cycle queued = net_.send(home, s, t);
    chips_[s]->coherence_invalidate(line_addr, nullptr);
    ++stats_.invalidations_sent;
    worst = std::max(worst, queued);
  }
  // The requester waits for all acks; the ack round trip is contention-free
  // plus the worst queuing among the invalidation messages.
  return any ? worst + params_.invalidation_round_trip : 0;
}

cache::MemoryBackend::FetchResult DashInterconnect::fetch_line(
    ChipId chip, Addr line_addr, bool exclusive, Cycle t_request) {
  obs::ScopedPhase phase(prof_, obs::Phase::kNoc);
  const FetchResult res = fetch_line_impl(chip, line_addr, exclusive,
                                          t_request);
  if (trace_) {
    // One slice per directory transaction on the home node's track, from
    // request to data grant; the arg is the requesting chip.
    trace_->complete({obs::kNocPid, home_of(line_addr)},
                     exclusive ? "fetch_excl" : "fetch", t_request,
                     t_request + res.base_latency + res.extra_delay,
                     static_cast<std::int64_t>(chip));
  }
  return res;
}

cache::MemoryBackend::FetchResult DashInterconnect::fetch_line_impl(
    ChipId chip, Addr line_addr, bool exclusive, Cycle t_request) {
  CSMT_ASSERT_MSG(chips_.size() == params_.nodes,
                  "all chips must be attached before simulation");
  ++stats_.fetches;
  const unsigned home = home_of(line_addr);
  if (home != chip) ++stats_.remote_fetches;

  const unsigned mem_level_base = home == chip
                                      ? mem_params_.local_memory_latency
                                      : mem_params_.remote_memory_latency;
  const ServiceLevel mem_level = home == chip ? ServiceLevel::kLocalMemory
                                              : ServiceLevel::kRemoteMemory;

  Cycle extra = net_.send(chip, home, t_request);
  extra += occupy_directory(home, t_request + extra);

  DirEntry& e = dir_.entry(line_addr);
  FetchResult res;

  switch (e.state) {
    case DirState::kUncached:
      extra += occupy_memory(home, t_request + extra);
      e = {DirState::kOwned, 0, chip};
      res = {mem_level_base, extra, LineState::kExclusive, mem_level};
      break;

    case DirState::kShared: {
      if (exclusive) {
        extra += invalidate_sharers(e.sharers, chip, home, line_addr,
                                    t_request + extra);
        extra += occupy_memory(home, t_request + extra);
        e = {DirState::kOwned, 0, chip};
        res = {mem_level_base, extra, LineState::kExclusive, mem_level};
      } else {
        extra += occupy_memory(home, t_request + extra);
        e.sharers |= Directory::bit(chip);
        res = {mem_level_base, extra, LineState::kShared, mem_level};
      }
      break;
    }

    case DirState::kOwned: {
      if (e.owner == chip) {
        // The chip silently evicted a clean exclusive line and is
        // re-fetching it; the directory state was stale but harmless.
        extra += occupy_memory(home, t_request + extra);
        res = {mem_level_base, extra,
               exclusive ? LineState::kExclusive : LineState::kExclusive,
               mem_level};
        break;
      }
      // Intervene at the current owner.
      ++stats_.interventions;
      if (trace_) {
        trace_->instant({obs::kNocPid, home}, "intervention", t_request,
                        static_cast<std::int64_t>(e.owner));
      }
      extra += net_.send(home, e.owner, t_request + extra);
      bool dirty = false;
      bool present;
      const ChipId owner = e.owner;
      if (exclusive) {
        present = chips_[owner]->coherence_invalidate(line_addr, &dirty);
      } else {
        present = chips_[owner]->coherence_downgrade(line_addr, &dirty);
      }
      if (present && dirty) {
        // Dirty data supplied cache-to-cache at remote-L2 latency.
        ++stats_.dirty_remote_supplies;
        extra += net_.send(owner, chip, t_request + extra);
        res.base_latency = mem_params_.remote_l2_latency;
        res.level = ServiceLevel::kRemoteL2;
      } else {
        // Clean (or silently evicted) at the owner: memory supplies data.
        extra += occupy_memory(home, t_request + extra);
        res.base_latency = mem_level_base;
        res.level = mem_level;
      }
      if (exclusive) {
        e = {DirState::kOwned, 0, chip};
        res.grant = LineState::kExclusive;
      } else if (present) {
        e = {DirState::kShared,
             Directory::bit(owner) | Directory::bit(chip), 0};
        res.grant = LineState::kShared;
      } else {
        e = {DirState::kOwned, 0, chip};
        res.grant = LineState::kExclusive;
      }
      res.extra_delay = extra;
      return res;
    }
  }

  res.extra_delay = extra;
  return res;
}

Cycle DashInterconnect::upgrade_line(ChipId chip, Addr line_addr,
                                     Cycle t_request) {
  obs::ScopedPhase phase(prof_, obs::Phase::kNoc);
  ++stats_.upgrades;
  const unsigned home = home_of(line_addr);
  if (trace_) {
    trace_->instant({obs::kNocPid, home}, "upgrade", t_request,
                    static_cast<std::int64_t>(chip));
  }
  const unsigned base = home == chip ? params_.local_upgrade_latency
                                     : params_.remote_upgrade_latency;
  Cycle extra = net_.send(chip, home, t_request);
  extra += occupy_directory(home, t_request + extra);

  DirEntry& e = dir_.entry(line_addr);
  switch (e.state) {
    case DirState::kShared:
      extra += invalidate_sharers(e.sharers, chip, home, line_addr,
                                  t_request + extra);
      e = {DirState::kOwned, 0, chip};
      break;
    case DirState::kOwned:
      if (e.owner != chip) {
        // Stale owner (e.g. a merged-store window); invalidate it.
        extra += net_.send(home, e.owner, t_request + extra);
        chips_[e.owner]->coherence_invalidate(line_addr, nullptr);
        ++stats_.invalidations_sent;
        extra += params_.invalidation_round_trip;
        e = {DirState::kOwned, 0, chip};
      }
      break;
    case DirState::kUncached:
      e = {DirState::kOwned, 0, chip};
      break;
  }
  return base + extra;
}

void DashInterconnect::writeback_line(ChipId chip, Addr line_addr, Cycle t) {
  obs::ScopedPhase phase(prof_, obs::Phase::kNoc);
  ++stats_.writebacks;
  const unsigned home = home_of(line_addr);
  if (trace_) {
    trace_->instant({obs::kNocPid, home}, "writeback", t,
                    static_cast<std::int64_t>(chip));
  }
  net_.send(chip, home, t);
  occupy_memory(home, t);
  DirEntry& e = dir_.entry(line_addr);
  if (e.state == DirState::kOwned && e.owner == chip) {
    e = {DirState::kUncached, 0, 0};
  }
}

}  // namespace csmt::noc
