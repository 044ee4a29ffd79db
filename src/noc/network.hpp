// Point-to-point interconnection network with per-node port contention.
//
// The fixed hop latencies are already folded into Table 3's round-trip
// numbers; this class models only *queuing*: each message occupies the
// sender's output port and the receiver's input port, so bursts (e.g.
// invalidation storms on a barrier line) serialize and show up as extra
// memory latency, as the paper's detailed contention model intends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "noc/params.hpp"

namespace csmt::noc {

struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t queued_cycles = 0;  ///< total delay attributable to contention
};

class Network {
 public:
  explicit Network(const NocParams& p)
      : occupancy_(p.message_occupancy),
        out_busy_(p.nodes, 0),
        in_busy_(p.nodes, 0) {}

  /// Sends one message from `src` to `dst` at cycle `t`. Returns the queuing
  /// delay (0 when both ports are free). Messages within a node are free.
  Cycle send(unsigned src, unsigned dst, Cycle t) {
    CSMT_ASSERT(src < out_busy_.size() && dst < in_busy_.size());
    if (src == dst) return 0;
    const Cycle start = std::max({t, out_busy_[src], in_busy_[dst]});
    out_busy_[src] = start + occupancy_;
    in_busy_[dst] = start + occupancy_;
    ++stats_.messages;
    stats_.queued_cycles += start - t;
    return start - t;
  }

  const NetworkStats& stats() const { return stats_; }

 private:
  unsigned occupancy_;
  std::vector<Cycle> out_busy_;
  std::vector<Cycle> in_busy_;
  NetworkStats stats_;
};

}  // namespace csmt::noc
