#include "core/arch_config.hpp"

#include "common/assert.hpp"

namespace csmt::core {
namespace {

// One Table 2 row: `clusters` x (`width`-issue, `threads`-thread) clusters.
// Per-cluster FU mix and window (IQ, ROB and rename registers alike) follow
// the table; chip totals are clusters x per-cluster.
ArchConfig row(const char* name, unsigned clusters, unsigned width,
               unsigned threads, unsigned iu, unsigned lsu, unsigned fpu,
               unsigned window) {
  ArchConfig cfg;
  cfg.name = name;
  cfg.clusters = clusters;
  cfg.cluster = {width, threads, iu, lsu, fpu, window};
  return cfg;
}

}  // namespace

ArchConfig arch_preset(ArchKind kind) {
  switch (kind) {
    case ArchKind::kFa8:
      return row("FA8", 8, 1, 1, 1, 1, 1, 16);
    case ArchKind::kFa4:
      return row("FA4", 4, 2, 1, 2, 2, 2, 32);
    case ArchKind::kFa2:
      return row("FA2", 2, 4, 1, 4, 4, 4, 64);
    case ArchKind::kFa1:
      return row("FA1", 1, 8, 1, 6, 4, 4, 128);
    case ArchKind::kSmt4:
      return row("SMT4", 4, 2, 2, 2, 2, 2, 32);
    case ArchKind::kSmt2:
      return row("SMT2", 2, 4, 4, 4, 4, 4, 64);
    case ArchKind::kSmt1:
      return row("SMT1", 1, 8, 8, 6, 4, 4, 128);
    case ArchKind::kSmt8:
      // SMT8 is the paper's name for FA8 when used as the SMT baseline.
      return row("SMT8", 8, 1, 1, 1, 1, 1, 16);
  }
  CSMT_ASSERT_MSG(false, "unknown ArchKind");
  return {};
}

const char* arch_name(ArchKind kind) {
  switch (kind) {
    case ArchKind::kFa8: return "FA8";
    case ArchKind::kFa4: return "FA4";
    case ArchKind::kFa2: return "FA2";
    case ArchKind::kFa1: return "FA1";
    case ArchKind::kSmt4: return "SMT4";
    case ArchKind::kSmt2: return "SMT2";
    case ArchKind::kSmt1: return "SMT1";
    case ArchKind::kSmt8: return "SMT8";
  }
  return "?";
}

std::optional<ArchKind> arch_from_name(std::string_view name) {
  for (const ArchKind k :
       {ArchKind::kFa8, ArchKind::kFa4, ArchKind::kFa2, ArchKind::kFa1,
        ArchKind::kSmt4, ArchKind::kSmt2, ArchKind::kSmt1, ArchKind::kSmt8}) {
    if (name == arch_name(k)) return k;
  }
  return std::nullopt;
}

const char* fetch_policy_name(FetchPolicy policy) {
  switch (policy) {
    case FetchPolicy::kRoundRobin: return "rr";
    case FetchPolicy::kRoundRobinSkip: return "rr-skip";
    case FetchPolicy::kIcount: return "icount";
  }
  return "?";
}

std::optional<FetchPolicy> fetch_policy_from_name(std::string_view name) {
  for (const FetchPolicy p :
       {FetchPolicy::kRoundRobin, FetchPolicy::kRoundRobinSkip,
        FetchPolicy::kIcount}) {
    if (name == fetch_policy_name(p)) return p;
  }
  return std::nullopt;
}

}  // namespace csmt::core
