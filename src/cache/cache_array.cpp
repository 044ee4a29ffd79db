#include "cache/cache_array.hpp"

#include <bit>

namespace csmt::cache {

const char* service_level_name(ServiceLevel lvl) {
  switch (lvl) {
    case ServiceLevel::kL1: return "L1";
    case ServiceLevel::kL2: return "L2";
    case ServiceLevel::kLocalMemory: return "local-mem";
    case ServiceLevel::kRemoteMemory: return "remote-mem";
    case ServiceLevel::kRemoteL2: return "remote-L2";
    case ServiceLevel::kMergedMshr: return "mshr-merge";
  }
  return "?";
}

CacheArray::CacheArray(const CacheLevelParams& p)
    : params_(p),
      sets_(p.num_sets()),
      line_shift_(static_cast<unsigned>(std::countr_zero(p.line_bytes))),
      tag_shift_(line_shift_ + static_cast<unsigned>(std::countr_zero(sets_))),
      set_mask_(sets_ - 1),
      bank_magic_(p.banks ? ~std::uint64_t{0} / p.banks : 0),
      lines_(sets_ * p.assoc) {
  CSMT_ASSERT_MSG(sets_ > 0 && (p.size_bytes % (p.line_bytes * p.assoc)) == 0,
                  "cache geometry must divide evenly");
  CSMT_ASSERT_MSG(std::has_single_bit(p.line_bytes) &&
                      std::has_single_bit(sets_),
                  "cache line size and set count must be powers of two");
  CSMT_ASSERT_MSG(p.banks > 0, "a cache needs at least one bank");
}

CacheArray::Eviction CacheArray::insert(Addr addr, LineState state,
                                        bool dirty) {
  const std::size_t set = set_of(addr);
  const std::uint64_t tag = tag_of(addr);
  CacheLine* base = &lines_[set * params_.assoc];

  // Re-insert over an existing copy if present (state upgrade).
  CacheLine* victim = nullptr;
  for (std::size_t w = 0; w < params_.assoc; ++w) {
    if (base[w].valid() && base[w].tag == tag) {
      base[w].state = state;
      base[w].dirty = base[w].dirty || dirty;
      base[w].lru = ++lru_clock_;
      return {};
    }
    if (!base[w].valid()) {
      victim = &base[w];
    }
  }
  if (!victim) {
    victim = base;
    for (std::size_t w = 1; w < params_.assoc; ++w)
      if (base[w].lru < victim->lru) victim = &base[w];
  }

  Eviction ev;
  if (victim->valid()) {
    ev.valid = true;
    ev.dirty = victim->dirty;
    ev.state = victim->state;
    ev.line_addr = rebuild_addr(victim->tag, set);
  }
  victim->tag = tag;
  victim->state = state;
  victim->dirty = dirty;
  victim->lru = ++lru_clock_;
  return ev;
}

bool CacheArray::invalidate(Addr addr, bool* was_dirty) {
  CacheLine* line = probe(addr);
  if (!line) return false;
  if (was_dirty) *was_dirty = line->dirty;
  line->state = LineState::kInvalid;
  line->dirty = false;
  return true;
}

bool CacheArray::downgrade(Addr addr, bool* was_dirty) {
  CacheLine* line = probe(addr);
  if (!line) return false;
  if (was_dirty) *was_dirty = line->dirty;
  line->state = LineState::kShared;
  line->dirty = false;
  return true;
}

}  // namespace csmt::cache
