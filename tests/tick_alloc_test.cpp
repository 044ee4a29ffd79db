// Zero-allocation tick contract (DESIGN.md §9): with tracing off, a cluster
// tick performs no heap allocation. A counting global operator new watches
// one-chip machines of four Table 2 shapes run a sync-free loop over memory
// that was touched before the clock starts, so neither the functional
// memory nor the sync layer has a reason to allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cache/backend.hpp"
#include "core/chip.hpp"
#include "exec/thread_group.hpp"
#include "isa/builder.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler never pairs the malloc()/free() inside them
// with a new/delete call site (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace csmt::core {
namespace {

constexpr Addr kArrayBase = 0x100000;
constexpr std::int64_t kWords = 512;  ///< per-thread array, 4 KiB
constexpr Cycle kWarmup = 2'000;
constexpr Cycle kMeasured = 48'000;

/// Each thread sweeps its own array forever: load, integer and FP work on
/// the loaded value, store it back. No sync primitive, no halt in range.
isa::Program sweep_program() {
  isa::ProgramBuilder b("tick-alloc");
  const isa::Reg base = b.ireg(), p = b.ireg(), x = b.ireg(), i = b.ireg(),
                 n = b.ireg(), pass = b.ireg(), passes = b.ireg();
  const isa::Freg f = b.freg(), g = b.freg();
  b.slli(base, b.tid(), 12);  // tid * 4 KiB
  b.add(base, base, b.args());
  b.li(n, kWords);
  b.li(passes, 1'000'000);
  b.for_range(pass, 0, passes, 1, [&] {
    b.mov(p, base);
    b.for_range(i, 0, n, 1, [&] {
      b.ld(x, p, 0);
      b.addi(x, x, 1);
      b.fcvt_i2f(f, x);
      b.fmul(g, f, f);
      b.fadd(g, g, f);
      b.xor_(x, x, i);
      b.st(p, 0, x);
      b.addi(p, p, 8);
    });
  });
  b.halt();
  return b.take();
}

std::uint64_t allocations_while_ticking(ArchKind kind) {
  const std::uint64_t at_start = g_allocations.load(std::memory_order_relaxed);
  const ArchConfig cfg = arch_preset(kind);
  const unsigned nthreads = cfg.clusters * cfg.cluster.threads;
  const isa::Program program = sweep_program();
  mem::PagedMemory memory;
  for (unsigned t = 0; t < nthreads; ++t) {
    for (std::int64_t w = 0; w < kWords; ++w) {
      memory.write(kArrayBase + (Addr{t} << 12) + 8 * w, 1);
    }
  }
  const cache::MemSysParams mp;
  cache::LocalMemoryBackend backend(mp);
  Chip chip(0, cfg, mp, backend);
  chip.set_lazy(true);
  exec::ThreadGroup group(program, memory, nthreads, kArrayBase);
  for (unsigned t = 0; t < nthreads; ++t) chip.attach_thread(&group.thread(t));

  Cycle now = 0;
  for (; now < kWarmup; ++now) chip.tick(now);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  // Guards the guard: building the machine went through the counter.
  EXPECT_GT(before, at_start);
  for (; now < kWarmup + kMeasured; ++now) chip.tick(now);
  const std::uint64_t allocated =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_FALSE(chip.finished());
  EXPECT_GT(chip.stats().committed_useful, kMeasured) << arch_name(kind);
  return allocated;
}

TEST(TickAllocations, SteadyStateTickNeverAllocates) {
  for (const ArchKind kind :
       {ArchKind::kSmt1, ArchKind::kFa1, ArchKind::kSmt2, ArchKind::kFa8}) {
    EXPECT_EQ(allocations_while_ticking(kind), 0u) << arch_name(kind);
  }
}

}  // namespace
}  // namespace csmt::core
