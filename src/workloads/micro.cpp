// Micro-kernel workloads: the pointer-chase rings behind Table 3, ablation
// A4's barrier-per-phase kernel in both sync styles, and the two
// simulator-speed probes. They run through run_experiment like the six
// applications, so each leaves a result in memory that validate() checks
// against a host walk of the same kernel.
//
// `scale` is each kernel's own size knob:
//   ring-*          passes over the ring (0 is allowed: the dirty-writer
//                   ring differences one pass against none)
//   barrier-*       1024 * scale elements, 12 phases
//   chase           dependent loads per thread
//   cluster-idle    iterations of thread 0's serial loop
#include "common/assert.hpp"
#include "workloads/kernels.hpp"
#include "workloads/util.hpp"

namespace csmt::workloads {
namespace {

using isa::Label;
using isa::ProgramBuilder;
using isa::Reg;

// ---------------------------------------------------------------------------
// Table 3 rings: each load's address is the previous load's value, so
// cycles per load is the full round trip of the level the ring lives in.

constexpr Addr kRingArgs = 64;   ///< args block at a fixed low address
constexpr Addr kRingBarrier = 512;
constexpr unsigned kRingUnroll = 8;

enum RingSlot : unsigned { kRingHead, kRingBar, kRingResult };

/// A ring of `pages` pages of 64 lines each, page p starting at page
/// `page_stride * p + first_page`: with four-chip page-interleaved homes,
/// a stride of 4 homes every line on node `first_page % 4`. With
/// `dirty_writer`, thread 1 first rewrites every line (dirtying it in its
/// chip's caches), all threads meet at a barrier, and thread 0 alone
/// chases; otherwise every thread chases.
struct RingShape {
  const char* name;
  unsigned pages, page_stride, first_page;
  bool dirty_writer;
};

// Table 3's levels: an L1-resident 16 KB ring; a 256 KB ring that thrashes
// the L1 but fits the L2; a 2 MB ring that misses both caches; a ring
// homed on node 1 for a requester on node 0; and a ring homed on node 0
// that thread 1 (chip 1) dirties before thread 0 chases it, so every line
// is supplied dirty from the remote L2.
constexpr RingShape kRings[] = {
    {"ring-l1", 4, 1, 1, false},      {"ring-l2", 64, 1, 1, false},
    {"ring-local", 512, 1, 1, false}, {"ring-remote", 384, 4, 1, false},
    {"ring-remote-l2", 64, 4, 8, true},
};

class Ring final : public Workload {
 public:
  explicit Ring(const RingShape& shape) : shape_(shape) {
    for (unsigned p = 0; p < shape.pages; ++p) {
      const Addr base =
          (shape.page_stride * p + shape.first_page) * mem::kPageBytes;
      for (unsigned l = 0; l < 64; ++l) lines_.push_back(base + l * 64);
    }
  }

  const char* name() const override { return shape_.name; }

  WorkloadBuild build(mem::PagedMemory& memory, unsigned,
                      unsigned scale) const override {
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      memory.write(lines_[i], lines_[(i + 1) % lines_.size()]);
    }
    memory.write(kRingArgs + 8 * kRingHead, lines_.front());
    memory.write(kRingArgs + 8 * kRingBar, kRingBarrier);
    return {emit(scale), kRingArgs};
  }

  bool validate(const mem::PagedMemory& memory, const WorkloadBuild& b,
                unsigned, unsigned) const override {
    // The writer stores each pointer back unchanged, so the ring is intact,
    // and whole passes end where they started.
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (memory.read(lines_[i]) != lines_[(i + 1) % lines_.size()])
        return false;
    }
    return memory.read(b.args_base + 8 * kRingResult) == lines_.front();
  }

 private:
  /// `passes` passes of `kRingUnroll`-unrolled dependent loads, then thread
  /// 0 stores where its chase ended. Every run of a Table 3 difference gets
  /// the same tail, so the store cancels out of the measured latency.
  isa::Program emit(unsigned passes) const {
    const auto iters =
        static_cast<std::int64_t>(lines_.size() / kRingUnroll * passes);
    ProgramBuilder b("chase");
    Reg p = b.ireg(), i = b.ireg(), n = b.ireg(), bar = b.ireg();
    b.ld(p, ProgramBuilder::args(), 8 * kRingHead);
    b.ld(bar, ProgramBuilder::args(), 8 * kRingBar);
    Label fin = b.new_label();
    if (shape_.dirty_writer) {
      Label not_writer = b.new_label();
      Reg one = b.ireg();
      b.li(one, 1);
      b.bne(ProgramBuilder::tid(), one, not_writer);
      {
        // Thread 1 walks the ring once, storing to each line. Exactly one
        // traversal whatever the pass count, so differencing two runs
        // cancels the writer phase.
        Reg q = b.ireg(), k = b.ireg(), lim = b.ireg();
        b.mov(q, p);
        b.li(k, 0);
        b.li(lim, static_cast<std::int64_t>(lines_.size()));
        Label top = b.new_label();
        b.bind(top);
        Reg next = b.ireg();
        b.ld(next, q, 0);
        b.st(q, 0, next);  // rewrite the pointer (dirties the line)
        b.mov(q, next);
        b.addi(k, k, 1);
        b.blt(k, lim, top);
        for (Reg r : {q, k, lim, next}) b.release(r);
      }
      b.bind(not_writer);
      b.release(one);
      b.barrier(bar, ProgramBuilder::nthreads());
      b.bne(ProgramBuilder::tid(), ProgramBuilder::zero(), fin);
    }
    b.li(i, 0);
    b.li(n, iters);
    Label loop = b.new_label();
    Label out = b.new_label();
    b.bge(i, n, out);
    b.bind(loop);
    for (unsigned u = 0; u < kRingUnroll; ++u) b.ld(p, p, 0);
    b.addi(i, i, 1);
    b.blt(i, n, loop);
    b.bind(out);
    b.bne(ProgramBuilder::tid(), ProgramBuilder::zero(), fin);
    b.st(ProgramBuilder::args(), 8 * kRingResult, p);
    b.bind(fin);
    b.halt();
    return b.take();
  }

  RingShape shape_;
  std::vector<Addr> lines_;
};

// ---------------------------------------------------------------------------
// A4: `kBarrierPhases` rounds, each a partitioned sweep x <- (x + x) * x
// over the array followed by a barrier — the blocking primitive or a
// sense-reversing spin barrier.

constexpr unsigned kBarrierPhases = 12;

/// Initial element i. Near 0.5, the fixed point of x <- 2x^2, so twelve
/// phases leave distinct finite values for validate() to compare (element
/// values do not affect timing).
double barrier_init(std::size_t i) {
  return 0.5 + 1e-8 * static_cast<double>(i);
}

class BarrierKernel final : public Workload {
 public:
  explicit BarrierKernel(bool spin) : spin_(spin) {}

  const char* name() const override {
    return spin_ ? "barrier-spin" : "barrier-blocking";
  }

  WorkloadBuild build(mem::PagedMemory& memory, unsigned,
                      unsigned scale) const override {
    const unsigned n = elements(scale);
    mem::SimAlloc alloc;
    const Addr args = alloc.alloc_words(2, 64);
    const Addr bar = alloc.alloc_sync_line();
    const Addr data = alloc.alloc_words(n, 64);
    memory.write(args + 0, bar);
    memory.write(args + 8, data);
    for (unsigned i = 0; i < n; ++i)
      memory.write_double(data + 8ull * i, barrier_init(i));
    return {emit(n), args};
  }

  bool validate(const mem::PagedMemory& memory, const WorkloadBuild& b,
                unsigned, unsigned scale) const override {
    const Addr data = memory.read(b.args_base + 8);
    for (unsigned i = 0; i < elements(scale); ++i) {
      double x = barrier_init(i);
      for (unsigned p = 0; p < kBarrierPhases; ++p) x = (x + x) * x;
      if (memory.read_double(data + 8ull * i) != x) return false;
    }
    return true;
  }

 private:
  static unsigned elements(unsigned scale) { return 1024 * scale; }

  isa::Program emit(unsigned n) const {
    ProgramBuilder b(spin_ ? "spin-sync" : "blocking-sync");
    Reg bar = b.ireg(), sense = b.ireg(), base = b.ireg();
    b.ld(bar, ProgramBuilder::args(), 0);
    b.ld(base, ProgramBuilder::args(), 8);
    b.li(sense, 0);

    Reg cnt = b.ireg(), lo = b.ireg(), hi = b.ireg();
    b.li(cnt, n);
    emit_partition(b, cnt, lo, hi);

    Reg phase = b.ireg(), plim = b.ireg(), k = b.ireg(), ptr = b.ireg();
    b.li(plim, kBarrierPhases);
    isa::Freg v = b.freg(), w = b.freg();
    b.for_range(phase, 0, plim, 1, [&] {
      b.slli(ptr, lo, 3);
      b.add(ptr, base, ptr);
      b.for_range(k, lo, hi, 1, [&] {
        b.fld(v, ptr, 0);
        b.fadd(w, v, v);
        b.fmul(w, w, v);
        b.fst(ptr, 0, w);
        b.addi(ptr, ptr, 8);
      });
      if (spin_) {
        b.spin_barrier(bar, sense, ProgramBuilder::nthreads());
      } else {
        b.barrier(bar, ProgramBuilder::nthreads());
      }
    });
    b.halt();
    return b.take();
  }

  bool spin_;
};

// ---------------------------------------------------------------------------
// Speed probes. `chase`: per-thread chains of dependent loads, each a cold
// miss on its own page, with nothing else to issue once the window fills —
// the long-latency regime the quiescence scheduler targets.

constexpr Addr kChaseBase = 1 << 20;
constexpr std::uint64_t kChaseRegionBytes = 8ull << 20;  ///< per thread
constexpr std::uint64_t kChaseRegionWords = kChaseRegionBytes / 8;
constexpr std::uint64_t kChaseStrideWords = 1031;  ///< odd: full-cycle walk

/// Where thread t's chain starts (its region base) and where it stores the
/// pointer it ends on: just below the regions, one word per thread.
Addr chase_region(unsigned t) { return kChaseBase + t * kChaseRegionBytes; }
Addr chase_result(unsigned t) { return kChaseBase - 8 * (t + 1); }

class Chase final : public Workload {
 public:
  const char* name() const override { return "chase"; }

  WorkloadBuild build(mem::PagedMemory& memory, unsigned nthreads,
                      unsigned scale) const override {
    CSMT_ASSERT(scale >= 1);
    // Each step lands on a fresh page.
    for (unsigned t = 0; t < nthreads; ++t) {
      std::uint64_t cur = 0;
      for (std::uint64_t i = 0; i < scale; ++i) {
        const std::uint64_t next = step(cur);
        memory.write(chase_region(t) + cur * 8, chase_region(t) + next * 8);
        cur = next;
      }
    }
    return {emit(scale), kChaseBase};
  }

  bool validate(const mem::PagedMemory& memory, const WorkloadBuild&,
                unsigned nthreads, unsigned scale) const override {
    const std::uint64_t end = scale * kChaseStrideWords % kChaseRegionWords;
    for (unsigned t = 0; t < nthreads; ++t) {
      if (memory.read(chase_result(t)) != chase_region(t) + end * 8)
        return false;
    }
    return true;
  }

 private:
  static std::uint64_t step(std::uint64_t word) {
    return (word + kChaseStrideWords) % kChaseRegionWords;
  }

  static isa::Program emit(std::uint64_t iters) {
    ProgramBuilder b("chase");
    const Reg p = b.ireg(), cnt = b.ireg(), region = b.ireg();
    b.li(region, kChaseRegionBytes);
    b.mul(region, b.tid(), region);
    b.add(p, b.args(), region);
    b.li(cnt, static_cast<std::int64_t>(iters));
    const Label loop = b.new_label();
    b.bind(loop);
    b.ld(p, p, 0);  // p = mem[p]: the serializing dependence
    b.addi(cnt, cnt, -1);
    b.bne(cnt, b.zero(), loop);
    // Result word: args - 8 * (tid + 1).
    b.slli(region, b.tid(), 3);
    b.sub(region, b.args(), region);
    b.st(region, -8, p);
    b.halt();
    return b.take();
  }
};

// `cluster-idle`: thread 0 runs a long serial loop while every other thread
// blocks at the final barrier. On FA2 each blocked thread sits alone on its
// cluster, so the machine never quiesces as a whole and the point isolates
// per-cluster sleep (DESIGN.md §14).

constexpr Addr kIdleBarrier = 64;
constexpr Addr kIdleResult = 128;  ///< thread 0's loop count, off args

class ClusterIdle final : public Workload {
 public:
  const char* name() const override { return "cluster-idle"; }

  WorkloadBuild build(mem::PagedMemory&, unsigned nthreads,
                      unsigned scale) const override {
    ProgramBuilder b("cluster-idle");
    const Reg bar = b.ireg(), n = b.ireg(), r = b.ireg(), i = b.ireg(),
              cnt = b.ireg();
    const Label join = b.new_label();
    b.li(bar, static_cast<std::int64_t>(kIdleBarrier));
    b.li(n, nthreads);
    b.bne(b.tid(), b.zero(), join);  // everyone but tid 0: straight to join
    b.li(r, 1);
    b.li(cnt, scale);
    b.for_range(i, 0, cnt, 1, [&] { b.add(r, r, r); });
    b.st(b.args(), static_cast<std::int64_t>(kIdleResult), i);
    b.bind(join);
    b.barrier(bar, n);
    b.halt();
    return {b.take(), 0};
  }

  bool validate(const mem::PagedMemory& memory, const WorkloadBuild& b,
                unsigned, unsigned scale) const override {
    return memory.read(b.args_base + kIdleResult) == scale;
  }
};

}  // namespace

std::vector<std::string> micro_kernel_names() {
  std::vector<std::string> names;
  for (const RingShape& r : kRings) names.emplace_back(r.name);
  for (const char* n : {"barrier-blocking", "barrier-spin", "chase",
                        "cluster-idle"})
    names.emplace_back(n);
  return names;
}

std::unique_ptr<Workload> make_micro_kernel(const std::string& name) {
  for (const RingShape& r : kRings) {
    if (name == r.name) return std::make_unique<Ring>(r);
  }
  if (name == "barrier-blocking") return std::make_unique<BarrierKernel>(false);
  if (name == "barrier-spin") return std::make_unique<BarrierKernel>(true);
  if (name == "chase") return std::make_unique<Chase>();
  if (name == "cluster-idle") return std::make_unique<ClusterIdle>();
  return nullptr;
}

}  // namespace csmt::workloads
