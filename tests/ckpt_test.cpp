// csmt::ckpt unit tests: Serializer round-trips per component in isolation
// (snapshot a component mid-history, restore into a fresh instance, verify
// the continuation behaves bit-identically), framing/shape failure modes,
// and file-layer rejection of truncated / corrupted / wrong-version
// checkpoints — all without UB, so this suite is a primary sanitizer target.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cache/backend.hpp"
#include "cache/cache_array.hpp"
#include "cache/mshr.hpp"
#include "cache/tlb.hpp"
#include "ckpt/serializer.hpp"
#include "common/rng.hpp"
#include "core/chip.hpp"
#include "exec/sync.hpp"
#include "exec/thread_context.hpp"
#include "exec/thread_group.hpp"
#include "isa/builder.hpp"
#include "mem/paged_memory.hpp"

namespace csmt::ckpt {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

// --- Serializer primitives ----------------------------------------------

TEST(Serializer, PrimitivesRoundTripInsideASection) {
  std::uint8_t u8 = 0xAB;
  std::int32_t i32 = -12345;
  std::uint64_t u64 = 0xDEADBEEFCAFEF00Dull;
  bool flag = true;
  double d = -0.1;  // not exactly representable: bit pattern must survive
  cache::LineState e = cache::LineState::kShared;
  std::string str = "hello, checkpoint";
  std::vector<std::uint16_t> vec = {1, 2, 3, 0xFFFF};
  std::uint8_t raw[5] = {9, 8, 7, 6, 5};

  Serializer save;
  save.begin_section("prims");
  save.io(u8);
  save.io(i32);
  save.io(u64);
  save.io(flag);
  save.io(d);
  save.io(e);
  save.io(str);
  save.io_vec(vec);
  save.io_bytes(raw, sizeof raw);
  save.end_section();
  ASSERT_TRUE(save.ok());

  std::uint8_t u8_l = 0;
  std::int32_t i32_l = 0;
  std::uint64_t u64_l = 0;
  bool flag_l = false;
  double d_l = 0;
  cache::LineState e_l = cache::LineState::kInvalid;
  std::string str_l;
  std::vector<std::uint16_t> vec_l;
  std::uint8_t raw_l[5] = {};

  Serializer load(save.take_payload());
  load.begin_section("prims");
  load.io(u8_l);
  load.io(i32_l);
  load.io(u64_l);
  load.io(flag_l);
  load.io(d_l);
  load.io(e_l);
  load.io(str_l);
  load.io_vec(vec_l);
  load.io_bytes(raw_l, sizeof raw_l);
  load.end_section();
  ASSERT_TRUE(load.ok()) << load.error();

  EXPECT_EQ(u8_l, u8);
  EXPECT_EQ(i32_l, i32);
  EXPECT_EQ(u64_l, u64);
  EXPECT_EQ(flag_l, flag);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d_l), std::bit_cast<std::uint64_t>(d));
  EXPECT_EQ(e_l, e);
  EXPECT_EQ(str_l, str);
  EXPECT_EQ(vec_l, vec);
  EXPECT_EQ(0, std::memcmp(raw_l, raw, sizeof raw));
}

TEST(Serializer, ShapeCheckMismatchFailsBeforeState) {
  Serializer save;
  save.begin_section("s");
  save.check(8u, "widget count");
  std::uint64_t payload_word = 42;
  save.io(payload_word);
  save.end_section();

  Serializer load(save.take_payload());
  load.begin_section("s");
  load.check(9u, "widget count");  // live machine disagrees
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.error().find("shape mismatch: widget count"),
            std::string::npos);
  // Failed loads read zeros, never out of bounds.
  std::uint64_t w = 7;
  load.io(w);
  EXPECT_EQ(w, 0u);
}

TEST(Serializer, SectionNameMismatchFails) {
  Serializer save;
  save.begin_section("alpha");
  save.end_section();
  Serializer load(save.take_payload());
  load.begin_section("beta");
  EXPECT_FALSE(load.ok());
}

TEST(Serializer, SectionSizeMismatchFails) {
  Serializer save;
  save.begin_section("s");
  std::uint64_t a = 1, b = 2;
  save.io(a);
  save.io(b);
  save.end_section();
  Serializer load(save.take_payload());
  load.begin_section("s");
  std::uint64_t a_l = 0;
  load.io(a_l);  // reader consumes less than the writer produced
  load.end_section();
  EXPECT_FALSE(load.ok());
}

TEST(Serializer, TruncatedPayloadFailsSticky) {
  Serializer save;
  save.begin_section("s");
  std::uint64_t words[4] = {1, 2, 3, 4};
  for (auto& w : words) save.io(w);
  save.end_section();
  std::vector<std::uint8_t> payload = save.take_payload();
  payload.resize(payload.size() / 2);

  Serializer load(std::move(payload));
  load.begin_section("s");
  std::uint64_t w = 0;
  for (int i = 0; i < 4; ++i) load.io(w);
  load.end_section();
  EXPECT_FALSE(load.ok());
  EXPECT_EQ(w, 0u);
}

TEST(Serializer, HostileCountIsBounded) {
  Serializer save;
  std::uint64_t huge = ~std::uint64_t{0};
  save.io(huge);
  Serializer load(save.take_payload());
  EXPECT_FALSE(load.bounded_count(huge));
  EXPECT_FALSE(load.ok());
}

// --- component round-trips ----------------------------------------------

TEST(CkptComponents, RngResumesTheExactStream) {
  Rng a(123);
  for (int i = 0; i < 100; ++i) a.next();

  Serializer save;
  a.serialize(save);
  Rng b(999);  // deliberately different seed: restore must overwrite it
  Serializer load(save.take_payload());
  b.serialize(load);
  ASSERT_TRUE(load.ok()) << load.error();

  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(CkptComponents, TlbResumesHitsMissesAndVictims) {
  cache::Tlb a(8);
  // Far past capacity so the random-victim path is live state.
  for (Addr p = 0; p < 64; ++p) a.access(p * 4096 + 8);

  Serializer save;
  a.serialize(save);
  cache::Tlb b(8);
  Serializer load(save.take_payload());
  b.serialize(load);
  ASSERT_TRUE(load.ok()) << load.error();
  EXPECT_EQ(b.resident(), a.resident());
  EXPECT_EQ(b.stats().hits, a.stats().hits);
  EXPECT_EQ(b.stats().misses, a.stats().misses);

  // Same accesses from here on: identical hit/miss stream (the victim RNG
  // stream was restored, so evictions pick the same slots).
  for (Addr p = 0; p < 128; ++p) {
    const Addr addr = (p * 37 % 64) * 4096;
    EXPECT_EQ(a.access(addr), b.access(addr)) << "page " << p;
  }
  EXPECT_EQ(b.stats().hits, a.stats().hits);
  EXPECT_EQ(b.stats().misses, a.stats().misses);
}

TEST(CkptComponents, TlbRejectsCapacityMismatch) {
  cache::Tlb a(8);
  for (Addr p = 0; p < 8; ++p) a.access(p * 4096);
  Serializer save;
  a.serialize(save);
  // Restoring into a smaller TLB is a shape mismatch, not a crash.
  cache::Tlb small(4);
  Serializer load(save.take_payload());
  small.serialize(load);
  EXPECT_FALSE(load.ok());
}

TEST(CkptComponents, MshrFileResumesInFlightMisses) {
  cache::MshrFile a(4);
  a.allocate(0x1000, 50);
  a.allocate(0x2000, 30);
  a.allocate(0x3000, 90);
  a.note_merge();
  a.note_full_rejection();
  a.expire(30);  // retires 0x2000, leaves two in flight

  Serializer save;
  a.serialize(save);
  cache::MshrFile b(4);
  Serializer load(save.take_payload());
  b.serialize(load);
  ASSERT_TRUE(load.ok()) << load.error();

  EXPECT_EQ(b.in_flight(), a.in_flight());
  EXPECT_EQ(b.outstanding(0x1000), a.outstanding(0x1000));
  EXPECT_EQ(b.outstanding(0x2000), kNeverCycle);
  EXPECT_EQ(b.next_ready(40), a.next_ready(40));
  EXPECT_EQ(b.stats().allocations, a.stats().allocations);
  EXPECT_EQ(b.stats().merges, a.stats().merges);
  EXPECT_EQ(b.stats().full_rejections, a.stats().full_rejections);
  b.expire(200);
  a.expire(200);
  EXPECT_EQ(b.in_flight(), 0u);
  EXPECT_EQ(a.in_flight(), 0u);
}

TEST(CkptComponents, MshrFileRejectsInconsistentEntries) {
  cache::MshrFile a(4);
  a.allocate(0x1000, 50);
  a.allocate(0x2000, 30);
  a.allocate(0x3000, 90);
  a.expire(30);  // slot 1 retired: two live entries, minimum ready 50

  Serializer save;
  a.serialize(save);
  const std::vector<std::uint8_t> good = save.take_payload();
  // One u64 word per field: [entries][slot count], then (line, ready,
  // valid) per slot, then [count][min ready] and the three stats.
  constexpr std::size_t kSlots = 1, kCount = 2 + 3 * 3, kMin = kCount + 1;
  const auto word = [&good](std::size_t i) {
    std::uint64_t v;
    std::memcpy(&v, good.data() + 8 * i, 8);
    return v;
  };
  ASSERT_EQ(word(kSlots), 3u);
  ASSERT_EQ(word(2 + 3 * 2 + 1), 90u);  // slot 2's ready cycle
  ASSERT_EQ(word(kCount), 2u);
  ASSERT_EQ(word(kMin), 50u);

  const auto load_patched = [&good](std::size_t at, std::uint64_t v) {
    std::vector<std::uint8_t> payload = good;
    std::memcpy(payload.data() + 8 * at, &v, 8);
    cache::MshrFile b(4);
    Serializer load(payload);
    b.serialize(load);
    return load.ok();
  };
  EXPECT_TRUE(load_patched(kCount, 2));
  EXPECT_FALSE(load_patched(kSlots, 5));       // more slots than entries
  EXPECT_FALSE(load_patched(kCount, 1000));    // count beyond the entries
  EXPECT_FALSE(load_patched(kCount, 1));       // count below them
  EXPECT_FALSE(load_patched(kMin, 90));        // not the live minimum
  EXPECT_FALSE(load_patched(kMin, kNeverCycle));
  // A live entry that never completes would hold its slot forever.
  EXPECT_FALSE(load_patched(2 + 3 * 2 + 1, kNeverCycle));
}

TEST(CkptComponents, CacheArrayResumesTagsAndLru) {
  const cache::CacheLevelParams params{4096, 64, 2, 8, 7, 1, 1};
  cache::CacheArray a(params);
  for (Addr l = 0; l < 256; ++l) {
    a.insert(l * 64 * 7, cache::LineState::kExclusive, (l % 3) == 0);
    a.lookup(l * 64 * 3);
  }

  Serializer save;
  a.serialize(save);
  cache::CacheArray b(params);
  Serializer load(save.take_payload());
  b.serialize(load);
  ASSERT_TRUE(load.ok()) << load.error();
  EXPECT_EQ(b.stats().hits, a.stats().hits);
  EXPECT_EQ(b.stats().misses, a.stats().misses);
  EXPECT_EQ(b.stats().evictions, a.stats().evictions);
  EXPECT_EQ(b.stats().dirty_evictions, a.stats().dirty_evictions);

  // Identical continuation: lookups hit/miss the same, and inserts evict
  // the same victims (LRU state was restored).
  for (Addr l = 0; l < 256; ++l) {
    const Addr addr = l * 64 * 5;
    const bool hit_a = a.lookup(addr) != nullptr;
    const bool hit_b = b.lookup(addr) != nullptr;
    EXPECT_EQ(hit_a, hit_b) << "line " << l;
    const auto ev_a = a.insert(addr, cache::LineState::kShared, false);
    const auto ev_b = b.insert(addr, cache::LineState::kShared, false);
    EXPECT_EQ(ev_a.valid, ev_b.valid);
    EXPECT_EQ(ev_a.dirty, ev_b.dirty);
    EXPECT_EQ(ev_a.line_addr, ev_b.line_addr);
  }
}

TEST(CkptComponents, PagedMemoryRoundTripsSparsePages) {
  mem::PagedMemory a;
  a.write(8, 42);
  a.write(1 << 20, 0xAAAA);
  a.write((5ull << 30) + 16, 0xBBBB);
  a.write_double(4096, 2.5);

  Serializer save;
  a.serialize(save);
  mem::PagedMemory b;
  b.write(64, 777);  // pre-existing state must be dropped by the restore
  Serializer load(save.take_payload());
  b.serialize(load);
  ASSERT_TRUE(load.ok()) << load.error();

  EXPECT_EQ(b.read(8), 42u);
  EXPECT_EQ(b.read(1 << 20), 0xAAAAu);
  EXPECT_EQ(b.read((5ull << 30) + 16), 0xBBBBu);
  EXPECT_EQ(b.read_double(4096), 2.5);
  EXPECT_EQ(b.read(64), 0u);
}

TEST(CkptComponents, SyncManagerResumesWaitersInOrder) {
  isa::ProgramBuilder pb("noop");
  pb.halt();
  const isa::Program prog = pb.take();
  mem::PagedMemory memory;

  auto make_group = [&](std::vector<std::unique_ptr<exec::ThreadContext>>& ts,
                        exec::SyncManager& sync) {
    for (unsigned i = 0; i < 4; ++i) {
      ts.push_back(std::make_unique<exec::ThreadContext>(
          static_cast<ThreadId>(i), prog, memory, i, 4, 0, &sync));
    }
  };

  exec::SyncManager sync_a;
  std::vector<std::unique_ptr<exec::ThreadContext>> ts_a;
  make_group(ts_a, sync_a);
  // Barrier with two of four arrived; lock held by t0 with t1, t2 queued.
  EXPECT_FALSE(sync_a.barrier_arrive(0x100, ts_a[0].get(), 4));
  EXPECT_FALSE(sync_a.barrier_arrive(0x100, ts_a[1].get(), 4));
  EXPECT_TRUE(sync_a.lock_acquire(0x200, ts_a[0].get()));
  EXPECT_FALSE(sync_a.lock_acquire(0x200, ts_a[1].get()));
  EXPECT_FALSE(sync_a.lock_acquire(0x200, ts_a[2].get()));
  ASSERT_EQ(sync_a.blocked_waiters(), 4u);

  Serializer save;
  std::vector<exec::ThreadContext*> ptrs_a;
  for (auto& t : ts_a) ptrs_a.push_back(t.get());
  for (auto& t : ts_a) t->serialize(save);
  sync_a.serialize(save, ptrs_a.data(), ptrs_a.size());
  ASSERT_TRUE(save.ok());

  exec::SyncManager sync_b;
  std::vector<std::unique_ptr<exec::ThreadContext>> ts_b;
  make_group(ts_b, sync_b);
  std::vector<exec::ThreadContext*> ptrs_b;
  for (auto& t : ts_b) ptrs_b.push_back(t.get());
  Serializer load(save.take_payload());
  for (auto& t : ts_b) t->serialize(load);
  sync_b.serialize(load, ptrs_b.data(), ptrs_b.size());
  ASSERT_TRUE(load.ok()) << load.error();

  EXPECT_EQ(sync_b.blocked_waiters(), 4u);
  EXPECT_TRUE(ts_b[0]->sync_blocked());  // barrier waiter
  EXPECT_TRUE(ts_b[1]->sync_blocked());  // barrier + lock waiter
  EXPECT_TRUE(ts_b[2]->sync_blocked());  // lock waiter

  // FIFO handoff order survived: t0 releases, t1 wakes owning the lock,
  // then t1 releases and t2 wakes.
  sync_b.lock_release(0x200, ts_b[0].get());
  EXPECT_TRUE(ts_b[2]->sync_blocked());
  sync_b.lock_release(0x200, ts_b[1].get());
  EXPECT_FALSE(ts_b[2]->sync_blocked());

  // Barrier completes with the two remaining arrivals.
  EXPECT_FALSE(sync_b.barrier_arrive(0x100, ts_b[2].get(), 4));
  EXPECT_TRUE(sync_b.barrier_arrive(0x100, ts_b[3].get(), 4));
  EXPECT_FALSE(ts_b[0]->sync_blocked());
  EXPECT_EQ(sync_b.barrier_episodes(), 1u);
  EXPECT_EQ(sync_b.lock_contentions(), sync_a.lock_contentions());
}

TEST(CkptComponents, SyncManagerRejectsOutOfRangeTid) {
  isa::ProgramBuilder pb("noop");
  pb.halt();
  const isa::Program prog = pb.take();
  mem::PagedMemory memory;
  exec::SyncManager sync_a;
  exec::ThreadContext t0(0, prog, memory, 0, 1, 0, &sync_a);
  exec::ThreadContext* ptrs[1] = {&t0};
  sync_a.barrier_arrive(0x100, &t0, 2);

  Serializer save;
  sync_a.serialize(save, ptrs, 1);

  // Restore into a "machine" with zero threads: every tid is out of range.
  exec::SyncManager sync_b;
  Serializer load(save.take_payload());
  sync_b.serialize(load, nullptr, 0);
  EXPECT_FALSE(load.ok());
  EXPECT_EQ(sync_b.blocked_waiters(), 0u);
}

// --- cluster: slot indices fail closed -----------------------------------

/// A divide chain with dependent adds: the window holds uops waiting on it.
isa::Program div_chain_program() {
  isa::ProgramBuilder b("div-chain");
  const isa::Reg a = b.ireg(), one = b.ireg(), x = b.ireg(), i = b.ireg(),
                 n = b.ireg();
  b.li(a, 7);
  b.li(one, 1);
  b.li(n, 10'000);
  b.for_range(i, 0, n, 1, [&] {
    b.div(a, a, one);
    b.add(x, a, a);
    b.add(x, x, a);
  });
  b.halt();
  return b.take();
}

/// One FA1 chip (a single one-thread cluster) running `prog` from cycle 0.
struct ClusterRig {
  explicit ClusterRig(const isa::Program& prog)
      : backend(mp),
        chip(0, core::arch_preset(core::ArchKind::kFa1), mp, backend),
        group(prog, memory, 1, 0) {
    chip.attach_thread(&group.thread(0));
  }
  core::Cluster& cluster() { return chip.cluster(0); }
  std::vector<exec::ThreadContext*> by_tid() { return {&group.thread(0)}; }

  mem::PagedMemory memory;
  cache::MemSysParams mp;
  cache::LocalMemoryBackend backend;
  core::Chip chip;
  exec::ThreadGroup group;
};

/// Reads "<key>=<unsigned>" out of Cluster::debug_dump text.
unsigned dump_field(const std::string& dump, const char* key) {
  const std::size_t at = dump.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  return at == std::string::npos
             ? 0u
             : static_cast<unsigned>(
                   std::stoul(dump.substr(at + std::strlen(key))));
}

TEST(CkptComponents, ClusterRejectsOutOfRangeIqIndex) {
  const isa::Program prog = div_chain_program();
  ClusterRig a(prog);
  const std::uint64_t rob = a.chip.config().cluster.rob_entries;
  // Stop mid-fill: some uops waiting in the IQ, the window not yet full.
  unsigned iq_n = 0, win = 0;
  for (Cycle now = 0; now < 1000 && (iq_n < 8 || win >= rob); ++now) {
    a.chip.tick(now);
    const std::string dump = a.cluster().debug_dump(now);
    iq_n = dump_field(dump, "iq=");
    win = dump_field(dump, "win=");
  }
  ASSERT_GE(iq_n, 8u);
  ASSERT_LT(win, rob);

  Serializer save;
  a.cluster().serialize(save, a.by_tid());
  ASSERT_TRUE(save.ok());
  std::vector<std::uint8_t> payload = save.take_payload();

  // The IQ follows the free list, one u64 word per field: [free count]
  // [free slots][iq count][iq slots], every slot distinct and below
  // rob_entries. That run must occur exactly once.
  const std::uint64_t free_n = rob - win;
  const std::size_t words = payload.size() / 8;
  const auto word = [&payload](std::size_t i) {
    std::uint64_t v;
    std::memcpy(&v, payload.data() + 8 * i, 8);
    return v;
  };
  std::vector<std::size_t> iq_at;
  for (std::size_t i = 0; i + 2 + free_n + iq_n <= words; ++i) {
    if (word(i) != free_n || word(i + 1 + free_n) != iq_n) continue;
    std::vector<bool> used(rob, false);
    bool run = true;
    for (std::size_t k = 0; k < free_n + iq_n && run; ++k) {
      const std::uint64_t v = word(i + 1 + k + (k >= free_n ? 1 : 0));
      run = v < rob && !used[v];
      if (run) used[v] = true;
    }
    if (run) iq_at.push_back(i + 2 + free_n);
  }
  ASSERT_EQ(iq_at.size(), 1u);

  {
    ClusterRig b(prog);
    Serializer load(payload);
    b.cluster().serialize(load, b.by_tid());
    EXPECT_TRUE(load.ok()) << load.error();
  }
  // One IQ entry patched to rob_entries: refused, never dereferenced.
  std::memcpy(payload.data() + 8 * iq_at[0], &rob, 8);
  ClusterRig c(prog);
  Serializer load(payload);
  c.cluster().serialize(load, c.by_tid());
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.error().find("slot index"), std::string::npos)
      << load.error();
}

// --- file layer ----------------------------------------------------------

std::vector<std::uint8_t> small_payload() {
  Serializer s;
  s.begin_section("s");
  std::uint64_t v = 0x1234;
  s.io(v);
  s.end_section();
  return s.take_payload();
}

TEST(CkptFile, WriteReadRoundTrip) {
  const std::string path = temp_path("rt.ckpt");
  CheckpointMeta meta;
  meta.spec_hash = 0xABCDEF;
  meta.cycle = 4096;
  std::string err;
  ASSERT_TRUE(write_checkpoint(path, meta, small_payload(), &err)) << err;

  const ReadResult r = read_checkpoint(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.meta.version, kFormatVersion);
  EXPECT_EQ(r.meta.spec_hash, 0xABCDEFu);
  EXPECT_EQ(r.meta.cycle, 4096u);
  EXPECT_EQ(r.payload, small_payload());
  fs::remove(path);
}

TEST(CkptFile, MissingFileIsCleanlyNotOk) {
  const ReadResult r = read_checkpoint(temp_path("does-not-exist.ckpt"));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.payload.empty());
}

TEST(CkptFile, TruncatedFileRejected) {
  const std::string path = temp_path("trunc.ckpt");
  std::string err;
  ASSERT_TRUE(write_checkpoint(path, CheckpointMeta{}, small_payload(), &err));
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 5);
  const ReadResult r = read_checkpoint(path);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.payload.empty());
  fs::remove(path);
}

TEST(CkptFile, CorruptedPayloadByteRejected) {
  const std::string path = temp_path("corrupt.ckpt");
  std::string err;
  ASSERT_TRUE(write_checkpoint(path, CheckpointMeta{}, small_payload(), &err));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-9, std::ios::end);  // inside the section body / checksum area
    char c = 0x5A;
    f.write(&c, 1);
  }
  const ReadResult r = read_checkpoint(path);
  EXPECT_FALSE(r.ok);
  fs::remove(path);
}

TEST(CkptFile, CorruptedHeaderRejected) {
  const std::string path = temp_path("hdr.ckpt");
  std::string err;
  ASSERT_TRUE(write_checkpoint(path, CheckpointMeta{}, small_payload(), &err));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20, std::ios::beg);  // inside spec_hash, checksummed
    char c = '\x77';
    f.write(&c, 1);
  }
  const ReadResult r = read_checkpoint(path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("header checksum"), std::string::npos);
  fs::remove(path);
}

TEST(CkptFile, WrongMagicRejected) {
  const std::string path = temp_path("magic.ckpt");
  std::ofstream(path, std::ios::binary) << "definitely not a checkpoint file";
  const ReadResult r = read_checkpoint(path);
  EXPECT_FALSE(r.ok);
  fs::remove(path);
}

TEST(CkptFile, WrongVersionRejected) {
  const std::string path = temp_path("version.ckpt");
  CheckpointMeta meta;
  meta.version = kFormatVersion + 1;
  std::string err;
  ASSERT_TRUE(write_checkpoint(path, meta, small_payload(), &err));
  const ReadResult r = read_checkpoint(path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("version"), std::string::npos);
  fs::remove(path);
}

}  // namespace
}  // namespace csmt::ckpt
