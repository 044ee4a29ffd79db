#include "exec/thread_context.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "exec/sync.hpp"

namespace csmt::exec {

using isa::Op;

ThreadContext::ThreadContext(ThreadId tid, const isa::Program& program,
                             mem::PagedMemory& memory, std::uint64_t tid_value,
                             std::uint64_t nthreads, Addr args_base,
                             SyncManager* sync)
    : tid_(tid), program_(program), mem_(memory), sync_(sync) {
  iregs_[isa::kRegTid] = tid_value;
  iregs_[isa::kRegNThreads] = nthreads;
  iregs_[isa::kRegArgs] = args_base;
  done_ = program_.empty();
}

bool ThreadContext::step(DynInst& out) {
  if (done_) return false;
  CSMT_ASSERT_MSG(pc_ < program_.size(), "PC ran off the end of the program");

  const isa::Inst& in = program_.at(pc_);
  out.inst = &in;
  out.seq = instret_;
  out.tid = tid_;
  out.pc = pc_;
  out.mem_addr = 0;
  out.branch_taken = false;

  const std::uint64_t a = iregs_[in.rs1];
  const std::uint64_t b = iregs_[in.rs2];
  const auto sa = static_cast<std::int64_t>(a);
  const auto sb = static_cast<std::int64_t>(b);
  const double fa = fregs_[in.rs1];
  const double fb = fregs_[in.rs2];
  const std::int64_t imm = in.imm;

  std::uint64_t next = pc_ + 1;
  auto wr = [this, &in](std::uint64_t v) { set_ireg(in.rd, v); };
  auto wrf = [this, &in](double v) { fregs_[in.rd] = v; };
  auto branch = [&](bool taken) {
    out.branch_taken = taken;
    if (taken) next = static_cast<std::uint64_t>(imm);
  };

  switch (in.op) {
    case Op::kAdd: wr(a + b); break;
    case Op::kSub: wr(a - b); break;
    case Op::kAnd: wr(a & b); break;
    case Op::kOr: wr(a | b); break;
    case Op::kXor: wr(a ^ b); break;
    case Op::kSll: wr(a << (b & 63)); break;
    case Op::kSrl: wr(a >> (b & 63)); break;
    case Op::kSra: wr(static_cast<std::uint64_t>(sa >> (b & 63))); break;
    case Op::kSlt: wr(sa < sb ? 1 : 0); break;
    case Op::kSltu: wr(a < b ? 1 : 0); break;
    case Op::kAddi: wr(a + static_cast<std::uint64_t>(imm)); break;
    case Op::kAndi: wr(a & static_cast<std::uint64_t>(imm)); break;
    case Op::kOri: wr(a | static_cast<std::uint64_t>(imm)); break;
    case Op::kXori: wr(a ^ static_cast<std::uint64_t>(imm)); break;
    case Op::kSlli: wr(a << (imm & 63)); break;
    case Op::kSrli: wr(a >> (imm & 63)); break;
    case Op::kSrai: wr(static_cast<std::uint64_t>(sa >> (imm & 63))); break;
    case Op::kSlti: wr(sa < imm ? 1 : 0); break;
    case Op::kLi: wr(static_cast<std::uint64_t>(imm)); break;
    case Op::kMul: wr(a * b); break;
    case Op::kDiv:
      wr(sb == 0 ? ~0ull : static_cast<std::uint64_t>(sa / sb));
      break;
    case Op::kRem:
      wr(sb == 0 ? a : static_cast<std::uint64_t>(sa % sb));
      break;
    case Op::kBeq: branch(a == b); break;
    case Op::kBne: branch(a != b); break;
    case Op::kBlt: branch(sa < sb); break;
    case Op::kBge: branch(sa >= sb); break;
    case Op::kBltu: branch(a < b); break;
    case Op::kBgeu: branch(a >= b); break;
    case Op::kJ: branch(true); break;
    case Op::kLd:
      out.mem_addr = a + static_cast<std::uint64_t>(imm);
      wr(mem_.read(out.mem_addr));
      break;
    case Op::kSt:
      out.mem_addr = a + static_cast<std::uint64_t>(imm);
      mem_.write(out.mem_addr, b);
      break;
    case Op::kFld:
      out.mem_addr = a + static_cast<std::uint64_t>(imm);
      wrf(mem_.read_double(out.mem_addr));
      break;
    case Op::kFst:
      out.mem_addr = a + static_cast<std::uint64_t>(imm);
      mem_.write_double(out.mem_addr, fregs_[in.rs2]);
      break;
    case Op::kAmoSwap:
      out.mem_addr = a;
      wr(mem_.amo_swap(a, b));
      break;
    case Op::kAmoAdd:
      out.mem_addr = a;
      wr(mem_.amo_add(a, b));
      break;
    case Op::kSyncBarrier:
      CSMT_ASSERT_MSG(sync_ != nullptr, "sync primitive without SyncManager");
      out.mem_addr = a;
      mem_.amo_add(a, 1);  // arrival tally, for debugging only
      sync_->barrier_arrive(a, this, b);
      break;
    case Op::kSyncLockAcq:
      CSMT_ASSERT_MSG(sync_ != nullptr, "sync primitive without SyncManager");
      out.mem_addr = a;
      mem_.amo_swap(a, 1);
      sync_->lock_acquire(a, this);
      break;
    case Op::kSyncLockRel:
      CSMT_ASSERT_MSG(sync_ != nullptr, "sync primitive without SyncManager");
      out.mem_addr = a;
      mem_.write(a, 0);
      sync_->lock_release(a, this);
      break;
    case Op::kFadd: wrf(fa + fb); break;
    case Op::kFsub: wrf(fa - fb); break;
    case Op::kFmul: wrf(fa * fb); break;
    case Op::kFdivS:
      wrf(static_cast<double>(static_cast<float>(fa) /
                              static_cast<float>(fb)));
      break;
    case Op::kFdivD: wrf(fa / fb); break;
    case Op::kFneg: wrf(-fa); break;
    case Op::kFabs: wrf(std::fabs(fa)); break;
    case Op::kFmov: wrf(fa); break;
    case Op::kFcvtIF: wrf(static_cast<double>(sa)); break;
    case Op::kFcvtFI:
      wr(static_cast<std::uint64_t>(static_cast<std::int64_t>(fa)));
      break;
    case Op::kFcmpLt: wr(fa < fb ? 1 : 0); break;
    case Op::kFcmpLe: wr(fa <= fb ? 1 : 0); break;
    case Op::kFcmpEq: wr(fa == fb ? 1 : 0); break;
    case Op::kNop: break;
    case Op::kHalt:
      done_ = true;
      next = pc_;
      break;
    case Op::kOpCount_:
      CSMT_ASSERT_MSG(false, "invalid opcode");
      break;
  }

  ++instret_;
  pc_ = next;
  out.next_pc = next;
  if (!done_ && pc_ >= program_.size()) done_ = true;
  return true;
}

}  // namespace csmt::exec
