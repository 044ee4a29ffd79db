// The csmt mini-RISC ISA: opcode set, functional-unit classes and latencies.
//
// The ISA substitutes for the MIPS-II binaries the paper drove through MINT.
// It is a 64-bit word machine with 32 integer and 32 floating-point (double)
// registers per thread. Per-opcode functional-unit class and latency follow
// Table 1 of the paper exactly:
//
//   Integer unit:    add/sub/log/shift 1, mul 2, div 8, branch 1
//   Load/store unit: load 2, store 1
//   FP unit:         fpadd 1, fpmult 2, fpdiv 4 (single) / 7 (double)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"

namespace csmt::isa {

/// Functional-unit class an opcode executes on (Table 1 / Table 2).
enum class FuClass : std::uint8_t {
  kInt,    ///< integer ALU (also resolves branches)
  kLdSt,   ///< load/store unit
  kFp,     ///< floating-point unit
  kNone,   ///< consumes no functional unit (NOP, HALT)
};

enum class Op : std::uint8_t {
  // --- integer register-register (int unit, latency 1) ---
  kAdd, kSub, kAnd, kOr, kXor, kSll, kSrl, kSra, kSlt, kSltu,
  // --- integer register-immediate (int unit, latency 1) ---
  kAddi, kAndi, kOri, kXori, kSlli, kSrli, kSrai, kSlti,
  kLi,     ///< rd <- imm
  // --- integer multiply/divide ---
  kMul,    ///< latency 2
  kDiv,    ///< latency 8
  kRem,    ///< latency 8
  // --- control flow (int unit, latency 1) ---
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kJ,      ///< unconditional jump (always taken, never mispredicts)
  // --- memory (ld/st unit) ---
  kLd,     ///< int load:  rd <- mem[rs1 + imm], latency 2
  kSt,     ///< int store: mem[rs1 + imm] <- rs2, latency 1
  kFld,    ///< fp load:   fd <- mem[rs1 + imm] (double), latency 2
  kFst,    ///< fp store:  mem[rs1 + imm] <- fs2, latency 1
  kAmoSwap,///< atomic:    rd <- mem[rs1]; mem[rs1] <- rs2
  kAmoAdd, ///< atomic:    rd <- mem[rs1]; mem[rs1] += rs2
  // --- synchronization primitives (MINT-style: the functional front end
  // blocks the thread; the timing model sees an atomic on the sync line
  // and charges the blocked thread's issue slots to the sync hazard) ---
  kSyncBarrier, ///< barrier at [rs1], rs2 participants; blocks until last
  kSyncLockAcq, ///< acquire lock at [rs1]; blocks while held
  kSyncLockRel, ///< release lock at [rs1]
  // --- floating point (fp unit) ---
  kFadd,   ///< latency 1
  kFsub,   ///< latency 1
  kFmul,   ///< latency 2
  kFdivS,  ///< latency 4 (single precision)
  kFdivD,  ///< latency 7 (double precision)
  kFneg, kFabs, kFmov,          ///< latency 1
  kFcvtIF, ///< fd <- (double) rs1,  fp unit, latency 2
  kFcvtFI, ///< rd <- (int64) fs1,   fp unit, latency 2
  kFcmpLt, ///< rd <- fs1 <  fs2,    fp unit, latency 1
  kFcmpLe, ///< rd <- fs1 <= fs2,    fp unit, latency 1
  kFcmpEq, ///< rd <- fs1 == fs2,    fp unit, latency 1
  // --- misc ---
  kNop,
  kHalt,   ///< terminates the executing thread
  kOpCount_,
};

inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kOpCount_);

/// Static per-opcode properties consumed by both the functional interpreter
/// and the timing model.
struct OpInfo {
  FuClass fu;
  std::uint8_t latency;      ///< execution latency in cycles (Table 1)
  bool writes_int : 1;       ///< rd targets the integer regfile
  bool writes_fp : 1;        ///< rd targets the fp regfile
  bool reads_int1 : 1;       ///< rs1 is an integer source
  bool reads_int2 : 1;       ///< rs2 is an integer source
  bool reads_fp1 : 1;        ///< rs1 is an fp source
  bool reads_fp2 : 1;        ///< rs2 is an fp source
  bool is_branch : 1;        ///< any control transfer
  bool is_cond_branch : 1;   ///< conditional (predicted) branch
  bool is_load : 1;          ///< reads memory into a register
  bool is_store : 1;         ///< writes memory
  bool is_atomic : 1;        ///< read-modify-write
  bool is_halt : 1;
};

namespace detail {

// Compact row constructors so the table below stays readable.
constexpr OpInfo int_rr(std::uint8_t lat = 1) {
  return {FuClass::kInt, lat, true, false, true, true, false, false,
          false, false, false, false, false, false};
}
constexpr OpInfo int_ri(std::uint8_t lat = 1) {
  return {FuClass::kInt, lat, true, false, true, false, false, false,
          false, false, false, false, false, false};
}
constexpr OpInfo branch_rr() {
  return {FuClass::kInt, 1, false, false, true, true, false, false,
          true, true, false, false, false, false};
}
constexpr OpInfo fp_rr(std::uint8_t lat) {
  return {FuClass::kFp, lat, false, true, false, false, true, true,
          false, false, false, false, false, false};
}
constexpr OpInfo fp_r1(std::uint8_t lat) {
  return {FuClass::kFp, lat, false, true, false, false, true, false,
          false, false, false, false, false, false};
}

constexpr std::array<OpInfo, kNumOps> make_table() {
  std::array<OpInfo, kNumOps> t{};
  auto set = [&t](Op op, OpInfo info) {
    t[static_cast<std::size_t>(op)] = info;
  };
  set(Op::kAdd, int_rr());
  set(Op::kSub, int_rr());
  set(Op::kAnd, int_rr());
  set(Op::kOr, int_rr());
  set(Op::kXor, int_rr());
  set(Op::kSll, int_rr());
  set(Op::kSrl, int_rr());
  set(Op::kSra, int_rr());
  set(Op::kSlt, int_rr());
  set(Op::kSltu, int_rr());
  set(Op::kAddi, int_ri());
  set(Op::kAndi, int_ri());
  set(Op::kOri, int_ri());
  set(Op::kXori, int_ri());
  set(Op::kSlli, int_ri());
  set(Op::kSrli, int_ri());
  set(Op::kSrai, int_ri());
  set(Op::kSlti, int_ri());
  // li reads no sources at all.
  set(Op::kLi, {FuClass::kInt, 1, true, false, false, false, false, false,
                false, false, false, false, false, false});
  set(Op::kMul, int_rr(2));
  set(Op::kDiv, int_rr(8));
  set(Op::kRem, int_rr(8));
  set(Op::kBeq, branch_rr());
  set(Op::kBne, branch_rr());
  set(Op::kBlt, branch_rr());
  set(Op::kBge, branch_rr());
  set(Op::kBltu, branch_rr());
  set(Op::kBgeu, branch_rr());
  // Unconditional jump: a branch, but not a *conditional* one (no predictor).
  set(Op::kJ, {FuClass::kInt, 1, false, false, false, false, false, false,
               true, false, false, false, false, false});
  set(Op::kLd, {FuClass::kLdSt, 2, true, false, true, false, false, false,
                false, false, true, false, false, false});
  set(Op::kSt, {FuClass::kLdSt, 1, false, false, true, true, false, false,
                false, false, false, true, false, false});
  set(Op::kFld, {FuClass::kLdSt, 2, false, true, true, false, false, false,
                 false, false, true, false, false, false});
  set(Op::kFst, {FuClass::kLdSt, 1, false, false, true, false, false, true,
                 false, false, false, true, false, false});
  set(Op::kAmoSwap, {FuClass::kLdSt, 2, true, false, true, true, false, false,
                     false, false, true, true, true, false});
  set(Op::kAmoAdd, {FuClass::kLdSt, 2, true, false, true, true, false, false,
                    false, false, true, true, true, false});
  set(Op::kSyncBarrier, {FuClass::kLdSt, 2, false, false, true, true, false,
                         false, false, false, true, true, true, false});
  set(Op::kSyncLockAcq, {FuClass::kLdSt, 2, false, false, true, false, false,
                         false, false, false, true, true, true, false});
  set(Op::kSyncLockRel, {FuClass::kLdSt, 1, false, false, true, false, false,
                         false, false, false, false, true, false, false});
  set(Op::kFadd, fp_rr(1));
  set(Op::kFsub, fp_rr(1));
  set(Op::kFmul, fp_rr(2));
  set(Op::kFdivS, fp_rr(4));
  set(Op::kFdivD, fp_rr(7));
  set(Op::kFneg, fp_r1(1));
  set(Op::kFabs, fp_r1(1));
  set(Op::kFmov, fp_r1(1));
  set(Op::kFcvtIF, {FuClass::kFp, 2, false, true, true, false, false, false,
                    false, false, false, false, false, false});
  set(Op::kFcvtFI, {FuClass::kFp, 2, true, false, false, false, true, false,
                    false, false, false, false, false, false});
  set(Op::kFcmpLt, {FuClass::kFp, 1, true, false, false, false, true, true,
                    false, false, false, false, false, false});
  set(Op::kFcmpLe, {FuClass::kFp, 1, true, false, false, false, true, true,
                    false, false, false, false, false, false});
  set(Op::kFcmpEq, {FuClass::kFp, 1, true, false, false, false, true, true,
                    false, false, false, false, false, false});
  set(Op::kNop, {FuClass::kNone, 1, false, false, false, false, false, false,
                 false, false, false, false, false, false});
  set(Op::kHalt, {FuClass::kNone, 1, false, false, false, false, false, false,
                  false, false, false, false, false, true});
  return t;
}

inline constexpr std::array<OpInfo, kNumOps> kOpTable = make_table();

}  // namespace detail

/// Looks up the static properties of `op`: an inline, range-checked read
/// of a constant table, since fetch and dispatch consult it for every
/// instruction.
inline const OpInfo& op_info(Op op) {
  const auto i = static_cast<std::size_t>(op);
  CSMT_ASSERT(i < kNumOps);
  return detail::kOpTable[i];
}

/// Human-readable mnemonic ("add", "fld", ...). Stable across versions.
const char* op_name(Op op);

}  // namespace csmt::isa
