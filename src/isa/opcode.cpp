#include "isa/opcode.hpp"

#include "common/assert.hpp"

namespace csmt::isa {
namespace {

constexpr const char* kOpNames[kNumOps] = {
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
    "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "li",
    "mul", "div", "rem",
    "beq", "bne", "blt", "bge", "bltu", "bgeu", "j",
    "ld", "st", "fld", "fst", "amoswap", "amoadd",
    "sync.barrier", "sync.lockacq", "sync.lockrel",
    "fadd", "fsub", "fmul", "fdiv.s", "fdiv.d",
    "fneg", "fabs", "fmov", "fcvt.i.f", "fcvt.f.i",
    "fcmplt", "fcmple", "fcmpeq",
    "nop", "halt",
};

}  // namespace

const char* op_name(Op op) {
  const auto i = static_cast<std::size_t>(op);
  CSMT_ASSERT(i < kNumOps);
  return kOpNames[i];
}

}  // namespace csmt::isa
