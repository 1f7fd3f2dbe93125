/**
 * @file
 * Decoded-µop trace cache for the PE front end.
 *
 * The interpreter in pe.cc used to re-run two switch ladders per
 * simulated cycle: the opcode dispatch in Pe::tick and the per-issue
 * operand/kernel selection inside Pe::issue*. This module hoists all
 * of that to program-load time: translateProgram() turns each static
 * Instruction into a dense Uop whose issue-path class, gating-register
 * set, operand widths and width-specialized vector kernels are already
 * resolved, so the per-cycle loop replays a flat array.
 *
 * The µop class also says which µops the PE may issue ahead of the
 * clock (Pe::runAhead): scalar ALU ops, set.vl/set.mr, branches and
 * nops touch nothing but the register file and the PC, so once their
 * gating registers are ready they issue one per cycle with no stall.
 * Translation is pure and deterministic — the µop stream is a function
 * of the program text only.
 */

#ifndef VIP_PE_DECODE_HH
#define VIP_PE_DECODE_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"

namespace vip {

/*
 * Width-specialized vector kernels (moved here from pe.cc so they can
 * be pre-resolved at translation time): the instruction selects one
 * fully-specialized function pointer whose inner loop is branch-free
 * element arithmetic on raw scratchpad bytes.
 */
using VecVecFn = void (*)(std::uint8_t *, const std::uint8_t *,
                          const std::uint8_t *, unsigned);
using VecScalarFn = void (*)(std::uint8_t *, const std::uint8_t *,
                             std::int64_t, unsigned);
using MatVecRowFn = std::int64_t (*)(const std::uint8_t *,
                                     const std::uint8_t *, unsigned);

VecVecFn vecVecFnFor(ElemWidth w, VecOp op);
VecScalarFn vecScalarFnFor(ElemWidth w, VecOp op);
MatVecRowFn matVecRowFnFor(ElemWidth w, VecOp vop, RedOp rop);

/** 64-bit scalar ALU semantics (shifts mask to 6 bits, Srl/Sll via
 *  unsigned arithmetic). */
std::int64_t applyScalarOp(ScalarOp op, std::int64_t a, std::int64_t b);

/** Signed saturation of a 64-bit value to an element width. */
std::int64_t saturateToWidth(std::int64_t v, ElemWidth w);

/** Issue path a µop dispatches to — the tick() switch, pre-selected. */
enum class UopClass : std::uint8_t {
    Config,  ///< set.vl / set.mr
    Drain,   ///< v.drain
    Vector,  ///< m.v / v.v / v.s
    Scalar,  ///< scalar ALU, mov, mov-immediate
    Branch,  ///< conditional branch / jmp
    Memory,  ///< ld.sram / st.sram / ld.reg / st.reg
    Fence,   ///< memfence
    Halt,
    Nop,
};

/** Operand shape of a Scalar-class µop. */
enum class ScalarForm : std::uint8_t {
    RR,  ///< rd <- rs1 op rs2
    RI,  ///< rd <- rs1 op imm (mov folds to rs1 | 0 here)
    Imm, ///< rd <- imm (no gating registers)
};

/** One pre-decoded µop: dispatch class, gating registers and kernels
 *  resolved once so issue re-runs no switch ladder. */
struct Uop
{
    UopClass cls = UopClass::Nop;
    Opcode op = Opcode::Nop;     ///< architectural opcode (subtype)
    ScalarForm form = ScalarForm::Imm;
    ScalarOp sop = ScalarOp::Add;
    BranchCond cond = BranchCond::Lt;
    ElemWidth width = ElemWidth::W16;
    VecOp vop = VecOp::Nop;
    RedOp rop = RedOp::Add;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::uint8_t nGating = 0;    ///< registers gating issue (<= 3)
    std::uint8_t gating[3] = {0, 0, 0};
    unsigned wBytes = 2;         ///< widthBytes(width)
    std::int64_t imm = 0;
    VecVecFn vecVec = nullptr;       ///< v.v kernel, pre-resolved
    VecScalarFn vecScalar = nullptr; ///< v.s kernel, pre-resolved
    MatVecRowFn matVecRow = nullptr; ///< m.v row kernel, pre-resolved
};

/** Scalar, Config, Branch and Nop µops read and write only the
 *  register file and the PC: the classes Pe::runAhead issues. */
inline bool
touchesOnlyRegisters(UopClass c)
{
    return c == UopClass::Scalar || c == UopClass::Config ||
           c == UopClass::Branch || c == UopClass::Nop;
}

/** Translate one instruction; translateProgram calls this once per
 *  static instruction. */
Uop translateUop(const Instruction &inst);

/** Translate a program once at load; pure and deterministic. */
std::vector<Uop> translateProgram(const std::vector<Instruction> &prog);

} // namespace vip

#endif // VIP_PE_DECODE_HH
