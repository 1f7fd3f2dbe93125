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
 * On top of the µop stream it also computes, per program counter, the
 * straight-line *fast block* starting there: the longest run of µops
 * that provably cannot stall once its live-in registers are ready —
 * scalar ALU ops, set.vl/set.mr, nops, and at most one terminating
 * branch/jump; nothing that touches the LSQ, the ARC table, the
 * scratchpad streams, or DRAM. A fast block's register effects can be
 * executed functionally in one step with its timing charged in bulk
 * (see Pe::tryFastPath); any µop outside these classes ends the block
 * and takes the cycle-accurate path. Translation is pure and
 * deterministic — the tables are a function of the program text only —
 * so the fast path changes host time, never simulated observables.
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
 *  unsigned arithmetic). Shared by the interpreter and the fast path. */
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

/**
 * The stall-free straight-line block starting at one program counter
 * (len == 0: the µop here is not fast-path eligible). Register masks
 * are bitsets over the 64 scalar registers.
 */
struct FastBlock
{
    std::uint16_t len = 0;      ///< µops in the block (incl. terminator)
    std::uint64_t liveIn = 0;   ///< registers read before written
};

/** A translated program: the µop stream plus per-pc fast-block table. */
struct DecodedProgram
{
    std::vector<Uop> uops;
    std::vector<FastBlock> blocks;
    std::size_t entryPoints = 0; ///< pcs from which a fast block starts
};

/** Translate one instruction; translateProgram calls this once per
 *  static instruction. */
Uop translateUop(const Instruction &inst);

/** Translate a program once at load; pure and deterministic. */
DecodedProgram translateProgram(const std::vector<Instruction> &prog);

} // namespace vip

#endif // VIP_PE_DECODE_HH
