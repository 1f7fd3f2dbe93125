/**
 * @file
 * The VIP instruction set (Table II of the paper).
 *
 * Vector operands are *scratchpad addresses held in scalar registers*
 * (the vector memory-memory paradigm): a vector instruction names three
 * scalar registers whose values are byte addresses into the PE's 4 KiB
 * scratchpad. Vector length (elements) and matrix rows come from the VL
 * and MR configuration registers set with set.vl / set.mr.
 *
 * Semantics summary (w = element width in bytes, VL/MR from config):
 *  - v.v.OP   rd, ra, rb : sp[rd][i]   = OP(sp[ra][i], sp[rb][i]), i<VL
 *  - v.s.OP   rd, ra, rb : sp[rd][i]   = OP(sp[ra][i], scalar rb),  i<VL
 *  - m.v.V.H  rd, ra, rb : sp[rd][r]   = Hreduce_i V(mat[r][i], sp[rb][i]),
 *                          mat = MR x VL row-major at sp[ra], r<MR
 *  - ld.sram  rd, ra, rb : sp[rd .. rd+rb*w) <- DRAM[ra ..)
 *  - st.sram  rd, ra, rb : DRAM[ra ..) <- sp[rd .. rd+rb*w)
 *  - ld.reg   rd, ra     : rd <- sign-extended DRAM[r[ra]] (w bytes)
 *  - st.reg   rd, ra     : DRAM[r[ra]] <- low w bytes of rd
 *  (for ld/st.sram the *values* of rd/ra/rb give sp addr, DRAM addr,
 *   element count)
 *
 * halt is a simulator convenience: it parks the PE. The paper's PEs run
 * kernels dispatched by a host; halt marks kernel completion.
 */

#ifndef VIP_ISA_ISA_HH
#define VIP_ISA_ISA_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vip {

/** Element width of a subword vector operation. */
enum class ElemWidth : std::uint8_t { W8 = 1, W16 = 2, W32 = 4, W64 = 8 };

inline unsigned widthBytes(ElemWidth w) { return static_cast<unsigned>(w); }

/** Vertical (element-wise) operator set. */
enum class VecOp : std::uint8_t { Mul, Add, Sub, Min, Max, Nop };

/** Horizontal (reduction) operator set. */
enum class RedOp : std::uint8_t { Add, Min, Max };

/** Scalar ALU operator set. */
enum class ScalarOp : std::uint8_t { Add, Sub, Sll, Srl, Sra, And, Or, Xor };

/** Branch conditions. */
enum class BranchCond : std::uint8_t { Lt, Ge, Eq, Ne };

enum class Opcode : std::uint8_t
{
    // Configuration
    SetVl, SetMr, VDrain,
    // Vector
    MatVec, VecVec, VecScalar,
    // Scalar
    ScalarRR, ScalarRI, Mov, MovImm, Branch, Jmp,
    // Load-store
    LdSram, StSram, LdReg, StReg, Memfence,
    // Simulator control
    Halt, Nop,
};

/** Number of scalar registers (Sec. III-B). */
inline constexpr unsigned kNumScalarRegs = 64;

/** Instruction buffer capacity per PE (Sec. III-B). */
inline constexpr unsigned kInstBufferEntries = 1024;

/** One decoded VIP instruction. */
struct Instruction
{
    Opcode op = Opcode::Nop;
    ElemWidth width = ElemWidth::W16;
    VecOp vop = VecOp::Add;
    RedOp rop = RedOp::Add;
    ScalarOp sop = ScalarOp::Add;
    BranchCond cond = BranchCond::Lt;

    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;

    /** Immediate operand, or resolved branch/jump target (instr index). */
    std::int64_t imm = 0;
};

const char *toString(Opcode op);
const char *toString(VecOp op);
const char *toString(RedOp op);
const char *toString(ScalarOp op);
const char *toString(BranchCond c);

/** Render one instruction as assembly text. */
std::string disassemble(const Instruction &inst);

/** True when @p imm fits the 26-bit signed immediate field. */
bool immFitsEncoding(std::int64_t imm);

/**
 * Pack an instruction into its 64-bit binary encoding.
 * @throws ProgramError unless immFitsEncoding(inst.imm) or inst is a
 *         mov.imm (which the program-level encoder expands to a
 *         two-word form).
 */
std::uint64_t encode(const Instruction &inst);

/** Unpack a 64-bit word; @throws ProgramError on an invalid opcode. */
Instruction decode(std::uint64_t word);

/**
 * Encode a whole program as a binary image: its 64-bit words in host
 * byte order, which is what vip-asm writes. mov.imm instructions whose
 * immediate exceeds the 26-bit field become two words: the instruction
 * (with a literal-follows flag in the unused rs2 field) plus a raw
 * 64-bit literal word. Branch targets are indices into the
 * *instruction* stream (not the word stream) in both representations,
 * so round trips preserve them unchanged.
 */
std::string encodeProgram(const std::vector<Instruction> &prog);

/**
 * Inverse of encodeProgram. @throws ProgramError for an image that is
 * not a whole number of words, a wide mov.imm without its literal, or
 * an invalid word.
 */
std::vector<Instruction> decodeProgram(std::string_view image);

} // namespace vip

#endif // VIP_ISA_ISA_HH
