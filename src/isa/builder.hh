/**
 * @file
 * Programmatic assembly builder used by the kernel generators.
 *
 * The paper's kernels are hand-written assembly; our generators build
 * the same programs parametrically (image size, labels, filter shapes)
 * through this interface, which handles forward label references and
 * enforces the 1,024-entry instruction buffer limit.
 */

#ifndef VIP_ISA_BUILDER_HH
#define VIP_ISA_BUILDER_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"

namespace vip {

class AsmBuilder
{
  public:
    /** An abstract code position, bindable before or after use. */
    using Label = std::size_t;

    Label newLabel();

    /** Bind @p l to the next emitted instruction. */
    void bind(Label l);

    // --- Configuration ---
    void setVl(unsigned rs);
    void setMr(unsigned rs);
    void vdrain();

    // --- Vector ---
    void mv(VecOp vop, RedOp rop, unsigned rd, unsigned ra, unsigned rb,
            ElemWidth w = ElemWidth::W16);
    void vv(VecOp vop, unsigned rd, unsigned ra, unsigned rb,
            ElemWidth w = ElemWidth::W16);
    void vs(VecOp vop, unsigned rd, unsigned ra, unsigned rb,
            ElemWidth w = ElemWidth::W16);

    // --- Scalar ---
    void scalar(ScalarOp op, unsigned rd, unsigned rs1, unsigned rs2);
    void scalarImm(ScalarOp op, unsigned rd, unsigned rs1,
                   std::int64_t imm);
    void mov(unsigned rd, unsigned rs);
    void movImm(unsigned rd, std::int64_t imm);

    /** add.imm shorthand, the most common scalar instruction. */
    void
    addImm(unsigned rd, unsigned rs1, std::int64_t imm)
    {
        scalarImm(ScalarOp::Add, rd, rs1, imm);
    }

    // --- Control ---
    void branch(BranchCond cond, unsigned rs1, unsigned rs2, Label target);
    void jmp(Label target);

    // --- Load-store ---
    void ldSram(unsigned rd_sp, unsigned ra_dram, unsigned rb_len,
                ElemWidth w = ElemWidth::W16);
    void stSram(unsigned rd_sp, unsigned ra_dram, unsigned rb_len,
                ElemWidth w = ElemWidth::W16);
    void ldReg(unsigned rd, unsigned ra, ElemWidth w = ElemWidth::W64);
    void stReg(unsigned rd, unsigned ra, ElemWidth w = ElemWidth::W64);
    void memfence();

    // --- Simulator control ---
    void halt();
    void nop();

    std::size_t size() const { return prog_.size(); }

    /**
     * Patch all label references and return the program. Panics if a
     * used label was never bound (a generator bug); @throws
     * ProgramError if the program exceeds the instruction buffer.
     */
    std::vector<Instruction> finish();

  private:
    void emit(const Instruction &inst);

    struct Fixup
    {
        std::size_t instIndex;
        Label label;
    };

    std::vector<Instruction> prog_;
    std::vector<std::int64_t> labelTargets_;  ///< -1 while unbound
    std::vector<Fixup> fixups_;
};

} // namespace vip

#endif // VIP_ISA_BUILDER_HH
