#include "isa/builder.hh"

#include "sim/error.hh"
#include "sim/logging.hh"

namespace vip {

AsmBuilder::Label
AsmBuilder::newLabel()
{
    labelTargets_.push_back(-1);
    return labelTargets_.size() - 1;
}

void
AsmBuilder::bind(Label l)
{
    vip_assert(l < labelTargets_.size(), "unknown label ", l);
    vip_assert(labelTargets_[l] < 0, "label ", l, " bound twice");
    labelTargets_[l] = static_cast<std::int64_t>(prog_.size());
}

void
AsmBuilder::emit(const Instruction &inst)
{
    prog_.push_back(inst);
}

void
AsmBuilder::setVl(unsigned rs)
{
    Instruction i;
    i.op = Opcode::SetVl;
    i.rs1 = static_cast<std::uint8_t>(rs);
    emit(i);
}

void
AsmBuilder::setMr(unsigned rs)
{
    Instruction i;
    i.op = Opcode::SetMr;
    i.rs1 = static_cast<std::uint8_t>(rs);
    emit(i);
}

void
AsmBuilder::vdrain()
{
    Instruction i;
    i.op = Opcode::VDrain;
    emit(i);
}

void
AsmBuilder::mv(VecOp vop, RedOp rop, unsigned rd, unsigned ra, unsigned rb,
               ElemWidth w)
{
    Instruction i;
    i.op = Opcode::MatVec;
    i.vop = vop;
    i.rop = rop;
    i.width = w;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(ra);
    i.rs2 = static_cast<std::uint8_t>(rb);
    emit(i);
}

void
AsmBuilder::vv(VecOp vop, unsigned rd, unsigned ra, unsigned rb, ElemWidth w)
{
    vip_assert(vop != VecOp::Nop, "v.v.nop is not a valid composition");
    Instruction i;
    i.op = Opcode::VecVec;
    i.vop = vop;
    i.width = w;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(ra);
    i.rs2 = static_cast<std::uint8_t>(rb);
    emit(i);
}

void
AsmBuilder::vs(VecOp vop, unsigned rd, unsigned ra, unsigned rb, ElemWidth w)
{
    vip_assert(vop != VecOp::Nop, "v.s.nop is not a valid composition");
    Instruction i;
    i.op = Opcode::VecScalar;
    i.vop = vop;
    i.width = w;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(ra);
    i.rs2 = static_cast<std::uint8_t>(rb);
    emit(i);
}

void
AsmBuilder::scalar(ScalarOp op, unsigned rd, unsigned rs1, unsigned rs2)
{
    Instruction i;
    i.op = Opcode::ScalarRR;
    i.sop = op;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(rs1);
    i.rs2 = static_cast<std::uint8_t>(rs2);
    emit(i);
}

void
AsmBuilder::scalarImm(ScalarOp op, unsigned rd, unsigned rs1,
                      std::int64_t imm)
{
    Instruction i;
    i.op = Opcode::ScalarRI;
    i.sop = op;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(rs1);
    i.imm = imm;
    emit(i);
}

void
AsmBuilder::mov(unsigned rd, unsigned rs)
{
    Instruction i;
    i.op = Opcode::Mov;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(rs);
    emit(i);
}

void
AsmBuilder::movImm(unsigned rd, std::int64_t imm)
{
    Instruction i;
    i.op = Opcode::MovImm;
    i.rd = static_cast<std::uint8_t>(rd);
    i.imm = imm;
    emit(i);
}

void
AsmBuilder::branch(BranchCond cond, unsigned rs1, unsigned rs2, Label target)
{
    Instruction i;
    i.op = Opcode::Branch;
    i.cond = cond;
    i.rs1 = static_cast<std::uint8_t>(rs1);
    i.rs2 = static_cast<std::uint8_t>(rs2);
    fixups_.push_back({prog_.size(), target});
    emit(i);
}

void
AsmBuilder::jmp(Label target)
{
    Instruction i;
    i.op = Opcode::Jmp;
    fixups_.push_back({prog_.size(), target});
    emit(i);
}

void
AsmBuilder::ldSram(unsigned rd_sp, unsigned ra_dram, unsigned rb_len,
                   ElemWidth w)
{
    Instruction i;
    i.op = Opcode::LdSram;
    i.width = w;
    i.rd = static_cast<std::uint8_t>(rd_sp);
    i.rs1 = static_cast<std::uint8_t>(ra_dram);
    i.rs2 = static_cast<std::uint8_t>(rb_len);
    emit(i);
}

void
AsmBuilder::stSram(unsigned rd_sp, unsigned ra_dram, unsigned rb_len,
                   ElemWidth w)
{
    Instruction i;
    i.op = Opcode::StSram;
    i.width = w;
    i.rd = static_cast<std::uint8_t>(rd_sp);
    i.rs1 = static_cast<std::uint8_t>(ra_dram);
    i.rs2 = static_cast<std::uint8_t>(rb_len);
    emit(i);
}

void
AsmBuilder::ldReg(unsigned rd, unsigned ra, ElemWidth w)
{
    Instruction i;
    i.op = Opcode::LdReg;
    i.width = w;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(ra);
    emit(i);
}

void
AsmBuilder::stReg(unsigned rd, unsigned ra, ElemWidth w)
{
    Instruction i;
    i.op = Opcode::StReg;
    i.width = w;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(ra);
    emit(i);
}

void
AsmBuilder::memfence()
{
    Instruction i;
    i.op = Opcode::Memfence;
    emit(i);
}

void
AsmBuilder::halt()
{
    Instruction i;
    i.op = Opcode::Halt;
    emit(i);
}

void
AsmBuilder::nop()
{
    Instruction i;
    i.op = Opcode::Nop;
    emit(i);
}

std::vector<Instruction>
AsmBuilder::finish()
{
    for (const auto &fix : fixups_) {
        vip_assert(fix.label < labelTargets_.size(), "unknown label");
        const std::int64_t target = labelTargets_[fix.label];
        vip_assert(target >= 0, "label ", fix.label, " used but never bound");
        prog_[fix.instIndex].imm = target;
    }
    if (prog_.size() > kInstBufferEntries) {
        throw ProgramError(detail::formatArgs(
            "generated program has ", prog_.size(),
            " instructions; instruction buffer holds ",
            kInstBufferEntries));
    }
    fixups_.clear();
    return prog_;
}

} // namespace vip
