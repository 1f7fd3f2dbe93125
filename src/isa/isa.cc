#include "isa/isa.hh"

#include <cstring>
#include <sstream>

#include "sim/error.hh"

namespace vip {

const char *
toString(Opcode op)
{
    switch (op) {
      case Opcode::SetVl: return "set.vl";
      case Opcode::SetMr: return "set.mr";
      case Opcode::VDrain: return "v.drain";
      case Opcode::MatVec: return "m.v";
      case Opcode::VecVec: return "v.v";
      case Opcode::VecScalar: return "v.s";
      case Opcode::ScalarRR: return "scalar.rr";
      case Opcode::ScalarRI: return "scalar.ri";
      case Opcode::Mov: return "mov";
      case Opcode::MovImm: return "mov.imm";
      case Opcode::Branch: return "branch";
      case Opcode::Jmp: return "jmp";
      case Opcode::LdSram: return "ld.sram";
      case Opcode::StSram: return "st.sram";
      case Opcode::LdReg: return "ld.reg";
      case Opcode::StReg: return "st.reg";
      case Opcode::Memfence: return "memfence";
      case Opcode::Halt: return "halt";
      case Opcode::Nop: return "nop";
    }
    return "?";
}

const char *
toString(VecOp op)
{
    switch (op) {
      case VecOp::Mul: return "mul";
      case VecOp::Add: return "add";
      case VecOp::Sub: return "sub";
      case VecOp::Min: return "min";
      case VecOp::Max: return "max";
      case VecOp::Nop: return "nop";
    }
    return "?";
}

const char *
toString(RedOp op)
{
    switch (op) {
      case RedOp::Add: return "add";
      case RedOp::Min: return "min";
      case RedOp::Max: return "max";
    }
    return "?";
}

const char *
toString(ScalarOp op)
{
    switch (op) {
      case ScalarOp::Add: return "add";
      case ScalarOp::Sub: return "sub";
      case ScalarOp::Sll: return "sll";
      case ScalarOp::Srl: return "srl";
      case ScalarOp::Sra: return "sra";
      case ScalarOp::And: return "and";
      case ScalarOp::Or: return "or";
      case ScalarOp::Xor: return "xor";
    }
    return "?";
}

const char *
toString(BranchCond c)
{
    switch (c) {
      case BranchCond::Lt: return "blt";
      case BranchCond::Ge: return "bge";
      case BranchCond::Eq: return "beq";
      case BranchCond::Ne: return "bne";
    }
    return "?";
}

namespace {

const char *
widthTag(ElemWidth w)
{
    switch (w) {
      case ElemWidth::W8: return "[8]";
      case ElemWidth::W16: return "[16]";
      case ElemWidth::W32: return "[32]";
      case ElemWidth::W64: return "[64]";
    }
    return "[?]";
}

std::string
reg(unsigned r)
{
    return "r" + std::to_string(r);
}

} // namespace

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream os;
    switch (inst.op) {
      case Opcode::SetVl:
        os << "set.vl " << reg(inst.rs1);
        break;
      case Opcode::SetMr:
        os << "set.mr " << reg(inst.rs1);
        break;
      case Opcode::VDrain:
        os << "v.drain";
        break;
      case Opcode::MatVec:
        os << "m.v." << toString(inst.vop) << "." << toString(inst.rop)
           << widthTag(inst.width) << " " << reg(inst.rd) << ", "
           << reg(inst.rs1) << ", " << reg(inst.rs2);
        break;
      case Opcode::VecVec:
        os << "v.v." << toString(inst.vop) << widthTag(inst.width) << " "
           << reg(inst.rd) << ", " << reg(inst.rs1) << ", "
           << reg(inst.rs2);
        break;
      case Opcode::VecScalar:
        os << "v.s." << toString(inst.vop) << widthTag(inst.width) << " "
           << reg(inst.rd) << ", " << reg(inst.rs1) << ", "
           << reg(inst.rs2);
        break;
      case Opcode::ScalarRR:
        os << toString(inst.sop) << " " << reg(inst.rd) << ", "
           << reg(inst.rs1) << ", " << reg(inst.rs2);
        break;
      case Opcode::ScalarRI:
        os << toString(inst.sop) << ".imm " << reg(inst.rd) << ", "
           << reg(inst.rs1) << ", " << inst.imm;
        break;
      case Opcode::Mov:
        os << "mov " << reg(inst.rd) << ", " << reg(inst.rs1);
        break;
      case Opcode::MovImm:
        os << "mov.imm " << reg(inst.rd) << ", " << inst.imm;
        break;
      case Opcode::Branch:
        os << toString(inst.cond) << " " << reg(inst.rs1) << ", "
           << reg(inst.rs2) << ", @" << inst.imm;
        break;
      case Opcode::Jmp:
        os << "jmp @" << inst.imm;
        break;
      case Opcode::LdSram:
        os << "ld.sram" << widthTag(inst.width) << " " << reg(inst.rd)
           << ", " << reg(inst.rs1) << ", " << reg(inst.rs2);
        break;
      case Opcode::StSram:
        os << "st.sram" << widthTag(inst.width) << " " << reg(inst.rd)
           << ", " << reg(inst.rs1) << ", " << reg(inst.rs2);
        break;
      case Opcode::LdReg:
        os << "ld.reg" << widthTag(inst.width) << " " << reg(inst.rd)
           << ", " << reg(inst.rs1);
        break;
      case Opcode::StReg:
        os << "st.reg" << widthTag(inst.width) << " " << reg(inst.rd)
           << ", " << reg(inst.rs1);
        break;
      case Opcode::Memfence:
        os << "memfence";
        break;
      case Opcode::Halt:
        os << "halt";
        break;
      case Opcode::Nop:
        os << "nop";
        break;
    }
    return os.str();
}

namespace {

constexpr unsigned kOpShift = 0;
constexpr unsigned kWidthShift = 8;   // log2(bytes), 2 bits
constexpr unsigned kVopShift = 10;    // 3 bits
constexpr unsigned kRopShift = 13;    // 2 bits
constexpr unsigned kSopShift = 15;    // 3 bits
constexpr unsigned kCondShift = 18;   // 2 bits
constexpr unsigned kRdShift = 20;     // 6 bits
constexpr unsigned kRs1Shift = 26;    // 6 bits
constexpr unsigned kRs2Shift = 32;    // 6 bits
constexpr unsigned kImmShift = 38;    // 26 bits, signed

constexpr std::int64_t kImmMax = (1ll << 25) - 1;
constexpr std::int64_t kImmMin = -(1ll << 25);

unsigned
widthLog2(ElemWidth w)
{
    switch (w) {
      case ElemWidth::W8: return 0;
      case ElemWidth::W16: return 1;
      case ElemWidth::W32: return 2;
      case ElemWidth::W64: return 3;
    }
    return 1;
}

} // namespace

bool
immFitsEncoding(std::int64_t imm)
{
    return imm >= kImmMin && imm <= kImmMax;
}

std::uint64_t
encode(const Instruction &inst)
{
    if (!immFitsEncoding(inst.imm) && inst.op != Opcode::MovImm) {
        throw ProgramError("immediate " + std::to_string(inst.imm) +
                           " does not fit the 26-bit field");
    }
    const bool wide = inst.op == Opcode::MovImm &&
                      !immFitsEncoding(inst.imm);
    const std::int64_t imm = wide ? 0 : inst.imm;
    std::uint64_t w = 0;
    w |= static_cast<std::uint64_t>(inst.op) << kOpShift;
    w |= static_cast<std::uint64_t>(widthLog2(inst.width)) << kWidthShift;
    w |= static_cast<std::uint64_t>(inst.vop) << kVopShift;
    w |= static_cast<std::uint64_t>(inst.rop) << kRopShift;
    w |= static_cast<std::uint64_t>(inst.sop) << kSopShift;
    w |= static_cast<std::uint64_t>(inst.cond) << kCondShift;
    w |= static_cast<std::uint64_t>(inst.rd & 0x3f) << kRdShift;
    // For a wide mov.imm the rs2 field carries the literal-follows flag.
    const std::uint8_t rs2 = wide ? 1 : inst.rs2;
    w |= static_cast<std::uint64_t>(inst.rs1 & 0x3f) << kRs1Shift;
    w |= static_cast<std::uint64_t>(rs2 & 0x3f) << kRs2Shift;
    w |= (static_cast<std::uint64_t>(imm) & 0x3ffffff) << kImmShift;
    return w;
}

std::string
encodeProgram(const std::vector<Instruction> &prog)
{
    std::string image;
    image.reserve(8 * prog.size());
    const auto put = [&image](std::uint64_t w) {
        image.append(reinterpret_cast<const char *>(&w), sizeof(w));
    };
    for (const auto &inst : prog) {
        put(encode(inst));
        if (inst.op == Opcode::MovImm && !immFitsEncoding(inst.imm))
            put(static_cast<std::uint64_t>(inst.imm));
    }
    return image;
}

std::vector<Instruction>
decodeProgram(std::string_view image)
{
    if (image.size() % 8 != 0) {
        throw ProgramError("binary of " + std::to_string(image.size()) +
                           " bytes is not a whole number of 8-byte "
                           "words");
    }
    const std::size_t words = image.size() / 8;
    const auto word = [&image](std::size_t i) {
        std::uint64_t w;
        std::memcpy(&w, image.data() + 8 * i, sizeof(w));
        return w;
    };
    std::vector<Instruction> prog;
    prog.reserve(words);
    for (std::size_t i = 0; i < words; ++i) {
        Instruction inst = decode(word(i));
        if (inst.op == Opcode::MovImm && inst.rs2 == 1) {
            if (i + 1 == words) {
                throw ProgramError("word " + std::to_string(i) +
                                   ": wide mov.imm has no literal word "
                                   "after it");
            }
            inst.imm = static_cast<std::int64_t>(word(++i));
            inst.rs2 = 0;
        }
        prog.push_back(inst);
    }
    return prog;
}

Instruction
decode(std::uint64_t word)
{
    Instruction inst;
    const auto opv = (word >> kOpShift) & 0xff;
    if (opv > static_cast<std::uint64_t>(Opcode::Nop)) {
        throw ProgramError("invalid opcode field " + std::to_string(opv) +
                           " in instruction word");
    }
    inst.op = static_cast<Opcode>(opv);
    inst.width = static_cast<ElemWidth>(1u << ((word >> kWidthShift) & 0x3));
    inst.vop = static_cast<VecOp>((word >> kVopShift) & 0x7);
    inst.rop = static_cast<RedOp>((word >> kRopShift) & 0x3);
    inst.sop = static_cast<ScalarOp>((word >> kSopShift) & 0x7);
    inst.cond = static_cast<BranchCond>((word >> kCondShift) & 0x3);
    inst.rd = static_cast<std::uint8_t>((word >> kRdShift) & 0x3f);
    inst.rs1 = static_cast<std::uint8_t>((word >> kRs1Shift) & 0x3f);
    inst.rs2 = static_cast<std::uint8_t>((word >> kRs2Shift) & 0x3f);
    std::int64_t imm = static_cast<std::int64_t>((word >> kImmShift) &
                                                 0x3ffffff);
    if (imm > kImmMax)
        imm -= (1ll << 26);
    inst.imm = imm;
    return inst;
}

} // namespace vip
