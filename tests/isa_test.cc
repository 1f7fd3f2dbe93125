/**
 * @file
 * Unit and property tests for the VIP ISA: assembler syntax (the full
 * Table II surface), error reporting, disassembler round trips, and
 * the binary encoding.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "isa/isa.hh"
#include "sim/error.hh"
#include "sim/rng.hh"

namespace vip {
namespace {

Instruction
assembleOne(const std::string &line)
{
    const auto prog = assemble(line);
    EXPECT_EQ(prog.size(), 1u) << line;
    return prog.at(0);
}

TEST(Assembler, VectorInstructions)
{
    Instruction i = assembleOne("m.v.add.min[16] r10, r15, r11");
    EXPECT_EQ(i.op, Opcode::MatVec);
    EXPECT_EQ(i.vop, VecOp::Add);
    EXPECT_EQ(i.rop, RedOp::Min);
    EXPECT_EQ(i.width, ElemWidth::W16);
    EXPECT_EQ(i.rd, 10);
    EXPECT_EQ(i.rs1, 15);
    EXPECT_EQ(i.rs2, 11);

    i = assembleOne("m.v.nop.max[8] r1, r2, r3");
    EXPECT_EQ(i.vop, VecOp::Nop);
    EXPECT_EQ(i.rop, RedOp::Max);
    EXPECT_EQ(i.width, ElemWidth::W8);

    i = assembleOne("v.v.mul[32] r4, r5, r6");
    EXPECT_EQ(i.op, Opcode::VecVec);
    EXPECT_EQ(i.vop, VecOp::Mul);
    EXPECT_EQ(i.width, ElemWidth::W32);

    i = assembleOne("v.s.max[64] r7, r8, r9");
    EXPECT_EQ(i.op, Opcode::VecScalar);
    EXPECT_EQ(i.vop, VecOp::Max);
    EXPECT_EQ(i.width, ElemWidth::W64);

    // The paper's verbose width tag.
    i = assembleOne("v.v.add[16-bit] r1, r2, r3");
    EXPECT_EQ(i.width, ElemWidth::W16);

    // Default width is 16 bit.
    i = assembleOne("v.v.sub r1, r2, r3");
    EXPECT_EQ(i.width, ElemWidth::W16);
    EXPECT_EQ(i.vop, VecOp::Sub);
}

TEST(Assembler, ConfigInstructions)
{
    EXPECT_EQ(assembleOne("set.vl r61").op, Opcode::SetVl);
    EXPECT_EQ(assembleOne("set.mr r3").op, Opcode::SetMr);
    EXPECT_EQ(assembleOne("v.drain").op, Opcode::VDrain);
}

TEST(Assembler, ScalarInstructions)
{
    Instruction i = assembleOne("add r3, r1, r2");
    EXPECT_EQ(i.op, Opcode::ScalarRR);
    EXPECT_EQ(i.sop, ScalarOp::Add);

    i = assembleOne("sra.imm r3, r1, 5");
    EXPECT_EQ(i.op, Opcode::ScalarRI);
    EXPECT_EQ(i.sop, ScalarOp::Sra);
    EXPECT_EQ(i.imm, 5);

    i = assembleOne("xor r1, r1, r1");
    EXPECT_EQ(i.sop, ScalarOp::Xor);

    i = assembleOne("mov r5, r6");
    EXPECT_EQ(i.op, Opcode::Mov);

    i = assembleOne("mov.imm r5, -0x10");
    EXPECT_EQ(i.op, Opcode::MovImm);
    EXPECT_EQ(i.imm, -16);
}

TEST(Assembler, LoadStoreInstructions)
{
    Instruction i = assembleOne("ld.sram[16] r11, r7, r61");
    EXPECT_EQ(i.op, Opcode::LdSram);
    i = assembleOne("st.sram[16] r10, r14, r61");
    EXPECT_EQ(i.op, Opcode::StSram);
    i = assembleOne("ld.reg[64] r1, r2");
    EXPECT_EQ(i.op, Opcode::LdReg);
    EXPECT_EQ(i.width, ElemWidth::W64);
    i = assembleOne("st.reg[16] r1, r2");
    EXPECT_EQ(i.op, Opcode::StReg);
    EXPECT_EQ(assembleOne("memfence").op, Opcode::Memfence);
}

TEST(Assembler, LabelsAndBranches)
{
    const auto prog = assemble(R"(
start:
    mov.imm r1, 0
loop:   add.imm r1, r1, 1
    blt r1, r2, loop
    bge r1, r3, start
    beq r1, r4, end
    bne r1, r5, 2
    jmp start
end:
    halt
)");
    ASSERT_EQ(prog.size(), 8u);
    EXPECT_EQ(prog[1].op, Opcode::ScalarRI);  // loop: is index 1
    EXPECT_EQ(prog[2].op, Opcode::Branch);
    EXPECT_EQ(prog[2].cond, BranchCond::Lt);
    EXPECT_EQ(prog[2].imm, 1);
    EXPECT_EQ(prog[3].cond, BranchCond::Ge);
    EXPECT_EQ(prog[3].imm, 0);
    EXPECT_EQ(prog[4].imm, 7);  // forward reference to end:
    EXPECT_EQ(prog[5].imm, 2);  // numeric absolute target
    EXPECT_EQ(prog[6].op, Opcode::Jmp);
    EXPECT_EQ(prog[7].op, Opcode::Halt);
}

TEST(Assembler, CommentsAndWhitespace)
{
    const auto prog = assemble(
        "  nop ; trailing comment\n"
        "# full-line comment\n"
        "   \n"
        "halt # another\n");
    ASSERT_EQ(prog.size(), 2u);
    EXPECT_EQ(prog[0].op, Opcode::Nop);
    EXPECT_EQ(prog[1].op, Opcode::Halt);
}

struct ErrorCase
{
    const char *source;
    const char *fragment;  ///< expected substring of the message
};

class AssemblerErrors : public ::testing::TestWithParam<ErrorCase>
{
};

TEST_P(AssemblerErrors, Reported)
{
    try {
        assemble(GetParam().source);
        FAIL() << "assembled without error: " << GetParam().source;
    } catch (const AssemblyFailure &e) {
        EXPECT_NE(e.reason().find(GetParam().fragment), std::string::npos)
            << "message was: " << e.reason();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Syntax, AssemblerErrors,
    ::testing::Values(
        ErrorCase{"frob r1, r2", "unknown mnemonic"},
        ErrorCase{"add r1, r2", "expected 3 operands"},
        ErrorCase{"add r1, r2, r99", "bad register"},
        ErrorCase{"add r1, r2, x3", "bad register"},
        ErrorCase{"mov.imm r1, zzz", "bad immediate"},
        ErrorCase{"blt r1, r2, nowhere\nhalt", "undefined label"},
        ErrorCase{"a:\na:\nhalt", "duplicate label"},
        ErrorCase{"v.v.add[13] r1, r2, r3", "bad width tag"},
        ErrorCase{"v.v.nop r1, r2, r3", "bad vector operator"},
        ErrorCase{"m.v.add.mul r1, r2, r3", "composition"},
        ErrorCase{"set.pc r1", "unknown config register"}));

TEST(Assembler, RejectsOversizedPrograms)
{
    std::string src;
    for (unsigned i = 0; i < kInstBufferEntries + 1; ++i)
        src += "nop\n";
    try {
        assemble(src);
        FAIL() << "a 1025-instruction program assembled";
    } catch (const AssemblyFailure &e) {
        EXPECT_EQ(e.line(), 0u);
        EXPECT_NE(e.reason().find("instruction buffer"), std::string::npos);
    }
}

TEST(Encoding, RoundTripsRandomInstructions)
{
    Rng rng(99);
    std::vector<Instruction> prog;
    for (unsigned n = 0; n < 500; ++n) {
        Instruction i;
        i.op = static_cast<Opcode>(rng.nextBelow(
            static_cast<unsigned>(Opcode::Nop) + 1));
        i.width = static_cast<ElemWidth>(1u << rng.nextBelow(4));
        i.vop = static_cast<VecOp>(rng.nextBelow(6));
        i.rop = static_cast<RedOp>(rng.nextBelow(3));
        i.sop = static_cast<ScalarOp>(rng.nextBelow(8));
        i.cond = static_cast<BranchCond>(rng.nextBelow(4));
        i.rd = static_cast<std::uint8_t>(rng.nextBelow(64));
        i.rs1 = static_cast<std::uint8_t>(rng.nextBelow(64));
        i.rs2 = static_cast<std::uint8_t>(rng.nextBelow(64));
        i.imm = rng.nextRange(-(1 << 24), (1 << 24));
        if (i.op == Opcode::MovImm && rng.nextBelow(2) == 0) {
            // Exercise the two-word wide-immediate form.
            i.imm = static_cast<std::int64_t>(rng.next());
            i.rs2 = 0;
        }
        prog.push_back(i);
    }
    const auto back = decodeProgram(encodeProgram(prog));
    ASSERT_EQ(back.size(), prog.size());
    for (std::size_t n = 0; n < prog.size(); ++n) {
        EXPECT_EQ(back[n].op, prog[n].op) << n;
        EXPECT_EQ(back[n].width, prog[n].width) << n;
        EXPECT_EQ(back[n].rd, prog[n].rd) << n;
        EXPECT_EQ(back[n].rs1, prog[n].rs1) << n;
        EXPECT_EQ(back[n].imm, prog[n].imm) << n;
    }
}

TEST(Encoding, TooWideImmediateThrows)
{
    Instruction i = assembleOne("add.imm r1, r1, 99999999");
    try {
        encode(i);
        FAIL() << "encoded a 27-bit immediate";
    } catch (const ProgramError &e) {
        EXPECT_STREQ(e.what(),
                     "immediate 99999999 does not fit the 26-bit field");
    }
    EXPECT_THROW(encodeProgram({i}), ProgramError);
    i.imm = (1 << 25) - 1;
    EXPECT_NO_THROW(encode(i));
}

TEST(Encoding, InvalidOpcodeThrows)
{
    // "garbage\n" read as one word: opcode field 'g' = 103.
    const std::string image = "garbage\n";
    std::uint64_t word;
    std::memcpy(&word, image.data(), sizeof(word));
    try {
        decode(word);
        FAIL() << "decoded opcode 103";
    } catch (const ProgramError &e) {
        EXPECT_STREQ(e.what(), "invalid opcode field 103 in instruction "
                               "word");
    }
    EXPECT_THROW(decodeProgram(image), ProgramError);
}

TEST(Encoding, TruncatedImagesThrow)
{
    Instruction wide;
    wide.op = Opcode::MovImm;
    wide.rd = 1;
    wide.imm = std::int64_t{1} << 40;
    const std::string image = encodeProgram({wide});
    ASSERT_EQ(image.size(), 16u);
    EXPECT_EQ(decodeProgram(image).at(0).imm, wide.imm);
    try {
        decodeProgram(image.substr(0, 8));
        FAIL() << "decoded a wide mov.imm without its literal";
    } catch (const ProgramError &e) {
        EXPECT_STREQ(e.what(),
                     "word 0: wide mov.imm has no literal word after it");
    }
    try {
        decodeProgram(image.substr(0, 12));
        FAIL() << "decoded a 12-byte image";
    } catch (const ProgramError &e) {
        EXPECT_STREQ(e.what(), "binary of 12 bytes is not a whole number "
                               "of 8-byte words");
    }
}

TEST(Disassembler, RoundTripsThroughAssembler)
{
    // Disassembled text (for non-branch instructions) reassembles to
    // the same instruction.
    const char *lines[] = {
        "set.vl r61",          "set.mr r3",
        "v.drain",             "m.v.add.min[16] r10, r15, r11",
        "m.v.mul.add[16] r1, r2, r3",
        "v.v.add[16] r11, r11, r12",
        "v.s.mul[8] r4, r5, r6",
        "add r3, r1, r2",      "sll.imm r3, r1, 4",
        "mov r5, r6",          "mov.imm r5, 1000",
        "ld.sram[16] r11, r7, r61",
        "st.sram[16] r10, r14, r61",
        "ld.reg[64] r1, r2",   "st.reg[16] r1, r2",
        "memfence",            "halt",
        "nop",
    };
    for (const char *line : lines) {
        const Instruction first = assembleOne(line);
        const Instruction second = assembleOne(disassemble(first));
        EXPECT_EQ(encode(second), encode(first)) << line;
    }
}

TEST(Builder, MatchesAssembler)
{
    AsmBuilder b;
    const auto loop = b.newLabel();
    b.movImm(1, 0);
    b.bind(loop);
    b.addImm(1, 1, 1);
    b.vv(VecOp::Add, 11, 11, 12);
    b.mv(VecOp::Add, RedOp::Min, 10, 15, 11);
    b.branch(BranchCond::Lt, 1, 2, loop);
    b.halt();
    const auto built = b.finish();

    const auto assembled = assemble(R"(
    mov.imm r1, 0
loop:
    add.imm r1, r1, 1
    v.v.add[16] r11, r11, r12
    m.v.add.min[16] r10, r15, r11
    blt r1, r2, loop
    halt
)");
    ASSERT_EQ(built.size(), assembled.size());
    for (std::size_t i = 0; i < built.size(); ++i)
        EXPECT_EQ(encode(built[i]), encode(assembled[i])) << i;
}

TEST(Builder, OversizedProgramThrows)
{
    AsmBuilder b;
    for (unsigned i = 0; i < kInstBufferEntries; ++i)
        b.nop();
    EXPECT_EQ(b.finish().size(), kInstBufferEntries);
    b.halt();
    try {
        b.finish();
        FAIL() << "finished a 1025-instruction program";
    } catch (const ProgramError &e) {
        EXPECT_STREQ(e.what(), "generated program has 1025 instructions; "
                               "instruction buffer holds 1024");
    }
}

TEST(Builder, ForwardLabels)
{
    AsmBuilder b;
    const auto end = b.newLabel();
    b.jmp(end);
    b.nop();
    b.bind(end);
    b.halt();
    const auto prog = b.finish();
    EXPECT_EQ(prog[0].imm, 2);
}

} // namespace
} // namespace vip
