/**
 * @file
 * The assembler's contract. Error paths: every malformed input must
 * throw an AssemblyFailure carrying the right 1-based source line and
 * reason — never a crash, never a partial program — and the
 * Simulation facade must surface the same failure. Round trips: every
 * kernel generator's program and generated random programs reassemble
 * from their disassembly to the same instructions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/hier_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "random_program.hh"
#include "sim/error.hh"
#include "system/simulation.hh"

namespace vip {
namespace {

/** Assemble expecting failure; returns the thrown error. */
AssemblyFailure
expectError(const std::string &source)
{
    try {
        assemble(source);
    } catch (const AssemblyFailure &e) {
        return e;
    }
    ADD_FAILURE() << "assembled without error:\n" << source;
    return AssemblyFailure(0, "");
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    const AssemblyFailure err = expectError("mov.imm r1, 8\n"
                                          "frobnicate r1, r2\n"
                                          "halt\n");
    EXPECT_EQ(err.line(), 2u);
    EXPECT_NE(err.reason().find("frobnicate"), std::string::npos)
        << err.reason();
}

TEST(AssemblerErrors, OutOfRangeRegister)
{
    // r64 is one past the 64-entry scalar register file.
    const AssemblyFailure err = expectError("mov.imm r64, 1\n");
    EXPECT_EQ(err.line(), 1u);
    EXPECT_NE(err.reason().find("r64"), std::string::npos) << err.reason();
}

TEST(AssemblerErrors, MalformedRegisterToken)
{
    const AssemblyFailure err = expectError("mov.imm rx, 1\n");
    EXPECT_EQ(err.line(), 1u);
    EXPECT_NE(err.reason().find("register"), std::string::npos)
        << err.reason();
}

TEST(AssemblerErrors, UndefinedLabel)
{
    const AssemblyFailure err = expectError("mov.imm r1, 0\n"
                                          "mov.imm r2, 4\n"
                                          "blt r1, r2, nowhere\n"
                                          "halt\n");
    // The fixup pass reports the line of the branch that referenced
    // the missing label, not the end of the file.
    EXPECT_EQ(err.line(), 3u);
    EXPECT_NE(err.reason().find("nowhere"), std::string::npos)
        << err.reason();
}

TEST(AssemblerErrors, DuplicateLabel)
{
    const AssemblyFailure err = expectError("loop:\n"
                                          "  halt\n"
                                          "loop:\n"
                                          "  halt\n");
    EXPECT_EQ(err.line(), 3u);
    EXPECT_NE(err.reason().find("loop"), std::string::npos) << err.reason();
}

TEST(AssemblerErrors, WrongOperandCount)
{
    const AssemblyFailure err = expectError("mov.imm r1\n");
    EXPECT_EQ(err.line(), 1u);
    EXPECT_NE(err.reason().find("operand"), std::string::npos)
        << err.reason();
}

TEST(AssemblerErrors, BadImmediate)
{
    const AssemblyFailure err = expectError("mov.imm r1, 12abc\n");
    EXPECT_EQ(err.line(), 1u);
    EXPECT_NE(err.reason().find("immediate"), std::string::npos)
        << err.reason();
}

TEST(AssemblerErrors, BadWidthTag)
{
    const AssemblyFailure err = expectError("mov.imm r1, 8\n"
                                          "v.v.add[24] r2, r3, r4\n");
    EXPECT_EQ(err.line(), 2u);
    EXPECT_NE(err.reason().find("width"), std::string::npos)
        << err.reason();
}

TEST(AssemblerErrors, MalformedLabel)
{
    // A label token containing whitespace can never be referenced.
    const AssemblyFailure err = expectError("bad label: halt\n");
    EXPECT_EQ(err.line(), 1u);
    EXPECT_NE(err.reason().find("label"), std::string::npos)
        << err.reason();
}

TEST(AssemblerErrors, OnlyTheFirstErrorIsReported)
{
    const AssemblyFailure err = expectError("bogus1 r1\n"
                                          "bogus2 r2\n");
    EXPECT_EQ(err.line(), 1u);
    EXPECT_NE(err.reason().find("bogus1"), std::string::npos)
        << err.reason();
}

TEST(AssemblerErrors, FacadeThrowsStructuredFailure)
{
    Simulation sim(makeSystemConfig(1, 1));
    try {
        sim.loadProgram(0, "mov.imm r1, 8\nfrobnicate r1\n");
        FAIL() << "expected AssemblyFailure";
    } catch (const AssemblyFailure &e) {
        EXPECT_EQ(e.kind(), "assembly");
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("frobnicate"),
                  std::string::npos);
    }
    // The facade (and its machine) survives: a corrected program loads
    // and runs on the same instance.
    const RunResult r = sim.loadProgram(0, "halt\n").run(1000);
    EXPECT_TRUE(r.haltedCleanly);
}

struct HostileLine
{
    std::string source;
    unsigned line;
    std::string message;
};

TEST(AssemblerErrors, HostileLinesGiveExactMessagesAndLines)
{
    const std::vector<HostileLine> table = {
        {"frobnicate r1, r2\n", 1, "unknown mnemonic 'frobnicate'"},
        {"halt\nmov.imm r64, 1\n", 2, "bad register 'r64'"},
        {"mov.imm rx, 1\n", 1, "bad register 'rx'"},
        {"add r1, r2, r+3\n", 1, "bad register 'r+3'"},
        {"add r1, , r3\n", 1, "bad register ''"},
        {"mov.imm r1\n", 1, "expected 2 operands, got 1"},
        {"halt r1\n", 1, "expected 0 operands, got 1"},
        {"blt r1, r2\n", 1, "expected 3 operands, got 2"},
        {"add r1, r2, r3, r4\n", 1, "expected 3 operands, got 4"},
        {"v.drain ,\n", 1, "expected 0 operands, got 1"},
        {"mov.imm r1, 12abc\n", 1, "bad immediate '12abc'"},
        {"add.imm r1, r2, 0x\n", 1, "bad immediate '0x'"},
        {"mov.imm r1, 99999999999999999999\n", 1,
         "bad immediate '99999999999999999999'"},
        {"mov.imm r1, 8\nv.v.add[24] r2, r3, r4\n", 2,
         "bad width tag '[24]'"},
        {"ld.sram[16 r1, r2, r3\n", 1, "bad width tag '[16'"},
        {"bad label: halt\n", 1, "malformed label"},
        {"  : halt\n", 1, "malformed label"},
        {"x:\nhalt\nx: halt\n", 3, "duplicate label 'x'"},
        {"halt\njmp nowhere\n", 2, "undefined label 'nowhere'"},
        {"jmp 3\nhalt\n", 1, "undefined label '3'"},
        {"jmp -1\n", 1, "undefined label '-1'"},
        {"blt r1, r2, a\nblt r1, r2, b\n", 1, "undefined label 'a'"},
        {"set.foo r1\n", 1, "unknown config register 'foo'"},
        {"set.vl.x r1\n", 1, "unknown mnemonic 'set.vl.x'"},
        {"m.v.mul.foo[16] r1, r2, r3\n", 1,
         "bad m.v operator composition 'm.v.mul.foo[16]'"},
        {"v.v.nop r1, r2, r3\n", 1, "bad vector operator 'nop'"},
        {"v.s.div r1, r2, r3\n", 1, "bad vector operator 'div'"},
        {"v..add r1, r2, r3\n", 1, "unknown mnemonic 'v..add'"},
        {"add.foo r1, r2, r3\n", 1, "unknown mnemonic 'add.foo'"},
        {"[16] r1\n", 1, "unknown mnemonic '[16]'"},
        {"ADD r1, r2, r3\n", 1, "unknown mnemonic 'ADD'"},
        {"r1, r2\n", 1, "unknown mnemonic 'r1,'"},
        {"mov.imm\rr1, 5\n", 1, "unknown mnemonic 'mov.imm\rr1,'"},
        {"; comment\n\n  # another\n\tbogus r1 ; trailing\n", 4,
         "unknown mnemonic 'bogus'"},
        {"loop: next: bogus\n", 1, "unknown mnemonic 'bogus'"},
        {std::string("halt\0x\n", 7), 1,
         std::string("unknown mnemonic 'halt\0x'", 25)},
        {std::string("mov.imm r1, 5\0\n", 15), 1,
         std::string("bad immediate '5\0'", 18)},
    };
    for (const HostileLine &h : table) {
        const AssemblyFailure err = expectError(h.source);
        EXPECT_EQ(err.line(), h.line) << h.source;
        EXPECT_EQ(err.reason(), h.message) << h.source;
    }
}

TEST(AssemblerErrors, OversizedProgramReportsLineZero)
{
    std::string source;
    for (unsigned i = 0; i <= kInstBufferEntries; ++i)
        source += "nop\n";
    const AssemblyFailure err = expectError(source);
    EXPECT_EQ(err.line(), 0u);
    EXPECT_EQ(err.reason(),
              "program has 1025 instructions; the PE instruction buffer "
              "holds 1024");
}

/** The disassembly of a program, one instruction per line. */
std::string
listing(const std::vector<Instruction> &prog)
{
    std::string out;
    for (const Instruction &inst : prog)
        out += disassemble(inst) + "\n";
    return out;
}

TEST(AssemblerAccepts, LenientSpellingsAssembleAsPinned)
{
    // Spellings the language accepts beyond the canonical form.
    const std::vector<std::pair<std::string, std::string>> table = {
        {"add r1, r2, r3,\n", "add r1, r2, r3\n"},
        {"add R1,r2 ,\tr03\n", "add r1, r2, r3\n"},
        {"mov.imm r1, --5\n", "mov.imm r1, 5\n"},
        {"mov.imm r1, +0x10\n", "mov.imm r1, 16\n"},
        {"mov.imm r1, -0X1f\n", "mov.imm r1, -31\n"},
        {"mov.imm r1, 0x-5\n", "mov.imm r1, -5\n"},
        {"ld.sram[16-bit] r1, r2, r3\n", "ld.sram[16] r1, r2, r3\n"},
        {"v.v.add[8-bit] r1, r2, r3\n", "v.v.add[8] r1, r2, r3\n"},
        {"a\tb: halt\njmp a\tb\n", "halt\njmp @0\n"},
        {"x: y: z: halt ; three labels\njmp y # c\n", "halt\njmp @0\n"},
        {"end:\n", ""},
        {"jmp end\nend:\n", "jmp @1\n"},
        {"jmp 1\n", "jmp @1\n"},
        {"  halt  \r\n\v\f\n", "halt\n"},
        {"halt", "halt\n"},
        {"halt\n\n\n", "halt\n"},
    };
    for (const auto &[source, want] : table) {
        std::vector<Instruction> prog;
        EXPECT_NO_THROW(prog = assemble(source)) << source;
        EXPECT_EQ(listing(prog), want) << source;
    }
}

// --- Round trips ---------------------------------------------------------

/** Assembly text the assembler reads back: the disassembly, with the
 *  "@N" branch-target spelling as a bare absolute index. */
std::string
programSource(const std::vector<Instruction> &prog)
{
    std::string src;
    for (const Instruction &inst : prog) {
        std::string line = disassemble(inst);
        line.erase(std::remove(line.begin(), line.end(), '@'), line.end());
        src += line;
        src += '\n';
    }
    return src;
}

bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.op == b.op && a.width == b.width && a.vop == b.vop &&
           a.rop == b.rop && a.sop == b.sop && a.cond == b.cond &&
           a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2 &&
           a.imm == b.imm;
}

void
expectRoundTrip(const std::vector<Instruction> &prog,
                const std::string &what)
{
    ASSERT_FALSE(prog.empty()) << what;
    std::vector<Instruction> back;
    ASSERT_NO_THROW(back = assemble(programSource(prog))) << what;
    ASSERT_EQ(back.size(), prog.size()) << what;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        EXPECT_TRUE(sameInstruction(back[i], prog[i]))
            << what << " instruction " << i << ": "
            << disassemble(prog[i]) << " came back as "
            << disassemble(back[i]);
    }
}

TEST(AssemblerRoundTrip, EveryKernelGenerator)
{
    const Addr base = 0x10000;

    // Convolution: a finalizing pass, a partial pass with filter
    // groups, and the shard-accumulation pass.
    const FmapDramLayout in(base, 8, 10, 12, 1);
    const FmapDramLayout out(in.end() + 64, 4, 10, 12, 0);
    const FmapDramLayout part(out.end() + 64, 4, 10, 12, 0);
    ConvJob conv;
    conv.in = &in;
    conv.out = &out;
    conv.filterBlob = part.end() + 64;
    conv.biasBlob = conv.filterBlob + 4096;
    conv.zShard = 8;
    conv.filters = 4;
    conv.rowBegin = 0;
    conv.rowEnd = 10;
    conv.width = 12;
    expectRoundTrip(genConvPass(conv), "conv finalize");
    conv.out = &part;
    conv.finalize = false;
    conv.groups = 2;
    conv.rowBegin = 3;
    conv.rowEnd = 7;
    expectRoundTrip(genConvPass(conv), "conv partial");
    ConvAccumJob accum;
    accum.partials = {&part, &part};
    accum.out = &out;
    accum.biasRowBlob = conv.biasBlob;
    accum.rowBegin = 0;
    accum.rowEnd = 10;
    accum.chunkElems = 48;
    accum.chunksPerRow = 1;
    expectRoundTrip(genConvAccum(accum), "conv accum");

    // Pooling.
    const FmapDramLayout pool_out(in.end() + 64, 8, 5, 6, 0);
    PoolJob pool;
    pool.in = &in;
    pool.out = &pool_out;
    pool.rowBegin = 0;
    pool.rowEnd = 5;
    pool.width = 6;
    pool.chunk = 8;
    expectRoundTrip(genPool(pool), "pool");

    // Fully connected: a partial segment, a finalizing layer, and the
    // two-level accumulation.
    FcPartialJob fc;
    fc.weightBase = base;
    fc.inputBase = base + 0x10000;
    fc.outBase = base + 0x20000;
    fc.biasBase = base + 0x30000;
    fc.inputs = 128;
    fc.segOffset = 32;
    fc.segLen = 32;
    fc.rowBegin = 0;
    fc.rowEnd = 64;
    fc.outBlock = 32;
    expectRoundTrip(genFcPartial(fc), "fc partial");
    fc.segOffset = 0;
    fc.segLen = 128;
    fc.finalize = true;
    expectRoundTrip(genFcPartial(fc), "fc finalize");
    FcAccumJob fca;
    fca.partialBase0 = base + 0x40000;
    fca.strideOuter = 0x1000;
    fca.countOuter = 4;
    fca.strideInner = 0x200;
    fca.countInner = 2;
    fca.outBase = base + 0x50000;
    fca.biasBase = base + 0x30000;
    fca.outBegin = 0;
    fca.outEnd = 64;
    fca.chunk = 32;
    expectRoundTrip(genFcAccum(fca), "fc accum");

    // Belief propagation: every sweep direction, every variant (the
    // register-file ones sweep right only), and the multi-PE iteration
    // program with barriers.
    const MrfDramLayout mrf(base, 12, 10, 8);
    for (const SweepDir dir : {SweepDir::Right, SweepDir::Left,
                               SweepDir::Down, SweepDir::Up}) {
        const bool vertical = dir == SweepDir::Down || dir == SweepDir::Up;
        expectRoundTrip(
            genBpSweep(mrf, BpVariant{},
                       BpSweepJob{dir, 0, vertical ? 12u : 10u}),
            "bp sweep " + std::to_string(static_cast<int>(dir)));
    }
    for (const BpVariant &v : {BpVariant{false, false, 4, false},
                               BpVariant{true, true, 4, false},
                               BpVariant{false, true, 4, false}}) {
        expectRoundTrip(
            genBpSweep(mrf, v, BpSweepJob{SweepDir::Right, 0, 10}),
            "bp sweep variant");
    }
    const BpSweepJob jobs[4] = {{SweepDir::Right, 0, 3},
                                {SweepDir::Left, 0, 3},
                                {SweepDir::Down, 0, 3},
                                {SweepDir::Up, 0, 3}};
    expectRoundTrip(genBpIterations(mrf, BpVariant{}, jobs, 2,
                                    mrf.end() + 64, 1, 4),
                    "bp iterations");

    // Hierarchical BP: construct and copy.
    const MrfDramLayout coarse(mrf.end() + 64, 6, 5, 8);
    ConstructJob construct;
    construct.fine = &mrf;
    construct.coarse = &coarse;
    construct.rowBegin = 0;
    construct.rowEnd = 5;
    expectRoundTrip(genConstruct(construct), "hier construct");
    CopyJob copy;
    copy.coarse = &coarse;
    copy.fine = &mrf;
    copy.rowBegin = 0;
    copy.rowEnd = 10;
    expectRoundTrip(genCopyMessages(copy), "hier copy");
}

TEST(AssemblerRoundTrip, RandomPrograms)
{
    Rng rng(424242);
    for (unsigned trial = 0; trial < 300; ++trial) {
        expectRoundTrip(randomProgram(rng, 0x40000 * trial),
                        "random program " + std::to_string(trial));
    }
}

} // namespace
} // namespace vip
