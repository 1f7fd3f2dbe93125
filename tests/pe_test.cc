/**
 * @file
 * Unit and property tests for the PE microarchitecture: scalar
 * semantics, subword vector semantics with saturation, the composed
 * matrix-vector operations, ARC interlocking, valid-bit stalls,
 * memfence, v.drain, and the hazard checker.
 */

#include <gtest/gtest.h>

#include <limits>

#include "isa/builder.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "system/system.hh"
#include "workloads/fixed.hh"

namespace vip {
namespace {

/** One-PE fixture with direct scratchpad access. */
class PeTest : public ::testing::Test
{
  protected:
    PeTest() : sys_(makeConfig()) {}

    static SystemConfig
    makeConfig()
    {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.pe.strictHazards = false;
        return cfg;
    }

    Pe &pe() { return sys_.pe(0); }

    /** Run a program to completion; returns cycles simulated. */
    Cycles
    run(const std::vector<Instruction> &prog)
    {
        sys_.pe(0).loadProgram(prog);
        const Cycles start = sys_.now();
        sys_.run(10'000'000);
        EXPECT_TRUE(sys_.allIdle());
        return sys_.now() - start;
    }

    VipSystem sys_;
};

TEST_F(PeTest, ScalarAluSemantics)
{
    AsmBuilder b;
    b.movImm(1, 100);
    b.movImm(2, -7);
    b.scalar(ScalarOp::Add, 10, 1, 2);
    b.scalar(ScalarOp::Sub, 11, 1, 2);
    b.movImm(3, 3);
    b.scalar(ScalarOp::Sll, 12, 1, 3);
    b.scalarImm(ScalarOp::Srl, 13, 2, 1);
    b.scalarImm(ScalarOp::Sra, 14, 2, 1);
    b.scalarImm(ScalarOp::And, 15, 1, 0x6);
    b.scalarImm(ScalarOp::Or, 16, 1, 0x3);
    b.scalarImm(ScalarOp::Xor, 17, 1, 0xff);
    b.mov(18, 2);
    b.halt();
    run(b.finish());

    EXPECT_EQ(pe().reg(10), 93u);
    EXPECT_EQ(pe().reg(11), 107u);
    EXPECT_EQ(pe().reg(12), 800u);
    EXPECT_EQ(pe().reg(13), static_cast<std::uint64_t>(-7) >> 1);
    EXPECT_EQ(static_cast<std::int64_t>(pe().reg(14)), -4);
    EXPECT_EQ(pe().reg(15), 100u & 0x6);
    EXPECT_EQ(pe().reg(16), 100u | 0x3);
    EXPECT_EQ(pe().reg(17), 100u ^ 0xff);
    EXPECT_EQ(static_cast<std::int64_t>(pe().reg(18)), -7);
}

TEST_F(PeTest, BranchConditionsAreSigned)
{
    AsmBuilder b;
    b.movImm(1, -5);
    b.movImm(2, 3);
    b.movImm(10, 0);
    const auto skip = b.newLabel();
    b.branch(BranchCond::Lt, 1, 2, skip);  // -5 < 3: taken
    b.movImm(10, 1);                       // skipped
    b.bind(skip);
    b.movImm(11, 0);
    const auto skip2 = b.newLabel();
    b.branch(BranchCond::Ge, 1, 2, skip2); // -5 >= 3: not taken
    b.movImm(11, 1);
    b.bind(skip2);
    b.halt();
    run(b.finish());
    EXPECT_EQ(pe().reg(10), 0u);
    EXPECT_EQ(pe().reg(11), 1u);
}

struct VecCase
{
    VecOp op;
    ElemWidth width;
};

class VecVecSemantics : public ::testing::TestWithParam<VecCase>
{
};

TEST_P(VecVecSemantics, MatchesScalarModel)
{
    const auto [op, width] = GetParam();
    const unsigned w = widthBytes(width);
    const unsigned vl = 16 / w * 3;  // odd multiple of the lane count

    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    Pe &pe = sys.pe(0);

    Rng rng(static_cast<unsigned>(op) * 16 + w);
    std::vector<std::int64_t> a(vl), c(vl);
    for (unsigned i = 0; i < vl; ++i) {
        a[i] = rng.nextRange(-1000, 1000);
        c[i] = rng.nextRange(-1000, 1000);
        // Write operands directly into the scratchpad.
        const std::int64_t av = a[i], cv = c[i];
        switch (width) {
          case ElemWidth::W8:
            pe.scratchpad().store<std::int8_t>(0 + i * w,
                                               static_cast<std::int8_t>(
                                                   av % 100));
            pe.scratchpad().store<std::int8_t>(512 + i * w,
                                               static_cast<std::int8_t>(
                                                   cv % 100));
            a[i] = static_cast<std::int8_t>(av % 100);
            c[i] = static_cast<std::int8_t>(cv % 100);
            break;
          case ElemWidth::W16:
            pe.scratchpad().store<std::int16_t>(0 + i * w,
                                                static_cast<std::int16_t>(
                                                    av));
            pe.scratchpad().store<std::int16_t>(512 + i * w,
                                                static_cast<std::int16_t>(
                                                    cv));
            break;
          case ElemWidth::W32:
            pe.scratchpad().store<std::int32_t>(0 + i * w,
                                                static_cast<std::int32_t>(
                                                    av));
            pe.scratchpad().store<std::int32_t>(512 + i * w,
                                                static_cast<std::int32_t>(
                                                    cv));
            break;
          case ElemWidth::W64:
            pe.scratchpad().store<std::int64_t>(0 + i * w, av);
            pe.scratchpad().store<std::int64_t>(512 + i * w, cv);
            break;
        }
    }

    AsmBuilder b;
    b.movImm(1, vl);
    b.setVl(1);
    b.movImm(2, 1024);  // dst
    b.movImm(3, 0);     // src a
    b.movImm(4, 512);   // src b
    b.vv(op, 2, 3, 4, width);
    b.halt();
    pe.loadProgram(b.finish());
    sys.run(1'000'000);
    ASSERT_TRUE(sys.allIdle());

    for (unsigned i = 0; i < vl; ++i) {
        std::int64_t want = 0;
        switch (op) {
          case VecOp::Mul: want = a[i] * c[i]; break;
          case VecOp::Add: want = a[i] + c[i]; break;
          case VecOp::Sub: want = a[i] - c[i]; break;
          case VecOp::Min: want = std::min(a[i], c[i]); break;
          case VecOp::Max: want = std::max(a[i], c[i]); break;
          case VecOp::Nop: want = a[i]; break;
        }
        std::int64_t got = 0;
        switch (width) {
          case ElemWidth::W8:
            want = std::clamp<std::int64_t>(want, INT8_MIN, INT8_MAX);
            got = pe.scratchpad().load<std::int8_t>(1024 + i * w);
            break;
          case ElemWidth::W16:
            want = std::clamp<std::int64_t>(want, INT16_MIN, INT16_MAX);
            got = pe.scratchpad().load<std::int16_t>(1024 + i * w);
            break;
          case ElemWidth::W32:
            want = std::clamp<std::int64_t>(want, INT32_MIN, INT32_MAX);
            got = pe.scratchpad().load<std::int32_t>(1024 + i * w);
            break;
          case ElemWidth::W64:
            got = pe.scratchpad().load<std::int64_t>(1024 + i * w);
            break;
        }
        EXPECT_EQ(got, want) << "lane " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAndWidths, VecVecSemantics,
    ::testing::Values(VecCase{VecOp::Add, ElemWidth::W8},
                      VecCase{VecOp::Add, ElemWidth::W16},
                      VecCase{VecOp::Add, ElemWidth::W32},
                      VecCase{VecOp::Add, ElemWidth::W64},
                      VecCase{VecOp::Sub, ElemWidth::W16},
                      VecCase{VecOp::Mul, ElemWidth::W16},
                      VecCase{VecOp::Mul, ElemWidth::W32},
                      VecCase{VecOp::Min, ElemWidth::W16},
                      VecCase{VecOp::Max, ElemWidth::W8},
                      VecCase{VecOp::Max, ElemWidth::W64}));

struct MvCase
{
    VecOp vop;
    RedOp rop;
};

class MatVecSemantics : public ::testing::TestWithParam<MvCase>
{
};

TEST_P(MatVecSemantics, MatchesScalarModel)
{
    const auto [vop, rop] = GetParam();
    const unsigned mr = 5, vl = 7;

    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    Pe &pe = sys.pe(0);

    Rng rng(static_cast<unsigned>(vop) * 3 + static_cast<unsigned>(rop));
    std::vector<Fx16> mat(mr * vl), vec(vl);
    for (auto &m : mat)
        m = static_cast<Fx16>(rng.nextRange(-500, 500));
    for (auto &v : vec)
        v = static_cast<Fx16>(rng.nextRange(-500, 500));
    for (unsigned i = 0; i < mat.size(); ++i)
        pe.scratchpad().store<Fx16>(0 + i * 2, mat[i]);
    for (unsigned i = 0; i < vl; ++i)
        pe.scratchpad().store<Fx16>(512 + i * 2, vec[i]);

    AsmBuilder b;
    b.movImm(1, vl);
    b.setVl(1);
    b.movImm(2, mr);
    b.setMr(2);
    b.movImm(3, 1024);  // dst
    b.movImm(4, 0);     // matrix
    b.movImm(5, 512);   // vector
    b.mv(vop, rop, 3, 4, 5);
    b.halt();
    pe.loadProgram(b.finish());
    sys.run(1'000'000);
    ASSERT_TRUE(sys.allIdle());

    for (unsigned r = 0; r < mr; ++r) {
        std::int64_t acc = rop == RedOp::Add
                               ? 0
                               : (rop == RedOp::Min
                                      ? std::numeric_limits<
                                            std::int64_t>::max()
                                      : std::numeric_limits<
                                            std::int64_t>::min());
        for (unsigned i = 0; i < vl; ++i) {
            std::int64_t e = 0;
            const std::int64_t m = mat[r * vl + i], v = vec[i];
            switch (vop) {
              case VecOp::Mul: e = m * v; break;
              case VecOp::Add: e = m + v; break;
              case VecOp::Sub: e = m - v; break;
              case VecOp::Min: e = std::min(m, v); break;
              case VecOp::Max: e = std::max(m, v); break;
              case VecOp::Nop: e = m; break;
            }
            switch (rop) {
              case RedOp::Add: acc += e; break;
              case RedOp::Min: acc = std::min(acc, e); break;
              case RedOp::Max: acc = std::max(acc, e); break;
            }
        }
        EXPECT_EQ(pe.scratchpad().load<Fx16>(1024 + r * 2), sat16(acc))
            << "row " << r;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Compositions, MatVecSemantics,
    ::testing::Values(MvCase{VecOp::Add, RedOp::Min},    // BP update
                      MvCase{VecOp::Mul, RedOp::Add},    // dot product
                      MvCase{VecOp::Add, RedOp::Add},
                      MvCase{VecOp::Sub, RedOp::Max},
                      MvCase{VecOp::Min, RedOp::Min},
                      MvCase{VecOp::Max, RedOp::Add},
                      MvCase{VecOp::Nop, RedOp::Min},    // row minimum
                      MvCase{VecOp::Nop, RedOp::Add}));  // row sum

TEST_F(PeTest, SaturationAtElementWidth)
{
    // 30000 + 30000 saturates int16 to 32767 (the dynamic-fixed-point
    // writeback rule).
    pe().scratchpad().store<Fx16>(0, 30000);
    pe().scratchpad().store<Fx16>(32, 30000);
    pe().scratchpad().store<Fx16>(2, -30000);
    pe().scratchpad().store<Fx16>(34, -30000);
    AsmBuilder b;
    b.movImm(1, 2);
    b.setVl(1);
    b.movImm(2, 64);
    b.movImm(3, 0);
    b.movImm(4, 32);
    b.vv(VecOp::Add, 2, 3, 4);
    b.halt();
    run(b.finish());
    EXPECT_EQ(pe().scratchpad().load<Fx16>(64), 32767);
    EXPECT_EQ(pe().scratchpad().load<Fx16>(66), -32768);
}

TEST_F(PeTest, LdRegClearsValidBitUntilCompletion)
{
    sys_.dram().store<std::int64_t>(512, 4242);
    AsmBuilder b;
    b.movImm(1, 512);
    b.ldReg(2, 1, ElemWidth::W64);
    b.mov(3, 2);  // must stall until the load completes
    b.halt();
    const Cycles cycles = run(b.finish());
    EXPECT_EQ(pe().reg(3), 4242u);
    // The round trip through vault timing takes tens of cycles.
    EXPECT_GT(cycles, 40u);
    EXPECT_GT(pe().stats().stallScalar.value(), 10u);
}

TEST_F(PeTest, LdRegSignExtends)
{
    sys_.dram().store<std::int16_t>(512, -5);
    AsmBuilder b;
    b.movImm(1, 512);
    b.ldReg(2, 1, ElemWidth::W16);
    b.halt();
    run(b.finish());
    EXPECT_EQ(static_cast<std::int64_t>(pe().reg(2)), -5);
}

TEST_F(PeTest, ArcInterlocksUseBeforeLoad)
{
    for (unsigned i = 0; i < 8; ++i)
        sys_.dram().store<Fx16>(1024 + i * 2, static_cast<Fx16>(i + 1));
    AsmBuilder b;
    b.movImm(1, 8);
    b.setVl(1);
    b.movImm(2, 0);     // sp dst of load
    b.movImm(3, 1024);  // dram
    b.ldSram(2, 3, 1);
    b.movImm(4, 64);    // result
    // Consume immediately: the ARC must stall this until data lands.
    b.vv(VecOp::Add, 4, 2, 2);
    b.halt();
    run(b.finish());
    EXPECT_GT(pe().stats().stallArc.value(), 5u);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(pe().scratchpad().load<Fx16>(64 + i * 2),
                  2 * static_cast<int>(i + 1));
    }
    // Correctly interlocked code is not a timing hazard.
    EXPECT_EQ(pe().stats().timingHazards.value(), 0u);
}

TEST_F(PeTest, BackToBackAddsChainLegally)
{
    // Classic vector chaining: a dependent add issued right as the
    // producer's occupancy clears never outruns the data (the paper's
    // Fig. 2 relies on this).
    AsmBuilder b;
    b.movImm(1, 16);
    b.setVl(1);
    b.movImm(2, 0);
    b.movImm(3, 64);
    b.movImm(4, 128);
    b.vv(VecOp::Add, 3, 2, 2);
    b.vv(VecOp::Add, 4, 3, 3);
    b.halt();
    run(b.finish());
    EXPECT_EQ(pe().stats().timingHazards.value(), 0u);
}

TEST_F(PeTest, HazardCheckerFlagsUnscheduledUse)
{
    // A short multiply (4-stage pipe, 1 cycle of streaming) followed
    // immediately by a consumer IS a hazard: the consumer's first
    // element is read before the producer's pipeline drains.
    AsmBuilder b;
    b.movImm(1, 4);
    b.setVl(1);
    b.movImm(2, 0);
    b.movImm(3, 64);
    b.movImm(4, 128);
    b.vv(VecOp::Mul, 3, 2, 2);  // writes sp[64..72) at issue+4
    b.vv(VecOp::Add, 4, 3, 3);  // reads it at issue+1
    b.halt();
    run(b.finish());
    EXPECT_GT(pe().stats().timingHazards.value(), 0u);
    // The conservative fence removes the hazard.
    AsmBuilder b2;
    b2.movImm(1, 4);
    b2.setVl(1);
    b2.movImm(2, 0);
    b2.movImm(3, 64);
    b2.movImm(4, 128);
    b2.vv(VecOp::Mul, 3, 2, 2);
    b2.vdrain();
    b2.vv(VecOp::Add, 4, 3, 3);
    b2.halt();
    SystemConfig cfg = makeConfig();
    VipSystem fresh(cfg);
    fresh.pe(0).loadProgram(b2.finish());
    fresh.run(1'000'000);
    EXPECT_EQ(fresh.pe(0).stats().timingHazards.value(), 0u);
}

TEST_F(PeTest, MemfenceWaitsForOutstandingStores)
{
    AsmBuilder b;
    b.movImm(1, 4);
    b.setVl(1);
    b.movImm(2, 0);
    b.movImm(3, 2048);
    b.stSram(2, 3, 1);
    b.memfence();
    b.halt();
    const Cycles cycles = run(b.finish());
    EXPECT_GT(pe().stats().stallFence.value(), 5u);
    EXPECT_GT(cycles, 30u);
}

TEST_F(PeTest, VDrainWaitsForVectorPipe)
{
    AsmBuilder b;
    b.movImm(1, 256);
    b.setVl(1);
    b.movImm(2, 0);
    b.movImm(3, 1024);
    b.vv(VecOp::Add, 3, 2, 2);  // 256 elements: 64 cycles of streaming
    b.vdrain();
    b.halt();
    run(b.finish());
    EXPECT_GT(pe().stats().stallDrain.value(), 30u);
}

TEST_F(PeTest, VectorOpsCountMatchesPaperFormula)
{
    // One BP message update: 3 v.v.adds (3L) + m.v (2L^2) = 3L + 2L^2.
    const unsigned L = 16;
    AsmBuilder b;
    b.movImm(1, L);
    b.setVl(1);
    b.setMr(1);
    b.movImm(2, 0);
    b.movImm(3, 64);
    b.movImm(4, 128);
    b.movImm(5, 1024);  // smoothness "matrix"
    for (int i = 0; i < 3; ++i)
        b.vv(VecOp::Add, 2, 3, 4);
    b.mv(VecOp::Add, RedOp::Min, 2, 5, 3);
    b.halt();
    run(b.finish());
    EXPECT_EQ(pe().vectorOps(), 3 * L + 2 * L * L);
}

TEST_F(PeTest, InOrderIssueOneInstructionPerCycle)
{
    // 100 independent scalar adds take at least 100 cycles.
    AsmBuilder b;
    b.movImm(1, 1);
    for (unsigned i = 0; i < 100; ++i)
        b.scalar(ScalarOp::Add, 2 + (i % 8), 1, 1);
    b.halt();
    const Cycles cycles = run(b.finish());
    EXPECT_GE(cycles, 101u);
    EXPECT_EQ(pe().stats().instructions.value(), 102u);
}

TEST_F(PeTest, StSramRoundTripsToDram)
{
    for (unsigned i = 0; i < 4; ++i)
        pe().scratchpad().store<Fx16>(i * 2, static_cast<Fx16>(100 + i));
    AsmBuilder b;
    b.movImm(1, 4);
    b.movImm(2, 0);
    b.movImm(3, 4096);
    b.stSram(2, 3, 1);
    b.memfence();
    b.halt();
    run(b.finish());
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(sys_.dram().load<Fx16>(4096 + i * 2),
                  static_cast<Fx16>(100 + i));
    }
}

} // namespace
} // namespace vip
