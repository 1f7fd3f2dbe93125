/**
 * @file
 * The subword-parallelism claim of Sec. III: the 64-bit datapath
 * processes one 64-bit, two 32-bit, four 16-bit, or eight 8-bit
 * elements per cycle — "a peak throughput ranging from 320 GOp/s for
 * 64-bit data to 2,560 GOp/s for 8-bit data". We verify the cycle
 * scaling directly, and exercise the stock (vault-low) HMC address
 * mapping end to end.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "system/simulation.hh"
#include "workloads/fixed.hh"

namespace vip {
namespace {

/** Cycles to stream @p reps back-to-back adds of @p bytes-long
 *  vectors at element width @p w. */
Cycles
streamCycles(ElemWidth w, unsigned vector_bytes, unsigned reps)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    AsmBuilder b;
    b.movImm(1, vector_bytes / widthBytes(w));
    b.setVl(1);
    b.movImm(2, 0);
    b.movImm(3, 1024);
    for (unsigned i = 0; i < reps; ++i)
        b.vv(VecOp::Add, 3, 2, 2, w);
    b.vdrain();
    b.halt();
    sys.pe(0).loadProgram(b.finish());
    const Cycles start = sys.now();
    sys.run(1'000'000);
    EXPECT_TRUE(sys.allIdle());
    return sys.now() - start;
}

TEST(Subword, SameBytesTakeSameCyclesAtEveryWidth)
{
    // 256 bytes of work = 32 datapath cycles regardless of element
    // width: 32 x 64-bit, 64 x 32-bit, 128 x 16-bit, 256 x 8-bit.
    const Cycles w8 = streamCycles(ElemWidth::W8, 256, 16);
    const Cycles w16 = streamCycles(ElemWidth::W16, 256, 16);
    const Cycles w32 = streamCycles(ElemWidth::W32, 256, 16);
    const Cycles w64 = streamCycles(ElemWidth::W64, 256, 16);
    EXPECT_EQ(w8, w16);
    EXPECT_EQ(w16, w32);
    EXPECT_EQ(w32, w64);
}

TEST(Subword, ElementThroughputScalesWithWidth)
{
    // The same *element count* takes 8x longer at 64-bit than 8-bit:
    // the paper's 320 -> 2,560 GOp/s range.
    const unsigned elems = 256;  // 2 KiB at 64-bit: fits at sp 1024
    auto cycles_for = [&](ElemWidth w) {
        return streamCycles(w, elems * widthBytes(w), 12);
    };
    const Cycles c8 = cycles_for(ElemWidth::W8);
    const Cycles c64 = cycles_for(ElemWidth::W64);
    const double ratio = static_cast<double>(c64) /
                         static_cast<double>(c8);
    EXPECT_NEAR(ratio, 8.0, 0.8);

    // Peak ops/cycle at 16-bit: 12 adds of 256 elements in
    // ~12*64 cycles = ~4 vertical lane ops per cycle.
    const Cycles c16 = cycles_for(ElemWidth::W16);
    const double ops_per_cycle = 12.0 * elems / static_cast<double>(c16);
    EXPECT_GT(ops_per_cycle, 3.5);
    EXPECT_LE(ops_per_cycle, 4.1);
}

TEST(Subword, WideElementsComputeCorrectly)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    Pe &pe = sys.pe(0);
    pe.scratchpad().store<std::int32_t>(0, 1 << 20);
    pe.scratchpad().store<std::int32_t>(4, -77);
    pe.scratchpad().store<std::int32_t>(64, 3);
    pe.scratchpad().store<std::int32_t>(68, 1 << 30);
    AsmBuilder b;
    b.movImm(1, 2);
    b.setVl(1);
    b.movImm(2, 128);
    b.movImm(3, 0);
    b.movImm(4, 64);
    b.vv(VecOp::Mul, 2, 3, 4, ElemWidth::W32);
    b.halt();
    pe.loadProgram(b.finish());
    sys.run(100000);
    ASSERT_TRUE(sys.allIdle());
    EXPECT_EQ(pe.scratchpad().load<std::int32_t>(128), 3 << 20);
    // (1<<30) * -77 saturates int32.
    EXPECT_EQ(pe.scratchpad().load<std::int32_t>(132), INT32_MIN);
}

TEST(StockMapping, VaultLowInterleaveWorksEndToEnd)
{
    // The default HMC scheme spreads consecutive columns across
    // vaults (Sec. III-C). A PE still computes correctly; its 32-byte
    // column transfers simply fan out across the whole stack.
    SystemConfig cfg = makeSystemConfig(4, 1);
    cfg.mem.addrMap = AddrMap::RowBankColVault;
    VipSystem sys(cfg);

    for (unsigned i = 0; i < 64; ++i)
        sys.dram().store<Fx16>(4096 + 2 * i, static_cast<Fx16>(i * 3));

    AsmBuilder b;
    b.movImm(1, 64);  // 128 bytes: four 32 B columns, four vaults
    b.setVl(1);
    b.movImm(2, 0);
    b.movImm(3, 4096);
    b.ldSram(2, 3, 1);       // spans all four vaults
    b.movImm(4, 256);
    b.vv(VecOp::Add, 4, 2, 2);
    b.movImm(5, 8192);
    b.stSram(4, 5, 1);       // scatter back across vaults
    b.memfence();
    b.halt();
    sys.pe(0).loadProgram(b.finish());
    sys.run(1'000'000);
    ASSERT_TRUE(sys.allIdle());

    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(sys.dram().load<Fx16>(8192 + 2 * i), 6 * i);
    // The transfer really did fan out across every vault.
    unsigned vaults_touched = 0;
    for (unsigned v = 0; v < 4; ++v) {
        if (sys.hmc().vault(v).stats().readBytes.value() > 0)
            ++vaults_touched;
    }
    EXPECT_EQ(vaults_touched, 4u);
}

} // namespace
} // namespace vip
