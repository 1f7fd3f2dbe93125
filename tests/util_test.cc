/**
 * @file
 * Small utilities: the shift-add constant multiplier the kernel
 * generators use (the ISA has no scalar multiply), the runner's NoC
 * grid selection, the PE trace hook, the NoC latency histogram, and
 * the absolute-position ring the vault queues use.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "kernels/emit_util.hh"
#include "noc/torus.hh"
#include "sim/ring.hh"
#include "system/simulation.hh"

namespace vip {
namespace {

TEST(Ring, PositionsSurviveWrapAndGrowth)
{
    // Steady traffic first carries the head around the buffer many
    // times; then bursts overfill it while the live span wraps, so
    // each doubling must move the wrapped elements. Every element
    // keeps its position throughout.
    Ring<std::uint64_t> ring(3);
    EXPECT_EQ(ring.capacity(), 4u);
    std::uint64_t pushed = 0;
    const auto check = [&ring, &pushed] {
        ASSERT_EQ(ring.end(), pushed);
        for (std::uint64_t pos = ring.head(); pos != ring.end(); ++pos)
            ASSERT_EQ(ring.at(pos), 1000 + pos);
    };
    for (unsigned round = 0; round < 50; ++round) {
        const unsigned burst = round < 40 ? 3 : 9;
        for (unsigned i = 0; i < burst; ++i)
            ring.push(1000 + pushed++);
        check();
        for (unsigned i = 0; i < 3; ++i) {
            ASSERT_EQ(ring.front(), 1000 + ring.head());
            ring.pop();
        }
        check();
        if (round == 39) {
            EXPECT_EQ(ring.capacity(), 4u) << "steady traffic grew";
        }
    }
    EXPECT_EQ(ring.capacity(), 64u);
    EXPECT_EQ(ring.back(), 1000 + pushed - 1);
}

TEST(EmitMulConst, ComputesProductsWithoutMultiplier)
{
    for (std::uint64_t c : {0ull, 1ull, 2ull, 3ull, 5ull, 18ull, 96ull,
                            384ull, 1152ull, 65535ull}) {
        SystemConfig cfg = makeSystemConfig(1, 1);
        VipSystem sys(cfg);
        AsmBuilder b;
        b.movImm(1, 37);  // src
        emitMulConst(b, 2, 1, c, 3);
        b.halt();
        sys.pe(0).loadProgram(b.finish());
        sys.run(100000);
        ASSERT_TRUE(sys.allIdle());
        EXPECT_EQ(sys.pe(0).reg(2), 37ull * c) << "c=" << c;
    }
}

TEST(EmitMulConst, CostMatchesPopcount)
{
    EXPECT_EQ(mulConstCost(0), 1u);
    EXPECT_EQ(mulConstCost(8), 1u);    // one shift
    EXPECT_EQ(mulConstCost(6), 3u);    // shift, shift, add
    EXPECT_EQ(mulConstCost(0xff), 15u);
}

TEST(Runner, NocGridsMatchVaultCounts)
{
    EXPECT_EQ(nocDimsFor(1), (std::pair<unsigned, unsigned>{1, 1}));
    EXPECT_EQ(nocDimsFor(4), (std::pair<unsigned, unsigned>{2, 2}));
    EXPECT_EQ(nocDimsFor(32), (std::pair<unsigned, unsigned>{8, 4}));
    for (unsigned v : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const auto [x, y] = nocDimsFor(v);
        EXPECT_EQ(x * y, v);
    }
}

TEST(Tracer, FiresOncePerIssuedInstruction)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    AsmBuilder b;
    b.movImm(1, 0);
    b.movImm(2, 5);
    const auto loop = b.newLabel();
    b.bind(loop);
    b.addImm(1, 1, 1);
    b.branch(BranchCond::Lt, 1, 2, loop);
    b.halt();

    std::vector<std::pair<std::size_t, Opcode>> trace;
    sys.pe(0).setTracer([&](Cycles, std::size_t pc,
                            const Instruction &inst) {
        trace.emplace_back(pc, inst.op);
    });
    sys.pe(0).loadProgram(b.finish());
    sys.run(100000);
    ASSERT_TRUE(sys.allIdle());

    // 2 movs + 5 * (add + branch) + halt.
    EXPECT_EQ(trace.size(), 2u + 10u + 1u);
    EXPECT_EQ(trace.front().second, Opcode::MovImm);
    EXPECT_EQ(trace.back().second, Opcode::Halt);
    EXPECT_EQ(trace[2].first, 2u);  // the loop body starts at pc 2
}

TEST(NocHistogram, RecordsPacketLatencies)
{
    TorusNoc noc(4, 2);
    unsigned done = 0;
    for (unsigned d = 0; d < 8; ++d) {
        Packet p;
        p.src = 0;
        p.dst = d;
        p.payloadBytes = 16;
        p.onArrive = [&](Packet &) { ++done; };
        noc.send(std::move(p), 0);
    }
    Cycles now = 0;
    while (done < 8 && now < 10000)
        noc.tick(now++);
    EXPECT_EQ(noc.latencyHistogram().count(), 8u);
    EXPECT_GT(noc.latencyHistogram().mean(), 0.0);
    EXPECT_GE(noc.latencyHistogram().max(),
              static_cast<Cycles>(noc.avgLatency()));
}

} // namespace
} // namespace vip
