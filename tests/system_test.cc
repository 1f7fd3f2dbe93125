/**
 * @file
 * Integration tests of the full machine: request routing across
 * vaults, vault locality, the software synchronization idioms
 * (full/empty flags, barriers), and system-level accounting.
 */

#include <gtest/gtest.h>

#include "equivalence.hh"
#include "isa/builder.hh"
#include "kernels/sync.hh"
#include "sim/error.hh"
#include "system/simulation.hh"
#include "system/system.hh"
#include "workloads/fixed.hh"

namespace vip {
namespace {

TEST(System, FullMachineShape)
{
    SystemConfig cfg = makeSystemConfig(32, 4);
    VipSystem sys(cfg);
    EXPECT_EQ(sys.numPes(), 128u);
    EXPECT_EQ(sys.hmc().numVaults(), 32u);
    EXPECT_EQ(sys.vaultOf(0), 0u);
    EXPECT_EQ(sys.vaultOf(127), 31u);
    EXPECT_EQ(sys.hmc().config().geom.capacity(), 8ull << 30);
}

TEST(System, RemoteAccessCostsMoreThanLocal)
{
    SystemConfig cfg = makeSystemConfig(32, 4);
    VipSystem sys(cfg);

    auto timed_load = [&](unsigned pe, Addr addr) {
        AsmBuilder b;
        b.movImm(1, static_cast<std::int64_t>(addr));
        b.ldReg(2, 1, ElemWidth::W64);
        b.mov(3, 2);  // forces a wait for the valid bit
        b.halt();
        sys.pe(pe).loadProgram(b.finish());
        const Cycles start = sys.now();
        sys.run(1'000'000);
        EXPECT_TRUE(sys.allIdle());
        return sys.now() - start;
    };

    const Cycles local = timed_load(0, sys.vaultBase(0) + 64);
    // Vault 4 is 4 torus hops from vault 0 on the 8x4 grid.
    const Cycles remote = timed_load(0, sys.vaultBase(4) + 64);
    EXPECT_GT(remote, local + 8)
        << "round trip must include torus hops both ways";
}

TEST(System, ProducerConsumerThroughFullEmptyFlags)
{
    SystemConfig cfg = makeSystemConfig(1, 2);
    VipSystem sys(cfg);
    const Addr data = sys.vaultBase(0) + 4096;
    const Addr flag = sys.vaultBase(0) + 8192;

    // Producer: write 8 values, fence, signal.
    {
        AsmBuilder b;
        for (unsigned i = 0; i < 8; ++i)
            sys.pe(0).scratchpad().store<Fx16>(i * 2,
                                               static_cast<Fx16>(i * 3));
        b.movImm(1, 8);
        b.movImm(2, 0);
        b.movImm(3, static_cast<std::int64_t>(data));
        b.stSram(2, 3, 1);
        emitSignal(b, flag, 1, SyncRegs{10, 11, 12});
        b.halt();
        sys.pe(0).loadProgram(b.finish());
    }
    // Consumer: wait, then read into its scratchpad.
    {
        AsmBuilder b;
        emitWaitGe(b, flag, 1, SyncRegs{10, 11, 12});
        b.movImm(1, 8);
        b.movImm(2, 0);
        b.movImm(3, static_cast<std::int64_t>(data));
        b.ldSram(2, 3, 1);
        b.memfence();
        b.halt();
        sys.pe(1).loadProgram(b.finish());
    }
    sys.run(1'000'000);
    ASSERT_TRUE(sys.allIdle());
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(sys.pe(1).scratchpad().load<Fx16>(i * 2),
                  static_cast<Fx16>(i * 3));
    }
}

TEST(System, BarrierSynchronizesAllPes)
{
    // Each PE writes its arrival stamp, barriers, then reads every
    // other PE's stamp; all stamps must be visible after the barrier.
    SystemConfig cfg = makeSystemConfig(1, 4);
    VipSystem sys(cfg);
    const unsigned n = 4;
    const Addr stamps = sys.vaultBase(0) + 4096;
    const Addr flags = sys.vaultBase(0) + 8192;

    for (unsigned pe = 0; pe < n; ++pe) {
        AsmBuilder b;
        // Delay PEs by different amounts.
        b.movImm(1, 0);
        b.movImm(2, 50 * (pe + 1));
        const auto spin = b.newLabel();
        b.bind(spin);
        b.addImm(1, 1, 1);
        b.branch(BranchCond::Lt, 1, 2, spin);
        // Publish our stamp.
        b.movImm(3, static_cast<std::int64_t>(stamps + pe * 8));
        b.movImm(4, 1000 + pe);
        b.stReg(4, 3, ElemWidth::W64);
        b.movImm(30, 0);  // generation register
        emitBarrier(b, flags, pe, n, SyncRegs{30, 31, 32});
        // Read all stamps into r40..r43.
        for (unsigned j = 0; j < n; ++j) {
            b.movImm(3, static_cast<std::int64_t>(stamps + j * 8));
            b.ldReg(40 + j, 3, ElemWidth::W64);
        }
        b.memfence();
        b.halt();
        sys.pe(pe).loadProgram(b.finish());
    }
    sys.run(5'000'000);
    ASSERT_TRUE(sys.allIdle());
    for (unsigned pe = 0; pe < n; ++pe) {
        for (unsigned j = 0; j < n; ++j)
            EXPECT_EQ(sys.pe(pe).reg(40 + j), 1000 + j)
                << "pe " << pe << " stamp " << j;
    }
}

TEST(System, ReusableBarrierAcrossGenerations)
{
    // Two PEs alternately increment a shared counter across three
    // barrier generations; interleaving must be strict.
    SystemConfig cfg = makeSystemConfig(1, 2);
    VipSystem sys(cfg);
    const Addr flags = sys.vaultBase(0) + 8192;
    const Addr counter = sys.vaultBase(0) + 4096;

    for (unsigned pe = 0; pe < 2; ++pe) {
        AsmBuilder b;
        b.movImm(30, 0);
        for (unsigned round = 0; round < 3; ++round) {
            if (round % 2 == pe) {
                // This PE increments in this round.
                b.movImm(1, static_cast<std::int64_t>(counter));
                b.ldReg(2, 1, ElemWidth::W64);
                b.addImm(2, 2, 1);
                b.stReg(2, 1, ElemWidth::W64);
            }
            emitBarrier(b, flags, pe, 2, SyncRegs{30, 31, 32});
        }
        b.memfence();
        b.halt();
        sys.pe(pe).loadProgram(b.finish());
    }
    sys.run(5'000'000);
    ASSERT_TRUE(sys.allIdle());
    EXPECT_EQ(sys.dram().load<std::uint64_t>(counter), 3u);
}

TEST(System, RunStopsAtDeadline)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    AsmBuilder b;
    b.movImm(1, 0);
    b.movImm(2, 1);
    const auto spin = b.newLabel();
    b.bind(spin);
    b.branch(BranchCond::Lt, 1, 2, spin);  // spins forever
    b.halt();
    sys.pe(0).loadProgram(b.finish());
    const Cycles simulated = sys.run(5000);
    EXPECT_EQ(simulated, 5000u);
    EXPECT_FALSE(sys.allIdle());
}

TEST(System, HugeBudgetOnALaterRunHasNoDeadline)
{
    // now() + max_cycles must saturate: a budget reaching past the end
    // of time on a machine already at cycle 10 is "no limit", not a
    // deadline that wrapped around behind now().
    for (const bool ff : {true, false}) {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.fastForward = ff;
        VipSystem sys(cfg);
        AsmBuilder b;
        b.movImm(1, 0);
        b.movImm(2, 200);
        const auto loop = b.newLabel();
        b.bind(loop);
        b.addImm(1, 1, 1);
        b.branch(BranchCond::Lt, 1, 2, loop);
        b.halt();
        sys.pe(0).loadProgram(b.finish());
        EXPECT_EQ(sys.run(10), 10u);
        ASSERT_FALSE(sys.pe(0).halted());
        EXPECT_GT(sys.run(~Cycles{0}), 200u);
        EXPECT_TRUE(sys.allIdle());
        EXPECT_EQ(sys.pe(0).reg(1), 200u);
    }
}

TEST(System, ProgramErrorReleasesTheMachine)
{
    // A ProgramError thrown out of a PE's tick must leave run()
    // re-enterable: the one-run-at-a-time guard is released on every
    // exit, so the second call reaches the same bad instruction again
    // instead of tripping the concurrent-entry check.
    for (const bool ff : {true, false}) {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.fastForward = ff;
        VipSystem sys(cfg);
        AsmBuilder b;
        b.movImm(1, 0);
        b.setVl(1);
        b.halt();
        sys.pe(0).loadProgram(b.finish());
        EXPECT_THROW(sys.run(1000), ProgramError);
        EXPECT_THROW(sys.run(1000), ProgramError);
    }
}

TEST(System, TeardownWithPacketsInFlightFreesEveryRequest)
{
    // Each request in flight is owned by exactly one container: a NoC
    // packet, a vault's backlog or a vault's transaction queue.
    // Stop the machine while all three hold some and destroy it; the
    // sanitizer build's leak check then proves each one is freed.
    for (const bool ff : {true, false}) {
        SystemConfig cfg = makeSystemConfig(4, 4);
        cfg.fastForward = ff;
        cfg.mem.transQueueDepth = 2;
        VipSystem sys(cfg);
        for (unsigned pe = 0; pe < sys.numPes(); ++pe) {
            const unsigned v = sys.vaultOf(pe);
            AsmBuilder b;
            b.movImm(1, 0);
            b.movImm(2, 64);  // iterations: far more than the test runs
            b.movImm(3, static_cast<std::int64_t>(
                            sys.vaultBase((v + 1) % 4) + pe * 65536));
            b.movImm(4, static_cast<std::int64_t>(
                            sys.vaultBase((v + 2) % 4) + pe * 65536));
            b.movImm(5, 512);  // DRAM stride per iteration
            b.movImm(6, 64);   // elements per transfer
            b.movImm(7, 0);
            const auto loop = b.newLabel();
            b.bind(loop);
            b.ldSram(7, 3, 6);
            b.stSram(7, 4, 6);
            b.scalar(ScalarOp::Add, 3, 3, 5);
            b.scalar(ScalarOp::Add, 4, 4, 5);
            b.addImm(1, 1, 1);
            b.branch(BranchCond::Lt, 1, 2, loop);
            b.halt();
            sys.pe(pe).loadProgram(b.finish());
        }
        bool caught = false;
        for (unsigned i = 0; i < 1000 && !caught; ++i) {
            sys.run(7);
            caught = sys.noc().inFlight() > 0 && parkedInIngress(sys);
        }
        ASSERT_TRUE(caught) << "never stopped with packets in flight and "
                               "a request parked (ff=" << ff << ")";
        EXPECT_FALSE(sys.allIdle());
    }
}

TEST(System, BandwidthAndGopsAccounting)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    AsmBuilder b;
    b.movImm(1, 512);  // elements
    b.movImm(2, 0);
    b.movImm(3, static_cast<std::int64_t>(sys.vaultBase(0)));
    b.ldSram(2, 3, 1);
    b.movImm(4, 16);
    b.setVl(4);
    b.movImm(5, 2048);
    b.vv(VecOp::Add, 5, 2, 2);
    b.memfence();
    b.halt();
    sys.pe(0).loadProgram(b.finish());
    sys.run(1'000'000);
    ASSERT_TRUE(sys.allIdle());
    EXPECT_EQ(sys.totalVectorOps(), 16u);
    EXPECT_EQ(sys.hmc().totalBytesMoved(), 1024u);
    EXPECT_GT(sys.achievedBandwidthGBs(), 0.0);
    EXPECT_GT(sys.achievedGops(), 0.0);
}

TEST(System, PesStayInTheirLocalVaultByDefault)
{
    // The vault-high mapping keeps a PE's vault-base-relative
    // addresses inside its own vault (Sec. III-C).
    SystemConfig cfg = makeSystemConfig(32, 4);
    VipSystem sys(cfg);
    for (unsigned pe = 0; pe < 128; pe += 17) {
        const unsigned vault = sys.vaultOf(pe);
        const Addr local = sys.vaultBase(vault) + 12345;
        EXPECT_EQ(sys.hmc().homeVault(local), vault);
    }
}

} // namespace
} // namespace vip
