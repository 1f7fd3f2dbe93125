/**
 * @file
 * Every execution strategy matches the oracle on representative
 * kernels (tests/equivalence.hh): the BP, conv, pool and FC kernels,
 * scalar loops the fast path issues ahead, fenced DRAM copies
 * under fault campaigns, multi-vault remote traffic cut into short
 * run() phases, and host interventions between runs.
 *
 * Four scenarios also pin golden values captured from the seed
 * implementation (cycles, committed instructions, DRAM fingerprint),
 * so the strategies cannot drift together unnoticed. Each scenario
 * also checks that the strategy it exercises actually fired.
 */

#include <gtest/gtest.h>

#include <vector>

#include "equivalence.hh"
#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/mrf.hh"
#include "workloads/nn.hh"

namespace vip {
namespace {

/** Seed-implementation observables no strategy may move. */
struct Golden
{
    Cycles cycles;
    std::uint64_t instructions;
    std::uint64_t dramDigest;
};

void
expectGolden(const Runs &runs, const Golden &want)
{
    // Every strategy matched the oracle, so pinning it pins all four.
    EXPECT_EQ(runs[0].cycles, want.cycles);
    EXPECT_EQ(runs[0].instructions, want.instructions);
    EXPECT_EQ(runs[0].dramDigest, want.dramDigest);
}

/** Kernel-library programs are legally scheduled under every
 *  strategy: no read lands inside a producer's timing shadow. */
void
expectNoTimingHazards(const Runs &runs)
{
    for (std::size_t s = 0; s < kStrategies.size(); ++s)
        EXPECT_EQ(runs[s].timingHazards, 0u) << kStrategies[s].name;
}

/** Both fast-forward strategies actually warped. */
void
expectWarped(const Runs &runs)
{
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
        if (!kStrategies[s].fastForward)
            continue;
        EXPECT_GT(runs[s].skipped, 0u) << kStrategies[s].name;
        EXPECT_GT(runs[s].warps, 0u) << kStrategies[s].name;
    }
}

MrfProblem
makeProblem(unsigned w, unsigned h, unsigned labels, std::uint64_t seed)
{
    Rng rng(seed);
    MrfProblem p;
    p.width = w;
    p.height = h;
    p.labels = labels;
    p.smoothCost = truncatedLinearSmoothness(labels, 3, 12);
    p.dataCost.resize(static_cast<std::size_t>(w) * h * labels);
    for (auto &c : p.dataCost)
        c = static_cast<Fx16>(rng.nextBelow(25));
    return p;
}

/** Every vault runs the same rightward BP sweep, its rows split
 *  across the vault's four PEs. */
Runs
bpSweep(unsigned vaults)
{
    const unsigned W = 12, H = 8, L = 8;
    const MrfProblem problem = makeProblem(W, H, L, 42);
    SystemConfig cfg = makeSystemConfig(vaults, 4);
    cfg.pe.strictHazards = true;
    const Runs runs =
        expectEquivalent(cfg, [&](VipSystem &sys, const RunHook &run) {
            for (unsigned v = 0; v < vaults; ++v) {
                MrfDramLayout layout(sys.vaultBase(v), W, H, L);
                layout.upload(problem, sys.dram());
                const unsigned per = H / 4;
                for (unsigned pe = 0; pe < 4; ++pe) {
                    sys.pe(v * 4 + pe).loadProgram(genBpSweep(
                        layout, BpVariant{},
                        BpSweepJob{SweepDir::Right, pe * per,
                                   (pe + 1) * per}));
                }
            }
            run(50'000'000);
        });
    expectWarped(runs);
    expectNoTimingHazards(runs);
    return runs;
}

TEST(StrategyEquivalence, BpSweepFourPes)
{
    // Cycles re-pinned (2043 -> 2048) when NoC events gained the
    // canonical (cycle, node, lane key) total order; instructions and
    // the digest are order-invariant and did not move.
    expectGolden(bpSweep(1), Golden{2048, 3064, 8335395983873963827ull});
}

TEST(StrategyEquivalence, BpSweepSixteenVaults)
{
    bpSweep(16);
}

TEST(StrategyEquivalence, ConvSingleShard)
{
    // Vector and memory dominated: run-ahead windows are short, and
    // the equivalence has to hold at every window boundary.
    const unsigned C = 8, H = 10, W = 12, OC = 4, K = 3;
    Rng rng(11);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-10, 10));
    const auto filters = randomWeights(
        static_cast<std::size_t>(OC) * C * K * K, rng, 3);
    const auto bias = randomWeights(OC, rng, 20);

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;

    const Runs runs =
        expectEquivalent(cfg, [&](VipSystem &sys, const RunHook &run) {
            const Addr base = sys.vaultBase(0);
            FmapDramLayout in_lay(base, C, H, W, 1);
            FmapDramLayout out_lay(in_lay.end() + 64, OC, H, W, 0);
            const Addr filt_addr = out_lay.end() + 64;
            const auto blob = packFilters(filters, C, K, 0, OC, 0, C);
            sys.dram().write(filt_addr, blob.data(), blob.size() * 2);
            const Addr bias_addr = filt_addr + blob.size() * 2 + 64;
            sys.dram().write(bias_addr, bias.data(), bias.size() * 2);
            in_lay.upload(in, sys.dram());

            ConvJob job;
            job.in = &in_lay;
            job.out = &out_lay;
            job.filterBlob = filt_addr;
            job.biasBlob = bias_addr;
            job.zShard = C;
            job.filters = OC;
            job.rowBegin = 0;
            job.rowEnd = H;
            job.width = W;
            sys.pe(0).loadProgram(genConvPass(job));
            run(50'000'000);
        });
    expectWarped(runs);
    expectNoTimingHazards(runs);
    expectGolden(runs, Golden{14448, 7337, 17936303181918984730ull});
}

TEST(StrategyEquivalence, PoolLayer)
{
    const unsigned C = 16, H = 8, W = 12;
    Rng rng(14);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-1000, 1000));

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;

    const Runs runs =
        expectEquivalent(cfg, [&](VipSystem &sys, const RunHook &run) {
            FmapDramLayout in_lay(sys.vaultBase(0), C, H, W, 0);
            FmapDramLayout out_lay(in_lay.end() + 64, C, H / 2, W / 2,
                                   0);
            in_lay.upload(in, sys.dram());

            PoolJob job;
            job.in = &in_lay;
            job.out = &out_lay;
            job.rowBegin = 0;
            job.rowEnd = H / 2;
            job.width = W / 2;
            job.chunk = C;
            sys.pe(0).loadProgram(genPool(job));
            run(50'000'000);
        });
    expectNoTimingHazards(runs);
    expectGolden(runs, Golden{1834, 563, 8116046076812699434ull});
}

TEST(StrategyEquivalence, FcPartialThenAccum)
{
    // Two run() phases: a drained machine is reloaded and run again.
    const unsigned IN = 128, OUT = 64, SEGS = 4;
    Rng rng(16);
    const auto input = randomWeights(IN, rng, 30);
    const auto weights = randomWeights(
        static_cast<std::size_t>(OUT) * IN, rng, 5);
    const auto bias = randomWeights(OUT, rng, 50);

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;

    const Runs runs =
        expectEquivalent(cfg, [&](VipSystem &sys, const RunHook &run) {
            const Addr base = sys.vaultBase(0);
            const Addr w_addr = base;
            const Addr in_addr = w_addr + weights.size() * 2 + 64;
            const Addr bias_addr = in_addr + input.size() * 2 + 64;
            const Addr out_addr = bias_addr + bias.size() * 2 + 64;
            const Addr part_base = out_addr + OUT * 2 + 64;
            const std::uint64_t part_stride = OUT * 2 + 64;
            sys.dram().write(w_addr, weights.data(), weights.size() * 2);
            sys.dram().write(in_addr, input.data(), input.size() * 2);
            sys.dram().write(bias_addr, bias.data(), bias.size() * 2);

            for (unsigned s = 0; s < SEGS; ++s) {
                FcPartialJob job;
                job.weightBase = w_addr;
                job.inputBase = in_addr;
                job.outBase = part_base + s * part_stride;
                job.inputs = IN;
                job.segOffset = s * (IN / SEGS);
                job.segLen = IN / SEGS;
                job.rowBegin = 0;
                job.rowEnd = OUT;
                job.outBlock = 32;
                sys.pe(s).loadProgram(genFcPartial(job));
            }
            run(50'000'000);

            FcAccumJob acc;
            acc.partialBase0 = part_base;
            acc.strideOuter = part_stride;
            acc.countOuter = SEGS;
            acc.strideInner = 0;
            acc.countInner = 1;
            acc.outBase = out_addr;
            acc.biasBase = bias_addr;
            acc.outBegin = 0;
            acc.outEnd = OUT;
            acc.chunk = 32;
            sys.pe(0).loadProgram(genFcAccum(acc));
            run(50'000'000);
        });
    expectWarped(runs);
    expectNoTimingHazards(runs);
    // Cycles re-pinned (3676 -> 3667) with the canonical NoC event
    // order (see BpSweepFourPes); instructions and the digest did not
    // move.
    expectGolden(runs, Golden{3667, 3592, 2280018211753887088ull});
}

TEST(StrategyEquivalence, ScalarLoop)
{
    // The fast path's best case (BM_PeScalarLoop's program): the loop
    // body is all register-only µops, so run-ahead should issue the
    // overwhelming majority of its 20000 µops.
    const Runs runs = expectEquivalent(
        makeSystemConfig(1, 1), [](VipSystem &sys, const RunHook &run) {
            AsmBuilder b;
            b.movImm(1, 0);
            b.movImm(2, 10000);
            const auto loop = b.newLabel();
            b.bind(loop);
            b.addImm(1, 1, 1);
            b.branch(BranchCond::Lt, 1, 2, loop);
            b.halt();
            sys.pe(0).loadProgram(b.finish());
            run(50'000'000);
        });
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
        if (!kStrategies[s].fastPath)
            continue;
        EXPECT_GT(runs[s].fastUops, 15000u) << kStrategies[s].name;
    }
}

TEST(StrategyEquivalence, RunAheadStopsAtHaltAndRunBudget)
{
    // Run-ahead's edges. pe0 runs a scalar loop that also rewrites VL
    // and MR, and run() cuts fall inside it every few cycles: a window
    // must stop at the budget and leave the cut-mid-loop registers the
    // interpreter leaves. After each halt come more scalar, config and
    // branch µops, which must never issue. pe1's program is the
    // smallest such case.
    const Drive drive = [](VipSystem &sys, const RunHook &run) {
        AsmBuilder loop;
        loop.movImm(1, 0);
        loop.movImm(2, 300);
        loop.movImm(3, 8);
        const auto top = loop.newLabel();
        loop.bind(top);
        loop.addImm(1, 1, 1);
        loop.setVl(3);
        loop.scalar(ScalarOp::Add, 4, 4, 1);
        loop.setMr(3);
        loop.branch(BranchCond::Lt, 1, 2, top);
        loop.halt();
        loop.movImm(1, 7);
        loop.setVl(2);
        loop.jmp(top);
        loop.halt();
        sys.pe(0).loadProgram(loop.finish());

        AsmBuilder stop;
        stop.movImm(1, 5);
        stop.halt();
        stop.movImm(1, 7);
        stop.movImm(2, 9);
        stop.halt();
        sys.pe(1).loadProgram(stop.finish());

        const Cycles phases[] = {7, 13, 3, 29};
        for (unsigned i = 0; !sys.allIdle(); ++i) {
            ASSERT_LT(i, 10'000u) << "machine did not drain";
            run(phases[i % 4]);
        }
        EXPECT_EQ(sys.pe(0).reg(1), 300u);
        EXPECT_EQ(sys.pe(0).reg(4), 300u * 301 / 2);
        EXPECT_EQ(sys.pe(0).stats().instructions.value(), 3u + 5 * 300 + 1);
        EXPECT_EQ(sys.pe(1).reg(1), 5u);
        EXPECT_EQ(sys.pe(1).reg(2), 0u);
        EXPECT_EQ(sys.pe(1).stats().instructions.value(), 2u);
    };
    const Runs runs = expectEquivalent(makeSystemConfig(1, 2), drive);
    EXPECT_GT(runs[0].cuts.size(), 100u);
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
        if (kStrategies[s].fastPath) {
            EXPECT_GT(runs[s].fastUops, 1000u) << kStrategies[s].name;
        }
    }
}

/** A fenced DRAM copy of @p chunks 1 KiB chunks from @p src to
 *  @p dst. */
std::vector<Instruction>
copyProgram(Addr src, Addr dst, unsigned chunks)
{
    AsmBuilder b;
    b.movImm(1, 0);
    b.movImm(2, chunks);
    b.movImm(3, static_cast<std::int64_t>(src));
    b.movImm(4, static_cast<std::int64_t>(dst));
    b.movImm(5, 1024);  // chunk stride (bytes)
    b.movImm(6, 512);   // elements per chunk
    b.movImm(7, 0);     // scratchpad buffer
    const auto loop = b.newLabel();
    b.bind(loop);
    b.ldSram(7, 3, 6);
    b.stSram(7, 4, 6);
    b.memfence();
    b.scalar(ScalarOp::Add, 3, 3, 5);
    b.scalar(ScalarOp::Add, 4, 4, 5);
    b.addImm(1, 1, 1);
    b.branch(BranchCond::Lt, 1, 2, loop);
    b.halt();
    return b.finish();
}

/**
 * Every PE copies 8 KiB of random words 4 MiB up its vault under a
 * campaign of read-disturb, retention and scratchpad faults. Every
 * draw is keyed by event identity (scratchpad flips by the committed
 * instruction ordinal), never by cycle, so no strategy may move a
 * single fault, counter or scrubbed DRAM byte.
 */
void
faultCampaign(SystemConfig cfg)
{
    cfg.faults = FaultPlan::parse(
        "seed=7,dram-read=1e-3,retention=1e-4,sp-flip=1e-4,ecc=on");
    const Runs runs =
        expectEquivalent(cfg, [](VipSystem &sys, const RunHook &run) {
            Rng rng(11);
            for (unsigned pe = 0; pe < sys.numPes(); ++pe) {
                std::vector<std::int16_t> data(4096);
                for (auto &d : data)
                    d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
                const unsigned slot = pe % sys.config().pesPerVault;
                const Addr src = sys.vaultBase(sys.vaultOf(pe)) +
                                 slot * (16ull << 20);
                sys.dram().write(src, data.data(), data.size() * 2);
                sys.pe(pe).loadProgram(
                    copyProgram(src, src + (4ull << 20), 8));
            }
            run(50'000'000);
        });
    expectWarped(runs);
    // The campaign must fire for the equivalence to mean anything.
    const FaultStats &f = runs[0].faults;
    EXPECT_GT(f.dramBitFlips + f.retentionErrors + f.spBitFlips, 0u);
}

TEST(StrategyEquivalence, FaultCampaignOneVault)
{
    faultCampaign(makeSystemConfig(1, 4));
}

TEST(StrategyEquivalence, FaultCampaignSixteenVaults)
{
    faultCampaign(makeSystemConfig(16, 1));
}

TEST(StrategyEquivalence, MemoryBoundCopySkipsMostCycles)
{
    // A fenced copy is dominated by round-trip latency: the warp
    // should skip the bulk of the simulated cycles.
    const Runs runs = expectEquivalent(
        makeSystemConfig(1, 1), [](VipSystem &sys, const RunHook &run) {
            const Addr src = sys.vaultBase(0);
            sys.pe(0).loadProgram(copyProgram(src, src + (1ull << 20), 32));
            run(50'000'000);
        });
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
        if (kStrategies[s].fastForward) {
            EXPECT_GT(runs[s].skipped, runs[s].cycles / 2)
                << kStrategies[s].name;
        }
    }
}

TEST(StrategyEquivalence, MultiVaultRemoteTrafficInCutPhases)
{
    // Sixteen PEs on four vaults, each streaming from one remote vault
    // and storing to another, behind a two-entry transaction queue so
    // requests wait in the vaults' backlogs. The loop stalls on every external wake
    // a PE can get (an ARC entry held by a load, an ld.reg target, the
    // LSQ at a fence) and on v.drain. Short run() phases cut it
    // mid-stall: a PE skipped by the per-component gate has to have
    // settled its stall cycles by the time run() returns.
    SystemConfig cfg = makeSystemConfig(4, 4);
    cfg.mem.transQueueDepth = 2;

    bool parked = false;
    std::uint64_t stalls[4] = {};  // scalar, ARC, drain, fence
    const Drive drive = [&](VipSystem &sys, const RunHook &run) {
        const unsigned vaults = 4;
        for (unsigned pe = 0; pe < sys.numPes(); ++pe) {
            const unsigned v = sys.vaultOf(pe);
            const Addr src = sys.vaultBase((v + 1) % vaults) + pe * 8192;
            const Addr dst = sys.vaultBase((v + 2) % vaults) + pe * 8192;
            for (unsigned i = 0; i < 64; ++i) {
                const auto x = static_cast<std::int16_t>(pe * 64 + i);
                sys.dram().store<std::int16_t>(src + 2 * i, x);
            }
            AsmBuilder b;
            b.movImm(1, 0);
            b.movImm(2, 4 + pe % 3);  // iterations
            b.movImm(3, static_cast<std::int64_t>(src));
            b.movImm(4, static_cast<std::int64_t>(dst));
            b.movImm(5, 256);  // DRAM stride per iteration
            b.movImm(6, 48);   // elements per transfer
            b.movImm(7, 0);    // scratchpad: loaded data
            b.movImm(8, 512);  // scratchpad: result
            b.setVl(6);
            const auto loop = b.newLabel();
            b.bind(loop);
            b.ldSram(7, 3, 6);
            b.vv(VecOp::Add, 8, 7, 7); // waits on the ld.sram ARC entry
            b.vdrain();
            b.ldReg(20, 3, ElemWidth::W16);
            b.addImm(21, 20, 1);       // waits on the ld.reg response
            b.stSram(8, 4, 6);
            b.stReg(21, 4, ElemWidth::W16);
            b.memfence();              // waits on every response
            b.scalar(ScalarOp::Add, 3, 3, 5);
            b.scalar(ScalarOp::Add, 4, 4, 5);
            b.addImm(1, 1, 1);
            b.branch(BranchCond::Lt, 1, 2, loop);
            b.halt();
            sys.pe(pe).loadProgram(b.finish());
        }
        const Cycles phases[] = {97, 31, 211};
        for (unsigned i = 0; !sys.allIdle(); ++i) {
            ASSERT_LT(i, 10'000u) << "machine did not drain";
            run(phases[i % 3]);
            parked |= parkedInIngress(sys);
        }
        for (unsigned pe = 0; pe < sys.numPes(); ++pe) {
            const Pe::Stats &st = sys.pe(pe).stats();
            stalls[0] += st.stallScalar.value();
            stalls[1] += st.stallArc.value();
            stalls[2] += st.stallDrain.value();
            stalls[3] += st.stallFence.value();
        }
    };
    const Runs runs = expectEquivalent(cfg, drive);
    expectWarped(runs);

    EXPECT_TRUE(parked) << "no request ever waited in a vault backlog";
    for (unsigned k = 0; k < 4; ++k)
        EXPECT_GT(stalls[k], 0u) << "stall kind " << k << " never hit";
    EXPECT_GT(runs[0].cuts.size(), 4u);
}

TEST(StrategyEquivalence, HostInterventionsBetweenRuns)
{
    // The fast-forward loop caches each vault's and PE's next due
    // cycle, lowered only by the wake-ups it sees inside a run. Host
    // calls between run() phases bypass those: reloading a halted PE,
    // writing a live PE's register, poking DRAM a PE is about to load,
    // and ticking the machine by hand. run() must start from fresh
    // due cycles, or the reloaded PE never runs again.
    SystemConfig cfg = makeSystemConfig(2, 2);
    cfg.watchdogCycles = 100'000;

    const Drive drive = [](VipSystem &sys, const RunHook &run) {
        const Addr base = sys.vaultBase(1);
        const Addr data = base;          // read by pe0's second program
        const Addr flag = base + 4096;   // polled by pe2
        const Addr out = base + 8192;    // one word per PE

        // pe0: a short first program, halted by the first cut.
        AsmBuilder first;
        first.movImm(1, 7);
        first.movImm(2, static_cast<std::int64_t>(out));
        first.stReg(1, 2);
        first.memfence();
        first.halt();
        sys.pe(0).loadProgram(first.finish());

        // pe1: a fenced remote-load loop whose trip count r2 the host
        // cuts short while it runs.
        AsmBuilder loop;
        loop.movImm(1, 0);
        loop.movImm(2, 1000);
        loop.movImm(3, static_cast<std::int64_t>(data));
        loop.movImm(4, static_cast<std::int64_t>(out + 8));
        const auto top = loop.newLabel();
        loop.bind(top);
        loop.ldReg(20, 3);
        loop.scalar(ScalarOp::Add, 21, 21, 20);
        loop.addImm(1, 1, 1);
        loop.branch(BranchCond::Lt, 1, 2, top);
        loop.stReg(21, 4);
        loop.memfence();
        loop.halt();
        sys.pe(1).loadProgram(loop.finish());

        // pe2: spins on a DRAM flag the host raises between runs.
        AsmBuilder spin;
        spin.movImm(3, static_cast<std::int64_t>(flag));
        spin.movImm(4, static_cast<std::int64_t>(out + 16));
        spin.movImm(5, 0);
        const auto poll = spin.newLabel();
        spin.bind(poll);
        spin.ldReg(20, 3);
        spin.branch(BranchCond::Eq, 20, 5, poll);
        spin.stReg(20, 4);
        spin.memfence();
        spin.halt();
        sys.pe(2).loadProgram(spin.finish());

        run(400);
        ASSERT_TRUE(sys.pe(0).halted());
        ASSERT_FALSE(sys.pe(1).halted());
        ASSERT_FALSE(sys.pe(2).halted());

        // Reload the halted PE with a program that reads a word the
        // host writes now.
        sys.dram().store<std::uint64_t>(data, 1234);
        AsmBuilder second;
        second.movImm(3, static_cast<std::int64_t>(data));
        second.movImm(4, static_cast<std::int64_t>(out + 24));
        second.ldReg(20, 3);
        second.addImm(21, 20, 1);
        second.stReg(21, 4);
        second.memfence();
        second.halt();
        sys.pe(0).loadProgram(second.finish());
        run(300);

        ASSERT_FALSE(sys.pe(1).halted());
        sys.pe(1).setReg(2, 12);
        for (int i = 0; i < 3; ++i)
            sys.tick();
        run(250);

        ASSERT_FALSE(sys.pe(2).halted());
        sys.dram().store<std::uint64_t>(flag, 5);
        run(0);
        EXPECT_EQ(sys.dram().load<std::uint64_t>(out + 16), 5u);
        EXPECT_EQ(sys.dram().load<std::uint64_t>(out + 24), 1235u);
    };
    expectWarped(expectEquivalent(cfg, drive));
}

} // namespace
} // namespace vip
