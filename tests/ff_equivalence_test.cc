/**
 * @file
 * Fast-forward equivalence harness: the event-horizon warp in
 * VipSystem::run() (sim/clocked.hh) must be invisible in every
 * observable — final cycle count, the complete dumped statistics tree
 * (JSON, stable key order), DRAM contents, and the fault counters of
 * an injection campaign — across representative
 * kernels. Each scenario drives the same program on two machines, one
 * warping and one ticking every cycle, and requires bit-identical
 * results.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/layout.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/mrf.hh"
#include "workloads/nn.hh"

namespace vip {
namespace {

/** Everything the warp must not perturb, plus what it skipped. */
struct Observed
{
    Cycles cycles = 0;
    std::string statsJson;
    std::uint64_t dramDigest = 0;
    FaultStats faults;
    Cycles skipped = 0;
    std::uint64_t warps = 0;
};

/**
 * Build a system from @p cfg with fast-forward set to @p ff, hand it
 * to @p drive (which stages DRAM, loads programs, and runs — possibly
 * in several phases), then record the observables.
 */
Observed
observe(SystemConfig cfg, bool ff,
        const std::function<void(VipSystem &)> &drive)
{
    cfg.fastForward = ff;
    VipSystem sys(cfg);
    drive(sys);
    EXPECT_TRUE(sys.allIdle());
    Observed o;
    o.cycles = sys.now();
    std::ostringstream os;
    sys.stats().dumpJson(os);
    o.statsJson = os.str();
    o.dramDigest = sys.dram().fingerprint();
    if (const FaultInjector *inj = sys.faultInjector())
        o.faults = inj->stats();
    o.skipped = sys.fastForwardStats().skippedCycles;
    o.warps = sys.fastForwardStats().warps;
    return o;
}

/**
 * The core assertion: warped and unwarped runs are indistinguishable.
 * @p expect_skips additionally requires the warped run to actually
 * exercise the fast path (memory-bound scenarios always do).
 */
void
expectEquivalent(const SystemConfig &cfg,
                 const std::function<void(VipSystem &)> &drive,
                 bool expect_skips = true)
{
    const Observed warped = observe(cfg, true, drive);
    const Observed ticked = observe(cfg, false, drive);

    EXPECT_EQ(warped.cycles, ticked.cycles);
    EXPECT_EQ(warped.statsJson, ticked.statsJson);
    EXPECT_EQ(warped.dramDigest, ticked.dramDigest);
    EXPECT_TRUE(warped.faults == ticked.faults);

    EXPECT_EQ(ticked.skipped, 0u);
    EXPECT_EQ(ticked.warps, 0u);
    if (expect_skips) {
        EXPECT_GT(warped.skipped, 0u);
        EXPECT_GT(warped.warps, 0u);
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

TEST(FfEquivalence, BpSweepFourPes)
{
    const unsigned W = 12, H = 8, L = 8;
    const MrfProblem problem = makeProblem(W, H, L, 42);
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;

    expectEquivalent(cfg, [&](VipSystem &sys) {
        MrfDramLayout layout(sys.vaultBase(0), W, H, L);
        layout.upload(problem, sys.dram());
        const unsigned per = H / 4;
        for (unsigned pe = 0; pe < 4; ++pe) {
            sys.pe(pe).loadProgram(genBpSweep(
                layout, BpVariant{},
                BpSweepJob{SweepDir::Right, pe * per, (pe + 1) * per}));
        }
        sys.run(50'000'000);
    });
}

TEST(FfEquivalence, ConvSingleShard)
{
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

    expectEquivalent(cfg, [&](VipSystem &sys) {
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
        sys.run(50'000'000);
    });
}

TEST(FfEquivalence, FcPartialThenAccum)
{
    const unsigned IN = 128, OUT = 64, SEGS = 4;
    Rng rng(16);
    const auto input = randomWeights(IN, rng, 30);
    const auto weights = randomWeights(
        static_cast<std::size_t>(OUT) * IN, rng, 5);
    const auto bias = randomWeights(OUT, rng, 50);

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;

    // Two run() phases: the warp bookkeeping must survive a drained
    // machine being reloaded and run again.
    expectEquivalent(cfg, [&](VipSystem &sys) {
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
        sys.run(50'000'000);

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
        sys.run(50'000'000);
    });
}

TEST(FfEquivalence, MultiVaultRemoteTrafficInCutPhases)
{
    // Sixteen PEs on four vaults, each streaming from one remote vault
    // and storing to another, behind a two-entry transaction queue so
    // requests park in ingress. The loop stalls on every external wake
    // a PE can get (an ARC entry held by a load, an ld.reg target, the
    // LSQ at a fence) and on v.drain. Short run() phases cut it
    // mid-stall, and the statistics at every cut must match too: a PE
    // skipped by the per-component gate has to have settled its stall
    // cycles by the time run() returns.
    SystemConfig cfg = makeSystemConfig(4, 4);
    cfg.mem.transQueueDepth = 2;

    std::vector<std::vector<std::string>> cuts;  // one list per machine
    bool parked = false;
    std::uint64_t stalls[4] = {};  // scalar, ARC, drain, fence
    auto drive = [&](VipSystem &sys) {
        cuts.emplace_back();
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
            sys.run(phases[i % 3]);
            const std::string diag = sys.deadlockDiagnosis();
            for (std::size_t at = diag.find(" ingress=");
                 at != std::string::npos;
                 at = diag.find(" ingress=", at + 1)) {
                parked |= diag[at + 9] != '0';
            }
            std::ostringstream os;
            os << sys.now() << "\n";
            sys.stats().dumpJson(os);
            cuts.back().push_back(os.str());
        }
        for (unsigned pe = 0; pe < sys.numPes(); ++pe) {
            const Pe::Stats &st = sys.pe(pe).stats();
            stalls[0] += st.stallScalar.value();
            stalls[1] += st.stallArc.value();
            stalls[2] += st.stallDrain.value();
            stalls[3] += st.stallFence.value();
        }
    };
    expectEquivalent(cfg, drive);

    EXPECT_TRUE(parked) << "no request ever parked in ingress";
    for (unsigned k = 0; k < 4; ++k)
        EXPECT_GT(stalls[k], 0u) << "stall kind " << k << " never hit";
    ASSERT_EQ(cuts.size(), 2u);
    ASSERT_EQ(cuts[0].size(), cuts[1].size());
    EXPECT_GT(cuts[0].size(), 4u);
    for (std::size_t i = 0; i < cuts[0].size(); ++i)
        ASSERT_EQ(cuts[0][i], cuts[1][i]) << "phase " << i;
}

TEST(FfEquivalence, HostInterventionsBetweenRuns)
{
    // The fast-forward loop caches each vault's and PE's next due
    // cycle, lowered only by the wake-ups it sees inside a run. Host
    // calls between run() phases bypass those: reloading a halted PE,
    // writing a live PE's register, poking DRAM a PE is about to load,
    // and ticking the machine by hand. run() must start from fresh
    // due cycles, or the reloaded PE never runs again.
    SystemConfig cfg = makeSystemConfig(2, 2);
    cfg.watchdogCycles = 100'000;

    std::vector<std::vector<std::string>> cuts;  // one list per machine
    auto drive = [&](VipSystem &sys) {
        cuts.emplace_back();
        const Addr base = sys.vaultBase(1);
        const Addr data = base;          // read by pe0's second program
        const Addr flag = base + 4096;   // polled by pe2
        const Addr out = base + 8192;    // one word per PE

        auto cut = [&] {
            std::ostringstream os;
            os << sys.now() << "\n";
            sys.stats().dumpJson(os);
            cuts.back().push_back(os.str());
        };

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

        sys.run(400);
        cut();
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
        sys.run(300);
        cut();

        ASSERT_FALSE(sys.pe(1).halted());
        sys.pe(1).setReg(2, 12);
        for (int i = 0; i < 3; ++i)
            sys.tick();
        sys.run(250);
        cut();

        ASSERT_FALSE(sys.pe(2).halted());
        sys.dram().store<std::uint64_t>(flag, 5);
        sys.run();
        cut();
        EXPECT_EQ(sys.dram().load<std::uint64_t>(out + 16), 5u);
        EXPECT_EQ(sys.dram().load<std::uint64_t>(out + 24), 1235u);
    };
    expectEquivalent(cfg, drive);

    ASSERT_EQ(cuts.size(), 2u);
    ASSERT_EQ(cuts[0].size(), cuts[1].size());
    for (std::size_t i = 0; i < cuts[0].size(); ++i)
        ASSERT_EQ(cuts[0][i], cuts[1][i]) << "phase " << i;
}

TEST(FfEquivalence, SixteenVaultFaultCampaign)
{
    // A vault-tiled copy on a 16-vault machine under a campaign of
    // read-disturb, retention, and scratchpad faults: every draw is
    // keyed by event identity, never by cycle, so the warp must not
    // move a single fault, counter, or scrubbed DRAM byte.
    SystemConfig cfg = makeSystemConfig(16, 1);
    cfg.faults = FaultPlan::parse(
        "seed=7,dram-read=1e-3,retention=1e-4,sp-flip=1e-4,ecc=on");

    auto drive = [](VipSystem &sys) {
        Rng rng(11);
        for (unsigned v = 0; v < 16; ++v) {
            std::vector<std::int16_t> data(4096);
            for (auto &d : data)
                d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
            sys.dram().write(sys.vaultBase(v), data.data(),
                             data.size() * 2);
            sys.pe(v).loadProgram(
                copyProgram(sys.vaultBase(v),
                            sys.vaultBase(v) + (4ull << 20), 8));
        }
        sys.run(50'000'000);
    };
    expectEquivalent(cfg, drive);

    // The campaign must actually fire for the equivalence above to
    // mean anything.
    const Observed o = observe(cfg, true, drive);
    EXPECT_GT(o.faults.dramBitFlips + o.faults.retentionErrors +
                  o.faults.spBitFlips,
              0u);
}

TEST(FfEquivalence, MemoryBoundCopySkipsMostCycles)
{
    // A fenced DRAM copy is dominated by round-trip latency; the warp
    // should skip the bulk of the simulated cycles.
    SystemConfig cfg = makeSystemConfig(1, 1);

    auto drive = [](VipSystem &sys) {
        AsmBuilder b;
        const Addr src = sys.vaultBase(0);
        const Addr dst = src + (1ull << 20);
        b.movImm(1, 0);
        b.movImm(2, 32);     // chunks
        b.movImm(3, static_cast<std::int64_t>(src));
        b.movImm(4, static_cast<std::int64_t>(dst));
        b.movImm(5, 1024);   // stride
        b.movImm(6, 512);    // elements per chunk
        b.movImm(7, 0);      // scratchpad buffer
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
        sys.pe(0).loadProgram(b.finish());
        sys.run(50'000'000);
    };
    expectEquivalent(cfg, drive);

    const Observed warped = observe(cfg, true, drive);
    EXPECT_GT(warped.skipped, warped.cycles / 2)
        << "memory-bound copy should be mostly dead cycles";
}

} // namespace
} // namespace vip
